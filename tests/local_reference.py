"""Reference oracles for kappa, and division by pi checked by valuation.

``kappa`` enumerates, for each level l, every unit gamma mod pi^l and tests
whether gamma^p - x has valuation >= l. ``pth_powers`` builds a ring's table
of p-th-power keys from every unit gamma mod pi^kappa_cap. The package reads
kappa from a per-ring table that it builds as a subgroup closure instead;
these slower, independent definitions stay here so the tests can check the
table against them. ``divide_by_pi`` checks exactness by a pi-valuation
before dividing, where the package reads it off the product it forms.
"""

from __future__ import annotations

from itertools import product as iter_product

from towerforge.errors import PrecisionError
from towerforge.local import (
    LocalCycloElement,
    check_kappa_domain,
    kappa_cap,
    pi_valuation,
)


def divide_by_pi(element: LocalCycloElement, t: int = 1) -> LocalCycloElement:
    """Exact division by pi^t, refused by ``pi_valuation`` when v(x) < t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return element
    if element.precision <= t:
        raise PrecisionError(f"need precision > {t} to divide by pi^{t}")
    v = pi_valuation(element)
    if v < t:
        raise ValueError(f"valuation {v} is below {t}; division is not exact")
    scaled = element * element._like(element.ring.cofactor) ** t
    pt = element.p**t
    assert all(c % pt == 0 for c in scaled.coeffs)
    return LocalCycloElement(
        element.p, element.m, element.precision - t, [c // pt for c in scaled.coeffs]
    )


def _pth_power_residues(x: LocalCycloElement, level: int):
    """Yield gamma^p - x over unit representatives gamma mod pi^level."""
    p = x.p
    pi = LocalCycloElement.pi(x.p, x.m, x.precision)
    pi_powers = [LocalCycloElement(x.p, x.m, x.precision, [1])]
    for _ in range(level - 1):
        pi_powers.append(pi_powers[-1] * pi)
    # digit 0 runs over 1..p-1 only: a non-unit gamma has v(gamma^p) >= p > 0,
    # so it can never witness congruence to a unit at level >= 1
    for digits in iter_product(range(1, p), *([range(p)] * (level - 1))):
        gamma_coeffs = [0] * x.e
        for digit, power in zip(digits, pi_powers):
            if digit:
                gamma_coeffs = [a + digit * b for a, b in zip(gamma_coeffs, power.coeffs)]
        gamma = LocalCycloElement(x.p, x.m, x.precision, gamma_coeffs)
        yield gamma**p - x


def kappa(x: LocalCycloElement, l_max: int) -> int:
    """Largest l <= l_max such that x is a p-th power mod pi^l, by brute force.

    Searching representatives mod pi^l is exhaustive: perturbing a candidate
    gamma by pi^l changes gamma^p only above level l. Requires a unit x and
    l_max + e of resolvable valuation (safety margin of one ramification index).
    """
    check_kappa_domain(x.p, x.m, l_max)
    if x.cap < l_max + x.e:
        raise PrecisionError(
            f"precision resolves {x.cap}; need l_max + e = {l_max + x.e}"
        )
    if pi_valuation(x) != 0:
        raise ValueError("kappa is defined for units only")
    best = 0
    for level in range(1, l_max + 1):
        found = False
        for difference in _pth_power_residues(x, level):
            if difference.is_zero() or pi_valuation(difference) >= level:
                found = True
                break
        if not found:
            break
        best = level
    return best


def pth_powers(ring) -> tuple[frozenset, ...]:
    """Keys of gamma^p over all units gamma, at each level 1..kappa_cap.

    Every unit mod pi^kappa_cap is enumerated as sum_i d_i pi^i with d_0 in
    1..p-1 and d_i in 0..p-1.
    """
    p, m, e = ring.p, ring.m, ring.e
    top = kappa_cap(p, m)
    precision = top // e + 1  # e * precision > top, so p^precision lies in pi^top
    pi = LocalCycloElement.pi(p, m, precision)
    pi_powers = [LocalCycloElement(p, m, precision, [1])]
    for _ in range(top - 1):
        pi_powers.append(pi_powers[-1] * pi)
    keys = set()
    for digits in iter_product(range(1, p), *([range(p)] * (top - 1))):
        gamma_coeffs = [0] * e
        for digit, power in zip(digits, pi_powers):
            if digit:
                gamma_coeffs = [a + digit * b for a, b in zip(gamma_coeffs, power.coeffs)]
        gamma_p = LocalCycloElement(p, m, precision, gamma_coeffs) ** p
        keys.add(ring.key(ring.t_basis(gamma_p.coeffs, p**precision), top))
    return tuple(frozenset(ring.key(c, level) for c in keys) for level in range(1, top + 1))
