"""Truncated arithmetic in the ramified local ring Z_p[zeta_{p^m}].

Elements are residues mod Phi_{p^m}(x) with coefficients carried mod p^N,
where N is an explicit per-element precision. The maximal ideal is generated
by pi = 1 - zeta, the ramification index is e = phi(p^m), and p = unit * pi^e.
Everything fixed by (p, m) lives in one cached ring context per ring, which
every element points to; precision stays per element, because dividing by pi
lowers it.

Valuations are read off the pi-power basis: substituting x = 1 - t rewrites an
element as sum c_j t^j with j < e, and the terms c_j pi^j have pairwise
distinct valuations e*v_p(c_j) + j, so the minimum is exact whenever it is
resolved by the carried precision (cap e*N).

The same basis gives a canonical residue mod pi^l. Write l = e*k + r with
0 <= r < e. An element is 0 mod pi^l iff every term has valuation >= l (the
valuations are distinct, so no two terms can cancel), i.e. iff
e*v_p(c_j) + j >= l, i.e. iff p^(k+1) | c_j for j < r and p^k | c_j for
j >= r. The c_j are Z-linear in the coefficients, so x = y mod pi^l iff the
c_j of x and y agree modulo those powers: the tuple of reduced c_j is the key
of x at level l. It needs N >= k + 1 (or k when r = 0).

The kappa invariant (deepest level l at which a unit is congruent to a p-th
power mod pi^l) is read from a table of the keys of all p-th powers of units,
built once per ring on first use. With l_max = kappa_cap(p, m), every unit
mod pi^l_max is enumerated as sum_{i < l_max} d_i pi^i with d_0 in 1..p-1 and
d_i in 0..p-1, and the key of gamma^p at level l_max is stored; lower levels
are the same keys reduced further. This is exact: units mod pi^l_max map onto
units mod pi^l, and gamma^p mod pi^l depends only on gamma mod pi^l, since
(gamma + pi^l d)^p = gamma^p mod pi^l. A non-unit gamma has v(gamma^p) >= p,
so it never matches a unit. The enumeration stays exhaustive, and it is
hard-limited to p in {2, 3}, m in {1, 2} and levels <= 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product as iter_product
from math import comb

from .cyclotomic import _poly_divmod_monic, _poly_mul, cyclo_poly
from .errors import CofactorError, PrecisionError


class AtCap:
    """Marker: valuation is at or beyond what the carried precision resolves."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "AT_CAP"


AT_CAP = AtCap()

_SEARCH_PRIMES = (2, 3)
_SEARCH_EXPONENTS = (1, 2)
_SEARCH_LEVEL_LIMIT = 8


class _LocalRing:
    """What the ring Z_p[zeta_{p^m}] fixes, shared by all its elements.

    One instance per (p, m), from ``_local_ring``; nothing changes it after
    construction except the lazy tables, which fill in on first use (a ring
    that only multiplies never needs the e^2 binomials).
    ``cofactor`` holds the coefficients b_j of p/pi: with Phi_{p^m} =
    sum_i a_i x^i, p = Phi(1) - Phi(zeta) = sum_i a_i (1 - zeta^i)
    = (1 - zeta) * sum_j b_j zeta^j, where b_j = sum_{i > j} a_i.
    """

    def __init__(self, p: int, m: int) -> None:
        self.p = p
        self.m = m
        self.phi = cyclo_poly(p**m)
        self.e = len(self.phi) - 1
        self.cofactor = tuple(sum(self.phi[j + 1 :]) for j in range(self.e))

    @cached_property
    def binomials(self) -> tuple[tuple[int, ...], ...]:
        """Row j holds (-1)^j C(i, j) for i < e: the substitution x = 1 - t."""
        return tuple(tuple((-1) ** j * comb(i, j) for i in range(self.e)) for j in range(self.e))

    def t_basis(self, coeffs, modulus: int) -> list[int]:
        """The c_j, each mod modulus, with sum_i coeffs[i] x^i = sum_j c_j (1 - x)^j."""
        return [sum(b * a for b, a in zip(row, coeffs)) % modulus for row in self.binomials]

    def key(self, c, level: int) -> tuple[int, ...]:
        """Canonical residue mod pi^level from t-basis coefficients c.

        c_j is reduced mod p^(k+1) for j < r and mod p^k for j >= r, where
        level = e*k + r; c must be known modulo those powers.
        """
        k, r = divmod(level, self.e)
        return tuple(cj % self.p ** (k + (j < r)) for j, cj in enumerate(c))

    @cached_property
    def pth_powers(self) -> tuple[frozenset, ...]:
        """Keys of gamma^p over all units gamma, at each level 1..kappa_cap."""
        p, m, e = self.p, self.m, self.e
        top = kappa_cap(p, m)
        precision = top // e + 1  # e * precision > top, so p^precision lies in pi^top
        pi = LocalCycloElement.pi(p, m, precision)
        pi_powers = [LocalCycloElement.from_int(1, p, m, precision)]
        for _ in range(top - 1):
            pi_powers.append(pi_powers[-1] * pi)
        keys = set()
        for digits in iter_product(range(1, p), *([range(p)] * (top - 1))):
            gamma_coeffs = [0] * e
            for digit, power in zip(digits, pi_powers):
                if digit:
                    gamma_coeffs = [a + digit * b for a, b in zip(gamma_coeffs, power.coeffs)]
            gamma_p = LocalCycloElement(p, m, precision, gamma_coeffs) ** p
            keys.add(self.key(self.t_basis(gamma_p.coeffs, p**precision), top))
        return tuple(frozenset(self.key(c, level) for c in keys) for level in range(1, top + 1))


@cache
def _local_ring(p: int, m: int) -> _LocalRing:
    return _LocalRing(p, m)


class LocalCycloElement:
    """Immutable residue mod (Phi_{p^m}(x), p^precision)."""

    __slots__ = ("p", "m", "precision", "coeffs", "ring")

    def __init__(self, p: int, m: int, precision: int, coeffs) -> None:
        if precision < 1:
            raise ValueError("precision must be >= 1")
        ring = _local_ring(p, m)
        e = ring.e
        pn = p**precision
        c = [int(x) for x in coeffs]
        if len(c) > e:
            _, c = _poly_divmod_monic(c, ring.phi)
        c = [x % pn for x in c]
        c += [0] * (e - len(c))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "coeffs", tuple(c[:e]))
        object.__setattr__(self, "ring", ring)

    def __setattr__(self, *_):
        raise AttributeError("LocalCycloElement is immutable")

    def __reduce__(self):
        # rebuild through __init__, which attaches the loading process's ring
        return (LocalCycloElement, (self.p, self.m, self.precision, self.coeffs))

    @property
    def e(self) -> int:
        """Ramification index phi(p^m)."""
        return self.ring.e

    @property
    def cap(self) -> int:
        return self.e * self.precision

    @classmethod
    def pi(cls, p: int, m: int, precision: int) -> "LocalCycloElement":
        """The uniformizer 1 - zeta."""
        return cls(p, m, precision, [1, -1])

    @classmethod
    def from_int(cls, value: int, p: int, m: int, precision: int) -> "LocalCycloElement":
        return cls(p, m, precision, [value])

    def _like(self, coeffs, precision: int | None = None) -> "LocalCycloElement":
        if precision is None:
            precision = self.precision
        return LocalCycloElement(self.p, self.m, precision, coeffs)

    def _check_compatible(self, other: "LocalCycloElement") -> None:
        if (self.p, self.m) != (other.p, other.m):
            raise ValueError("ring mismatch")

    def __add__(self, other: "LocalCycloElement") -> "LocalCycloElement":
        self._check_compatible(other)
        prec = min(self.precision, other.precision)
        return self._like([a + b for a, b in zip(self.coeffs, other.coeffs)], prec)

    def __sub__(self, other: "LocalCycloElement") -> "LocalCycloElement":
        self._check_compatible(other)
        prec = min(self.precision, other.precision)
        return self._like([a - b for a, b in zip(self.coeffs, other.coeffs)], prec)

    def __mul__(self, other: "LocalCycloElement") -> "LocalCycloElement":
        self._check_compatible(other)
        prec = min(self.precision, other.precision)
        return self._like(_poly_mul(self.coeffs, other.coeffs), prec)

    def __pow__(self, k: int) -> "LocalCycloElement":
        if k < 0:
            raise ValueError("negative powers are not defined at truncated precision")
        result = self._like([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocalCycloElement):
            return NotImplemented
        return (self.p, self.m, self.precision, self.coeffs) == (
            other.p,
            other.m,
            other.precision,
            other.coeffs,
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.precision, self.coeffs))

    def __repr__(self) -> str:
        return f"LocalCycloElement(p={self.p}, m={self.m}, N={self.precision}, {list(self.coeffs)})"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def reduce_precision(self, precision: int) -> "LocalCycloElement":
        if precision > self.precision:
            raise PrecisionError("cannot raise precision after truncation")
        return self._like(self.coeffs, precision)


def pi_valuation(element: LocalCycloElement) -> int | AtCap:
    """Exact pi-adic valuation, or AT_CAP when the precision cannot resolve it.

    Rejects elements that vanish at the carried precision: their valuation is
    only bounded below, never known.
    """
    if element.is_zero():
        raise ValueError("zero at the carried precision has no resolvable valuation")
    p, e = element.p, element.e
    best = element.cap
    for j, d in enumerate(element.ring.t_basis(element.coeffs, p**element.precision)):
        if d == 0:
            continue
        v = 0
        while d % p == 0:
            d //= p
            v += 1
        best = min(best, e * v + j)
    if best >= element.cap:
        return AT_CAP
    return best


def _pi_cofactor(p: int, m: int, precision: int) -> LocalCycloElement:
    """The element b with pi * b = p (closed form in ``_LocalRing``)."""
    return LocalCycloElement(p, m, precision, _local_ring(p, m).cofactor)


def divide_by_pi(element: LocalCycloElement, t: int = 1) -> LocalCycloElement:
    """Exact division by pi^t for an element of valuation >= t.

    Costs t units of p-adic precision: multiply by the cofactor (p/pi)^t, then
    strip the known factor p^t from every coefficient.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return element
    if element.precision <= t:
        raise PrecisionError(f"need precision > {t} to divide by pi^{t}")
    v = pi_valuation(element)
    if v is AT_CAP or v < t:
        raise ValueError(f"valuation {v} is below {t}; division is not exact")
    cofactor = _pi_cofactor(element.p, element.m, element.precision)
    scaled = element * cofactor**t
    pt = element.p**t
    assert all(c % pt == 0 for c in scaled.coeffs)
    return LocalCycloElement(
        element.p, element.m, element.precision - t, [c // pt for c in scaled.coeffs]
    )


def _enforce_search_domain(p: int, m: int, l_max: int) -> None:
    if p not in _SEARCH_PRIMES or m not in _SEARCH_EXPONENTS:
        raise ValueError(
            f"exhaustive kappa search is limited to p in {_SEARCH_PRIMES}, m in {_SEARCH_EXPONENTS}"
        )
    if l_max < 1 or l_max > min(p**m, _SEARCH_LEVEL_LIMIT):
        raise ValueError(f"l_max must be in [1, min(p^m, {_SEARCH_LEVEL_LIMIT})]")


def kappa(x: LocalCycloElement, l_max: int) -> int:
    """Largest l <= l_max such that x is a p-th power mod pi^l, by table lookup.

    The ring's table holds the key of every gamma^p mod pi^l over all units
    gamma (see the module docstring). Requires a unit x and l_max + e of
    resolvable valuation (safety margin of one ramification index), which
    also makes every key up to l_max well defined.
    """
    _enforce_search_domain(x.p, x.m, l_max)
    if x.cap < l_max + x.e:
        raise PrecisionError(
            f"precision resolves {x.cap}; need l_max + e = {l_max + x.e}"
        )
    if pi_valuation(x) != 0:
        raise ValueError("kappa is defined for units only")
    ring = x.ring
    c = ring.t_basis(x.coeffs, x.p**x.precision)
    best = 0
    for level, keys in enumerate(ring.pth_powers[:l_max], 1):
        if ring.key(c, level) not in keys:
            break
        best = level
    return best


@dataclass(frozen=True)
class KummerClass:
    """The pair the local discriminant of adjoining a p-th root depends on.

    v_mod_p is the pi-valuation mod p; kappa is populated only in the unit
    case (v_mod_p = 0), after the valuation has been absorbed into a p-th
    power of the uniformizer.
    """

    v_mod_p: int
    kappa: int | None


def kappa_cap(p: int, m: int) -> int:
    """Deepest level the enforced search bounds allow for this ring."""
    return min(p**m, _SEARCH_LEVEL_LIMIT)


def kummer_class(x: LocalCycloElement) -> KummerClass:
    """(v mod p, kappa), with the p-th-power part of the valuation absorbed."""
    v = pi_valuation(x)
    if v is AT_CAP:
        raise PrecisionError("valuation at cap; pick a higher precision")
    residue = v % x.p
    if residue != 0:
        return KummerClass(residue, None)
    unit = divide_by_pi(x, v)  # pi^v is the p-th power (pi^{v/p})^p here
    return KummerClass(0, kappa(unit, kappa_cap(x.p, x.m)))


def check_kummer_class_invariance(
    x_target: LocalCycloElement, cofactors: list[LocalCycloElement]
) -> bool:
    """Invariance of the Kummer class under multiplication by deep p-th powers.

    Every cofactor must be a unit that is a p-th power to the full searched
    depth; that precondition is reported distinctly when violated.
    """
    cap = kappa_cap(x_target.p, x_target.m)
    product = x_target
    for i, cofactor in enumerate(cofactors):
        x_target._check_compatible(cofactor)
        if pi_valuation(cofactor) != 0:
            raise CofactorError(f"cofactor {i} is not a unit")
        if kappa(cofactor, cap) != cap:
            raise CofactorError(f"cofactor {i} is not a p-th power to level {cap}")
        product = product * cofactor
    return kummer_class(product) == kummer_class(x_target)
