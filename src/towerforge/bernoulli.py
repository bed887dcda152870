"""Exact Bernoulli numbers and the regular-prime test.

Convention B_1 = -1/2, as forced by the defining recurrence
sum_{j=0}^{k} C(k+1, j) B_j = 0. The table is built from the tangent numbers
T_n = tan^(2n-1)(0) by the integer-only in-place recurrence of Brent and
Harvey ("Fast computation of Bernoulli, Tangent and Secant numbers", 2011),
and B_{2n} = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)); the odd B_k, k >= 3, vanish.
That recurrence cannot be resumed, so a growing table recomputes it for at
least twice as many tangent numbers.

Regularity is decided by Kummer's criterion: p is regular iff p divides the
numerator of none of B_2, B_4, ..., B_{p-3}. Numerators are read off reduced
fractions, which is safe because von Staudt-Clausen keeps p out of the
denominators in that range.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime

_table: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def _tangent_numbers(n: int) -> list[int]:
    """[0, T_1, ..., T_n] by Brent and Harvey's O(n^2) integer recurrence."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def _extend(k: int) -> None:
    if k < len(_table):
        return
    # the table holds B_0..B_{2N+1} for N tangent numbers; at least double N
    n = max(k // 2, len(_table) - 2)
    t = _tangent_numbers(n)
    for i in range(len(_table) // 2, n + 1):
        four = 4**i
        _table.append(Fraction((-1) ** (i - 1) * 2 * i * t[i], four * (four - 1)))
        _table.append(Fraction(0))


def bernoulli(k: int) -> Fraction:
    """Exact B_k; memoized, computed from the tangent numbers."""
    if k < 0:
        raise ValueError("k must be >= 0")
    _extend(k)
    return _table[k]


@dataclass(frozen=True)
class BernoulliTable:
    """Immutable snapshot B_0..B_max_index."""

    max_index: int
    values: tuple[Fraction, ...]

    @classmethod
    def up_to(cls, max_index: int) -> "BernoulliTable":
        _extend(max_index)
        return cls(max_index, tuple(_table[: max_index + 1]))


def is_regular_prime(p: int) -> bool:
    """Kummer's criterion; p = 2 and 3 are regular vacuously (empty index range)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    _extend(max(p - 3, 0))
    return all(_table[k].numerator % p != 0 for k in range(2, p - 2, 2))
