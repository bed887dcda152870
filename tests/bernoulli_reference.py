"""Reference oracle for the Bernoulli table: the defining recurrence.

sum_{j=0}^{k} C(k+1, j) B_j = 0, solved for B_k one index at a time in exact
fractions. That costs O(k) Fraction operations per index. The package builds
its table from integer tangent numbers instead; this slower definition stays
here so the tests can check the table against it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

_table: list[Fraction] = [Fraction(1)]


def _extend(k: int) -> None:
    while len(_table) <= k:
        j = len(_table)
        acc = Fraction(0)
        for i, b in enumerate(_table):
            if b:
                acc += comb(j + 1, i) * b
        _table.append(-acc / (j + 1))


def recurrence_bernoulli(k: int) -> Fraction:
    """Exact B_k by the defining recurrence."""
    _extend(k)
    return _table[k]
