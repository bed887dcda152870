"""Decision core for infinite-class-tower candidates.

A candidate is a triple (p, m, h): the ramified prime p, the conductor p^m,
and the prime degree h of a cyclic unramified extension of the cyclotomic
field, with h read off the relative class number. Whether p divides the class
number of that extension is not computable at this scale, so both sufficient
conditions are always evaluated and a candidate only counts as verified when
both branches pass.

Both conditions are one inequality, Golod-Safarevic's h1^2 - 4 h1 >= 4 (r1 + r2),
taken at two totally complex fields (r1 = 0), and read from one integer slack,
``_gs_slack``. Condition I takes it at (f, 0, h phi(p^m) / 2): the slack is
f^2 - 4f - 2 h phi(p^m). Condition II takes it at (h, 0, p phi(p^m) h / 2),
the degree-p Kummer layer over the degree-h extension: the slack is
h (h - 4 - 2 p phi(p^m)), whose positive root 2 phi(p^{m+1}) + 4 is bound_II.

``TowerCandidate.build`` is the one check of (p, m, h). ``verify_candidate``
trusts it, and its flat ``CriterionReport`` carries margin_i and bound_ii directly.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .arith import FactoredInteger, _order_dividing, check_exponent, factorize, is_prime
from .bernoulli import is_regular_prime

if TYPE_CHECKING:
    from fractions import Fraction


class TowerCandidate(NamedTuple):
    """(p, m, h) with the derived quantities used by both conditions.

    f is the multiplicative order of p mod h; phi_pm = phi(p^m) = p^m - p^(m-1),
    read off p and m once ``check_exponent`` has admitted p as prime and m >= 1.
    """

    p: int
    m: int
    h: int
    f: int
    phi_pm: int
    h_minus: FactoredInteger

    @classmethod
    def build(cls, p: int, m: int, h: int, h_minus: FactoredInteger) -> "TowerCandidate":
        check_exponent(p, m)
        # h_minus certified each listed prime and the complete factorization, so
        # h is listed exactly when h is prime and divides h^-
        if h not in h_minus.primes:
            if not is_prime(h):
                raise ValueError(f"degree h = {h} is not prime")
            raise ValueError(f"h = {h} does not divide h^- = {h_minus.value}")
        if p == h:
            raise ValueError("h = p has no multiplicative order f")
        # h is proven prime, so p^(h - 1) = 1 (mod h): f is the least divisor
        # of h - 1 that works, found without factoring h
        f = _order_dividing(p, h, h - 1, factorize(h - 1).primes)
        return cls(p, m, h, f, p**m - p ** (m - 1), h_minus)


class Conclusion(str, Enum):
    BOTH = "both-branches-pass"
    ONLY_I = "only-I"
    ONLY_II = "only-II"
    FAIL = "fail"


class CriterionReport(NamedTuple):
    candidate: TowerCandidate
    cond_i: bool
    margin_i: int  # (f^2 - 4f) - 2 h phi(p^m), sign-carrying
    cond_ii: bool
    bound_ii: int  # 2 phi(p^{m+1}) + 4, which h must reach
    regular_p: bool
    conclusion: Conclusion


def _gs_slack(h1: int, r1: int, twice_r2: int) -> int:
    """4 (h1^2/4 - h1 - (r1 + r2)), an integer even where r2 is a half-integer."""
    return h1 * h1 - 4 * h1 - 4 * r1 - 2 * twice_r2


def gs_margin(h1: int, r1: int, r2: int) -> Fraction:
    """h1^2/4 - h1 - (r1 + r2), the slack in the finiteness contradiction."""
    from fractions import Fraction  # on call only: the package itself never needs fractions

    return Fraction(_gs_slack(h1, r1, 2 * r2), 4)


def gs_forces_infinite(h1: int, r1: int, r2: int) -> bool:
    """True iff h1^2/4 - h1 >= r1 + r2.

    A finite maximal unramified p-extension would satisfy both
    h2 - h1 <= r1 + r2 and h2 > h1^2/4; the non-strict inequality here already
    contradicts that chain, so it is the exact boundary of the obstruction.
    """
    if min(h1, r1, r2) < 0:
        raise ValueError("inputs must be nonnegative")
    return _gs_slack(h1, r1, 2 * r2) >= 0


def verify_candidate(c: TowerCandidate) -> CriterionReport:
    """Evaluate regularity and both conditions; pass requires both branches.

    c is trusted as ``TowerCandidate.build`` made it: h a prime dividing h^-.
    The branch selector (whether p divides the class number of the degree-h
    extension) is out of computational reach, so a candidate is only reported
    as passing when either branch would do.
    """
    regular = is_regular_prime(c.p)
    margin_i = _gs_slack(c.f, 0, c.h * c.phi_pm)
    cond_i = regular and margin_i >= 0
    cond_ii = _gs_slack(c.h, 0, c.p * c.phi_pm * c.h) >= 0
    if cond_i and cond_ii:
        conclusion = Conclusion.BOTH
    elif cond_i:
        conclusion = Conclusion.ONLY_I
    elif cond_ii:
        conclusion = Conclusion.ONLY_II
    else:
        conclusion = Conclusion.FAIL
    return CriterionReport(c, cond_i, margin_i, cond_ii, 2 * c.p * c.phi_pm + 4, regular, conclusion)
