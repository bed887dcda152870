"""Decision core for infinite-class-tower candidates.

A candidate is a triple (p, m, h): the ramified prime p, the conductor p^m,
and the prime degree h of a cyclic unramified extension of the cyclotomic
field, with h read off the relative class number. Whether p divides the class
number of that extension is not computable at this scale, so both sufficient
conditions are always evaluated and a candidate only counts as verified when
both branches pass.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .arith import FactoredInteger, _order_dividing, check_exponent, factorize, is_prime, mult_order
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
        if not is_prime(h):
            raise ValueError(f"degree h = {h} is not prime")
        if h_minus.value % h != 0:
            raise ValueError(f"h = {h} does not divide h^- = {h_minus.value}")
        if p == h:
            raise ValueError("h = p has no multiplicative order f")
        if p % h == 0:
            raise ValueError(f"{p} is not a unit mod {h}")
        check_exponent(p, m)
        # h is proven prime, so p^(h - 1) = 1 (mod h): f is the least divisor
        # of h - 1 that works, found without factoring h
        f = _order_dividing(p, h, h - 1, factorize(h - 1).primes)
        return cls(p, m, h, f, p**m - p ** (m - 1), h_minus)


class ConditionIVerdict(NamedTuple):
    holds: bool
    margin: int  # (f^2 - 4f) - 2 h phi(p^m), sign-carrying


class ConditionIIVerdict(NamedTuple):
    holds: bool
    bound: int  # 2 phi(p^{m+1}) + 4, which h must reach


class Conclusion(str, Enum):
    BOTH = "both-branches-pass"
    ONLY_I = "only-I"
    ONLY_II = "only-II"
    FAIL = "fail"


class CriterionReport(NamedTuple):
    candidate: TowerCandidate
    cond_i: ConditionIVerdict
    cond_ii: ConditionIIVerdict
    regular_p: bool
    conclusion: Conclusion


def check_condition_I(c: TowerCandidate, regular: bool) -> ConditionIVerdict:
    """Regularity of p together with f^2 - 4f >= 2 h phi(p^m)."""
    margin = c.f * c.f - 4 * c.f - 2 * c.h * c.phi_pm
    return ConditionIVerdict(regular and margin >= 0, margin)


def check_condition_II(c: TowerCandidate) -> ConditionIIVerdict:
    """h >= 2 phi(p^{m+1}) + 4, with phi(p^{m+1}) = (p - 1) p^m."""
    bound = 2 * (c.p - 1) * c.p**c.m + 4
    return ConditionIIVerdict(c.h >= bound, bound)


def gl_order(l: int, p: int) -> int:
    """|GL_l(F_p)| = (p^l - 1)(p^l - p)...(p^l - p^{l-1})."""
    if l < 1:
        raise ValueError("l must be >= 1")
    pl = p**l
    result = 1
    power = 1
    for _ in range(l):
        result *= pl - power
        power *= p
    return result


def min_rank_l(p: int, h: int) -> int:
    """Least l with h dividing |GL_l(F_p)|, for distinct primes p and h.

    Divisibility is decided mod h: |GL_l(F_p)| = p^{l(l-1)/2} prod_{j<=l}(p^j - 1),
    and the p-power part is never divisible by h, so only the running product
    of the (p^j - 1) matters. The result provably equals mult_order(p, h),
    which is asserted.
    """
    if not is_prime(p) or not is_prime(h):
        raise ValueError("p and h must be prime")
    if p == h:
        raise ValueError("p and h must be distinct")
    running = 1
    pl = 1
    l = 0
    while True:
        l += 1
        pl = pl * p % h
        running = running * (pl - 1) % h
        if running == 0:
            break
    assert l == mult_order(p, h)
    return l


def signature_of_L(c: TowerCandidate) -> tuple[int, int]:
    """Signature (r1, r2) of the degree-p Kummer layer over the extension of degree h.

    The field contains zeta_{p^m} with p^m >= 3, hence is totally complex:
    r1 = 0 and r2 = p * phi(p^m) * h / 2.
    """
    if c.p**c.m <= 2:
        raise ValueError("conductor must be >= 3 for a totally complex field")
    twice_r2 = c.p * c.phi_pm * c.h
    assert twice_r2 % 2 == 0
    return 0, twice_r2 // 2


def gs_margin(h1: int, r1: int, r2: int) -> Fraction:
    """h1^2/4 - h1 - (r1 + r2), the slack in the finiteness contradiction."""
    from fractions import Fraction  # on call only: the package itself never needs fractions

    return Fraction(h1 * h1, 4) - h1 - (r1 + r2)


def gs_forces_infinite(h1: int, r1: int, r2: int) -> bool:
    """True iff h1^2/4 - h1 >= r1 + r2.

    A finite maximal unramified p-extension would satisfy both
    h2 - h1 <= r1 + r2 and h2 > h1^2/4; the non-strict inequality here already
    contradicts that chain, so it is the exact boundary of the obstruction.
    """
    if min(h1, r1, r2) < 0:
        raise ValueError("inputs must be nonnegative")
    return h1 * h1 - 4 * h1 >= 4 * (r1 + r2)


def verify_candidate(c: TowerCandidate) -> CriterionReport:
    """Evaluate regularity and both conditions; pass requires both branches.

    The branch selector (whether p divides the class number of the degree-h
    extension) is out of computational reach, so a candidate is only reported
    as passing when either branch would do.
    """
    if not is_prime(c.h):
        raise ValueError(f"degree h = {c.h} is not prime")
    if c.h_minus.value % c.h != 0:
        raise ValueError(f"h = {c.h} does not divide h^- = {c.h_minus.value}")
    regular = is_regular_prime(c.p)
    cond_i = check_condition_I(c, regular)
    cond_ii = check_condition_II(c)
    if cond_i.holds and cond_ii.holds:
        conclusion = Conclusion.BOTH
    elif cond_i.holds:
        conclusion = Conclusion.ONLY_I
    elif cond_ii.holds:
        conclusion = Conclusion.ONLY_II
    else:
        conclusion = Conclusion.FAIL
    return CriterionReport(c, cond_i, cond_ii, regular, conclusion)
