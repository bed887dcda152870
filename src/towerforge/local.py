"""Truncated arithmetic in the ramified local ring Z_p[zeta_{p^m}].

Elements are residues mod Phi_{p^m}(x) = sum_{k<p} x^(k p^(m-1)) with
coefficients carried mod p^N, where N is an explicit per-element precision.
The maximal ideal is generated by pi = 1 - zeta, the ramification index is
e = phi(p^m), and p = unit * pi^e.
Everything fixed by (p, m) lives in one cached ring context per ring, which
every element looks up by its (p, m) instead of holding a reference to it;
precision stays per element, because dividing by pi lowers it.

Valuations are read off the pi-power basis: substituting x = 1 - t (a Taylor
shift by Horner's rule, O(e^2) additions mod p^N; von zur Gathen and Gerhard,
ISSAC 1997) rewrites an element as sum c_j t^j with j < e, and the terms
c_j pi^j have pairwise distinct valuations e*v_p(c_j) + j, so the minimum is
exact, and for every element that is non-zero at the carried precision it
lies below the cap e*N (see ``pi_valuation``).

The same basis gives a canonical residue mod pi^l. Write l = e*k + r with
0 <= r < e. An element is 0 mod pi^l iff every term has valuation >= l (the
valuations are distinct, so no two terms can cancel), i.e. iff
e*v_p(c_j) + j >= l, i.e. iff p^(k+1) | c_j for j < r and p^k | c_j for
j >= r. The c_j are Z-linear in the coefficients, so x = y mod pi^l iff the
c_j of x and y agree modulo those powers: the tuple of reduced c_j is the key
of x at level l. It needs N >= k + 1 (or k when r = 0).

A unit is read off its coefficient sum: as zeta = 1 (mod pi),
x = sum c_i zeta^i = sum c_i (mod pi), and O/pi = F_p, so x is a unit exactly
when its coefficient sum is prime to p, at every precision; zero is a
non-unit like any other.

The kappa invariant (deepest level l at which a unit is congruent to a p-th
power mod pi^l) is read from a table of the keys of all p-th powers of units,
built once per ring on first use. With top = kappa_cap(p, m), the table holds
the key of gamma^p at level top for every unit gamma mod pi^top; lower levels
are the same keys reduced further. This is exact: units mod pi^top map onto
units mod pi^l, and gamma^p mod pi^l depends only on gamma mod pi^l, since
(gamma + pi^l d)^p = gamma^p mod pi^l. A non-unit gamma has v(gamma^p) >= p,
so it never matches a unit.

The keys are found as a subgroup closure, not by enumerating units. The
ramification is total and the residue field is F_p, so every unit of
O/pi^top is d*u with d in 1..p-1 and u = 1 mod pi, and U^i/U^(i+1) (units
= 1 mod pi^i, modulo those = 1 mod pi^(i+1)) is F_p, generated by 1 + pi^i.
So the finite abelian group (O/pi^top)^* is generated by the classes of
2..p-1 and of 1 + pi^i for 1 <= i < top, and the image of the homomorphism
gamma -> gamma^p is generated by their p-th powers. Starting from {1} and
multiplying every new element by each generator until no new key appears
reaches every product of generators; in a finite group every inverse is a
positive power, so that is the whole image. The search stays hard-limited to
p in {2, 3}, m in {1, 2} and levels <= 8.
"""

from __future__ import annotations

from functools import cache, cached_property
from operator import index
from typing import NamedTuple

from .arith import check_exponent
from .cyclotomic import _fold, _poly_mul
from .errors import CofactorError, PrecisionError


_SEARCH_PRIMES = (2, 3)
_SEARCH_EXPONENTS = (1, 2)
_SEARCH_LEVEL_LIMIT = 8


class _LocalRing:
    """What the ring Z_p[zeta_{p^m}] fixes, shared by all its elements.

    One instance per (p, m), from ``_local_ring``; nothing changes it after
    construction except the lazy kappa table, which fills in on first use.
    With s = p^(m-1), Phi_p(x^s) = sum_{k<p} x^(k s) is monic of degree
    e = (p - 1) s and vanishes exactly at the x with x^(p s) = 1 != x^s, the
    e primitive p^m-th roots of unity, so it is Phi = Phi_{p^m}.
    ``reduce`` takes c mod Phi by ``cyclotomic._fold(c, p^m)``: mod
    x^(p^m) - 1 for odd p, mod x^(p^m/2) + 1 = x^e + 1 = Phi for p = 2, both
    multiples of Phi. For odd p that leaves e + s terms, and x^t Phi = 0 gives
    x^(e+t) = -sum_{k<p-1} x^(k s + t) for t < s, of degree < e: one block
    step leaves the residue.
    ``cofactor`` holds the coefficients b_j of p/pi: with Phi = sum_i a_i x^i,
    p = Phi(1) - Phi(zeta) = sum_i a_i (1 - zeta^i)
    = (1 - zeta) * sum_j b_j zeta^j, where b_j = sum_{i > j} a_i counts the
    k s in (j, e]: b_j = p - 1 - floor(j / s).
    """

    def __init__(self, p: int, m: int) -> None:
        self.p = p
        self.m = m
        self.s = p ** (m - 1)
        self.e = (p - 1) * self.s
        self.cofactor = tuple(p - 1 - j // self.s for j in range(self.e))

    def reduce(self, c: list) -> list:
        """The e coefficients of c mod Phi_{p^m}, by the fold and one block step."""
        e, s = self.e, self.s
        c = _fold(c, self.p * s)
        for t, top in enumerate(c[e:]):
            for i in range(t, e, s):
                c[i] -= top
        return c[:e]

    def t_basis(self, coeffs, modulus: int) -> list[int]:
        """The c_j mod modulus with sum_i coeffs[i] x^i = sum_j c_j (1 - x)^j, by Horner's rule."""
        c: list[int] = []
        for a in reversed(coeffs):  # c(t) <- c(t) (1 - t) + a, with t = 1 - x
            c = [(x - y) % modulus for x, y in zip(c + [0], [-a] + c)]
        return c

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

        def top_key(x):
            return self.key(self.t_basis(x.coeffs, p**precision), top)

        pi = LocalCycloElement.pi(p, m, precision)
        one = LocalCycloElement(p, m, precision, [1])
        units = [LocalCycloElement(p, m, precision, [d]) for d in range(2, p)]
        units += [one + pi**i for i in range(1, top)]
        generators = [unit**p for unit in units]
        reached = {top_key(one)}
        frontier = [one]
        while frontier:
            products = {top_key(y): y for y in (x * g for x in frontier for g in generators)}
            frontier = [y for k, y in products.items() if k not in reached]
            reached.update(products)
        return tuple(frozenset(self.key(c, level) for c in reached) for level in range(1, top + 1))


@cache
def _local_ring(p: int, m: int) -> _LocalRing:
    check_exponent(p, m)
    return _LocalRing(p, m)


class _ElementFields(NamedTuple):
    p: int
    m: int
    precision: int
    coeffs: tuple[int, ...]


class LocalCycloElement(_ElementFields):
    """Immutable residue mod (Phi_{p^m}(x), p^precision)."""

    __slots__ = ()

    def __new__(cls, p: int, m: int, precision: int, coeffs) -> LocalCycloElement:
        precision = index(precision)
        if precision < 1:
            raise ValueError("precision must be >= 1")
        ring = _local_ring(p, m)
        e = ring.e
        pn = p**precision
        c = list(map(index, coeffs))
        if len(c) > e:
            c = ring.reduce(c)
        c = [x % pn for x in c]
        c += [0] * (e - len(c))
        return super().__new__(cls, p, m, precision, tuple(c))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace normalises too

    def __rmul__(self, other):  # int * element is a TypeError, not a tuple repetition
        return NotImplemented

    @property
    def ring(self) -> _LocalRing:
        return _local_ring(self.p, self.m)

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

    def _like(self, coeffs, precision: int | None = None) -> "LocalCycloElement":
        if precision is None:
            precision = self.precision
        return LocalCycloElement(self.p, self.m, precision, coeffs)

    def _check_compatible(self, other: "LocalCycloElement") -> None:
        if (self.p, self.m) != (other.p, other.m):
            raise ValueError("ring mismatch")

    def _combine(self, other, symbol: str, op) -> "LocalCycloElement":
        """op on both coefficient tuples, at the lower precision.

        A non-element on the right is a TypeError, worded as Python words it.
        Returning NotImplemented would hand ``x * (1, 2)`` to tuple repetition,
        which refuses it as "can't multiply sequence by non-int" instead.
        """
        if not isinstance(other, LocalCycloElement):
            raise TypeError(
                f"unsupported operand type(s) for {symbol}: "
                f"'LocalCycloElement' and '{type(other).__name__}'"
            )
        self._check_compatible(other)
        return self._like(op(self.coeffs, other.coeffs), min(self.precision, other.precision))

    def __add__(self, other: "LocalCycloElement") -> "LocalCycloElement":
        return self._combine(other, "+", lambda a, b: [x + y for x, y in zip(a, b)])

    def __sub__(self, other: "LocalCycloElement") -> "LocalCycloElement":
        return self._combine(other, "-", lambda a, b: [x - y for x, y in zip(a, b)])

    def __mul__(self, other: "LocalCycloElement") -> "LocalCycloElement":
        return self._combine(other, "*", _poly_mul)

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

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def pi_valuation(element: LocalCycloElement) -> int:
    """Exact pi-adic valuation, always below the cap e*N.

    The Taylor shift x = 1 - t is invertible over Z/p^N (its matrix is
    triangular with diagonal entries +-1), so an element that is non-zero at
    precision N has some c_j != 0 mod p^N. Then v_p(c_j) <= N - 1 and
    e*v_p(c_j) + j <= e*N - 1 < cap. Rejects elements that vanish at the
    carried precision: their valuation is only bounded below, never known.
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
    return best


def divide_by_pi(element: LocalCycloElement, t: int = 1) -> LocalCycloElement:
    """Exact division by pi^t for an element of valuation >= t.

    Costs c = ceil(t/e) digits; N <= c is refused first. x, lifted to
    precision N - c + t, is multiplied by its ring's cofactor (p/pi)^t
    (``_LocalRing.cofactor``) and p^t is stripped from every coefficient.
    A lift moves x by p^N y, the quotient by p^(N-t) y (p/pi)^t, of valuation
    e N - t >= e (N - c): it is exact at precision N - c. The power basis is
    a Z_p-basis of O, so when pi^t | x, x (p/pi)^t = p^t (x/pi^t) lies in
    p^t O and p^t divides every coefficient. When v = v(x) < t (< e N, as in
    every lift), x (p/pi)^t has valuation e t - (t - v) < e t and some
    coefficient is not divisible by p^t. ``pi_valuation`` only words the refusal.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return element
    cost = -(-t // element.e)
    if element.precision <= cost:
        raise PrecisionError(f"need precision > {cost} to divide by pi^{t}")
    cofactor = element._like(element.ring.cofactor, element.precision - cost + t) ** t
    scaled = cofactor._like(_poly_mul(element.coeffs, cofactor.coeffs))
    pt = element.p**t
    if element.is_zero() or any(c % pt for c in scaled.coeffs):
        raise ValueError(f"valuation {pi_valuation(element)} is below {t}; division is not exact")
    return element._like([c // pt for c in scaled.coeffs], element.precision - cost)


def check_kappa_domain(p: int, m: int, l_max: int) -> None:
    """Refuse (p, m, l_max) outside the p-th-power table's rings and levels (ValueError).

    Runs before p^m is formed. The first refusal still reads "exhaustive kappa
    search", as the ``kappa`` subcommand prints it and the CLI tests pin it.
    """
    if p not in _SEARCH_PRIMES or m not in _SEARCH_EXPONENTS:
        raise ValueError(
            f"exhaustive kappa search is limited to p in {_SEARCH_PRIMES}, m in {_SEARCH_EXPONENTS}"
        )
    if l_max < 1 or l_max > kappa_cap(p, m):
        raise ValueError(f"l_max must be in [1, min(p^m, {_SEARCH_LEVEL_LIMIT})]")


def kappa_precision(p: int, m: int, l_max: int) -> int:
    """One above the least precision N with e N >= l_max + e, which ``kappa`` needs."""
    e = (p - 1) * p ** (m - 1)
    return (l_max + 2 * e - 1) // e + 1


def kappa(x: LocalCycloElement, l_max: int) -> int:
    """Largest l <= l_max such that x is a p-th power mod pi^l, by table lookup.

    The ring's table holds the key of every gamma^p mod pi^l over all units
    gamma (see the module docstring). Requires l_max + e of resolvable
    valuation (safety margin of one ramification index), which also makes
    every key up to l_max well defined, and a unit x, read off its
    coefficient sum (see the module docstring).
    """
    check_kappa_domain(x.p, x.m, l_max)
    if x.cap < l_max + x.e:
        raise PrecisionError(
            f"precision resolves {x.cap}; need l_max + e = {l_max + x.e}"
        )
    if sum(x.coeffs) % x.p == 0:
        raise ValueError("kappa is defined for units only")
    ring = x.ring
    c = ring.t_basis(x.coeffs, x.p**x.precision)
    best = 0
    for level, keys in enumerate(ring.pth_powers[:l_max], 1):
        if ring.key(c, level) not in keys:
            break
        best = level
    return best


class KummerClass(NamedTuple):
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
    residue = v % x.p
    if residue != 0:
        return KummerClass(residue, None)
    unit = divide_by_pi(x, v)  # pi^v is the p-th power (pi^{v/p})^p here
    return KummerClass(0, kappa(unit, kappa_cap(x.p, x.m)))


def check_kummer_class_invariance(
    x_target: LocalCycloElement, cofactors: list[LocalCycloElement]
) -> bool:
    """Invariance of the Kummer class under multiplication by deep p-th powers.

    Every cofactor must be a unit, read off its coefficient sum (see the
    module docstring), that is a p-th power to the full searched depth; that
    precondition is reported distinctly when violated.
    """
    cap = kappa_cap(x_target.p, x_target.m)
    product = x_target
    for i, cofactor in enumerate(cofactors):
        x_target._check_compatible(cofactor)
        if sum(cofactor.coeffs) % cofactor.p == 0:
            raise CofactorError(f"cofactor {i} is not a unit")
        if kappa(cofactor, cap) != cap:
            raise CofactorError(f"cofactor {i} is not a p-th power to level {cap}")
        product = product * cofactor
    return kummer_class(product) == kummer_class(x_target)
