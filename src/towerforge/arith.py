"""Exact integer arithmetic: primality, factorization, totient, multiplicative order,
and the one admission check for a conductor p^m (``admit_conductor``).

Everything here is deterministic. Primality up to 10^4 is read from a sieve of
Eratosthenes; above that it runs Miller-Rabin on the first k prime bases, k the
least index with n below psi_k, the least odd composite that passes the first k
(OEIS A014233; Jaeschke, Math. Comp. 61, 1993; Jiang and Deng, Math. Comp. 83,
2014; Sorenson and Webster, Math. Comp. 86, 2017). psi_13 = 3.3e24 is far above
any integer this package ever certifies, and inputs beyond it are rejected
rather than accepted probabilistically. A multiplicative order is found by one
ladder per prime of a known multiple of it (``_order_dividing``).
The CRT primes of the exact kernels have the form k 2^41 + 1 below 2^82, and
``pocklington_prime`` proves each of them with one exponentiation, by
Pocklington's N - 1 criterion.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from functools import cache
from math import gcd, isqrt, prod
from typing import NamedTuple

from .errors import BudgetExceededError, FactorizationError

# First 13 primes certify Miller-Rabin deterministically below this bound
# (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981
# psi_k, k = 1..13 (OEIS A014233): the least odd composite that is a strong
# probable prime to each of the first k bases. psi_1..psi_8 Jaeschke (1993),
# psi_9..psi_11 Jiang and Deng (2014), psi_12, psi_13 Sorenson and Webster (2017).
_MR_PSI = (
    2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
    341_550_071_728_321, 341_550_071_728_321, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
    _MR_BOUND,
)

_TRIAL_BOUND = 10_000

# ``pocklington_prime`` proves n = 1 (mod 2^41) below 2^82
_POCKLINGTON_BITS = 41
# the odd primes up to 73: Pocklington witnesses, and the sieve of the CRT prime walk
_SMALL_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 3.3e24.

    Up to the trial bound the answer is a lookup in the sieve of Eratosthenes.
    Above it, Miller-Rabin runs on the first k base primes, k the least index
    with n < psi_k (``_MR_PSI``). An odd composite below psi_k fails one of the
    first k bases, so True is a proof.

    No trial division by the bases comes first: Miller-Rabin rejects every n
    it would. An even n fails base 2, since s = 0 and 2^(n-1) mod n is even,
    so neither 1 nor n - 1. If a base b divides n, every x of b's round is
    0 mod b while 1 and n - 1 are not, so that round fails; and an odd n is
    an odd composite below psi_k, which one of the first k bases rejects.
    """
    if n >= _MR_BOUND:
        raise ValueError(f"{n} exceeds the deterministic certification bound {_MR_BOUND}")
    if n <= _TRIAL_BOUND:
        return n >= 2 and _trial_sieve()[n] == 1
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[: bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def pocklington_prime(n: int) -> bool:
    """True when n = 1 (mod 2^41), 1 < n < 2^82, is proven prime, by one exponentiation mod n.

    Proof (Pocklington's N - 1 criterion with F = 2^41; Brillhart, Lehmer and
    Selfridge, Math. Comp. 29, 1975). Let a^((n-1)/2) = -1 (mod n), and let q
    be a prime factor of n. q is odd, so a^((n-1)/2) = -1 is not 1 mod q,
    while a^(n-1) = 1: the order of a mod q divides n - 1 but not (n - 1)/2,
    so it holds the full power of 2 in n - 1, at least 2^41, and it divides
    q - 1. So q > 2^41 > sqrt(n) for every prime factor q, and n is prime,
    since a composite n has a prime factor at most sqrt(n). For n >= 2^82
    this proves nothing, so such n are refused (ValueError), as are n that
    are not 1 (mod 2^41) or not above 1.

    Witness. If n is prime and (a/n) = -1, Euler's criterion gives
    a^((n-1)/2) = -1 (mod n). For an odd prime a, reciprocity with
    n = 1 (mod 4) gives (a/n) = (n/a), which Euler's criterion mod a decides on
    small integers. The witness is the first a in ``_SMALL_ODD_PRIMES`` with
    (n/a) = -1, and a prime n always passes the exponentiation with it. So the
    answer is True exactly when n is prime, except that n is not certified
    (False) when no such a exists there: n is a square mod every one of them.
    """
    if not 1 < n < 1 << 2 * _POCKLINGTON_BITS or n % (1 << _POCKLINGTON_BITS) != 1:
        raise ValueError("Pocklington with F = 2^41 needs 1 < n < 2^82 and n = 1 (mod 2^41)")
    for a in _SMALL_ODD_PRIMES:
        if pow(n % a, (a - 1) // 2, a) == a - 1:
            return pow(a, n >> 1, n) == n - 1
    return False


class _FactoredFields(NamedTuple):
    value: int
    factors: tuple[tuple[int, int], ...]


class FactoredInteger(_FactoredFields):
    """A positive integer together with its complete prime factorization.

    ``factors`` is sorted by prime; every listed prime is re-certified at
    construction time and the product is checked against ``value``.
    """

    __slots__ = ()

    def __new__(cls, value: int, factors: tuple[tuple[int, int], ...]) -> FactoredInteger:
        if value < 1:
            raise ValueError("value must be positive")
        prod = 1
        prev = 0
        for p, e in factors:
            if e < 1:
                raise ValueError(f"exponent of {p} must be >= 1")
            if p <= prev:
                raise ValueError("factors must be sorted by strictly increasing prime")
            if not is_prime(p):
                raise ValueError(f"listed factor {p} is not prime")
            prod *= p**e
            prev = p
        if prod != value:
            raise ValueError(f"factors recompose to {prod}, not {value}")
        return super().__new__(cls, value, factors)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace certifies too

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(str(p) if e == 1 else f"{p}^{e}" for p, e in self.factors)


def _pollard_brent(n: int, c: int, budget: int, e: int = 2) -> tuple[int | None, int]:
    """Brent-cycle Pollard rho on y -> y^e + c mod n; returns (factor, used).

    ``used`` counts only the steps whose differences x - y feed the gcd
    (and each step of the one-at-a-time redo), whatever e is. Each doubling
    round first advances y by r steps that are not counted, so a walk
    evaluates y -> y^e + c up to 3 times ``used`` times, and twice as often
    or more unless the redo runs long: with c = 1, 1,022 times for
    used = 511 on 1000003 * 1000033, and 204,670 times for used = 73,599 on
    6252002011 * 922099242709. q multiplies x - y, not |x - y|, so each q
    is +-(that product) mod n and every gcd is the same.
    """
    y, r, q = 2, 1, 1
    g = 1
    used = 0
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = ((y * y if e == 2 else pow(y, e, n)) + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            step = min(128, r - k)
            for _ in range(step):
                y = ((y * y if e == 2 else pow(y, e, n)) + c) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            k += step
            used += step
            if used > budget:
                return None, used
        r *= 2
    if g == n:
        # Batched gcd overshot; redo the last block one step at a time.
        g = 1
        while g == 1:
            ys = ((ys * ys if e == 2 else pow(ys, e, n)) + c) % n
            g = gcd(x - ys, n)
            used += 1
            if used > budget:
                return None, used
    return (g if g != n else None), used


@cache
def _trial_sieve() -> bytes:
    """sieve[n] = 1 exactly when n <= the trial bound is prime (Eratosthenes)."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (_TRIAL_BOUND - 1)
    for i in range(2, isqrt(_TRIAL_BOUND) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(sieve[i * i :: i]))
    return bytes(sieve)


@cache
def _trial_primes() -> tuple[int, tuple[int, ...]]:
    """The product of the primes up to the trial bound, and those primes."""
    primes = tuple(d for d, flag in enumerate(_trial_sieve()) if flag)
    return prod(primes), primes


def factorize(
    n: int, *, rho_budget: int = 2_000_000, norms: Sequence[tuple[int, int]] = ()
) -> FactoredInteger:
    """Complete prime factorization of n >= 1.

    Trial division below a fixed bound, by one gcd with the product of the
    primes there, then Brent-rho on the survivors, each certified prime
    before being recorded. Raises FactorizationError if ``rho_budget`` runs
    out before the factorization is complete. The budget is spent as
    ``_pollard_brent`` counts ``used``, summed over every walk: the steps
    whose differences feed a gcd, not every evaluation of the map, of which
    a walk makes about 2 to 3 times as many.

    ``norms`` are pairs (d, N_d), N_d the norm of an element of Z[zeta_d]:
    for n = h^-, its orbit norms Res(Phi_d, W) (``characters.orbit_norms``),
    whose product every prime factor of h^- other than 2 and p divides. A
    composite below the primality bound is then split by its gcd with each
    N_d before any rho, and otherwise walked on x^(2d) + c for the largest d
    with N_d = 0 mod it (x^2 + c if there is none). Both only propose
    divisors: every factor is still certified by ``is_prime`` and recomposed
    by ``FactoredInteger``, so norms change the speed and never the
    factorization. The walk is faster because a prime l not dividing d
    divides a norm N(alpha), alpha in Z[zeta_d], to a multiple of the residue
    degree f = ord_d(l): each prime above l has norm l^f. A prime dividing
    N_d exactly once thus has l = 1 (mod d), and x -> x^(2d) maps F_l^* onto
    a subgroup of index gcd(2d, l - 1) >= d, which cuts rho's expected walk,
    the square root of the image's size, by about sqrt(d) (Brent and
    Pollard, Math. Comp. 36, 1981).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    value = n
    counts: dict[int, int] = {}
    # one gcd against the product of the primes up to the trial bound finds
    # every small prime factor; g is squarefree, so once d^2 > g, g is prime
    product, primes = _trial_primes()
    g = gcd(n, product)
    small = []
    for d in primes:
        if d * d > g:
            break
        if g % d == 0:
            g //= d
            small.append(d)
    if g > 1:
        small.append(g)
    for d in small:
        while n % d == 0:
            counts[d] = counts.get(d, 0) + 1
            n //= d
    if n > 1 and n <= _TRIAL_BOUND * _TRIAL_BOUND:
        # below the trial bound squared a survivor is automatically prime
        counts[n] = counts.get(n, 0) + 1
        n = 1

    budget = rho_budget
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m >= _MR_BOUND:
            try:
                name = str(m)
            except ValueError:  # more digits than int-to-str converts
                name = f"of {m.bit_length()} bits"
            raise FactorizationError(f"cofactor {name} exceeds the deterministic primality bound")
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        root = isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        piece = next((g for g in (gcd(m, norm) for _, norm in norms) if 1 < g < m), None)
        if piece is not None:
            stack.extend((piece, m // piece))
            continue
        e = 2 * max((d for d, norm in norms if norm % m == 0), default=1)
        factor = None
        for c in range(1, 100):
            factor, used = _pollard_brent(m, c, budget, e)
            budget -= used
            if budget <= 0 and factor is None:
                raise FactorizationError(f"rho budget exhausted on composite cofactor {m}")
            if factor is not None:
                break
        if factor is None:
            raise FactorizationError(f"no rho split found for composite cofactor {m}")
        stack.extend((factor, m // factor))

    return FactoredInteger(value, tuple(sorted(counts.items())))


def euler_phi(n: int) -> int:
    """Euler totient, via the factorization of n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result = n
    for p in factorize(n).primes:
        result -= result // p
    return result


def mult_order(a: int, n: int) -> int:
    """Least k >= 1 with a^k = 1 mod n: ``_order_dividing`` on phi(n).

    phi(n) = prod p^(e-1) (p - 1) over the p^e exactly dividing n, so its primes,
    those of each p - 1 and each p with e >= 2, come without factoring phi(n).
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    phi = 1
    primes: set[int] = set()
    for p, e in factorize(n).factors:
        phi *= p ** (e - 1) * (p - 1)
        primes.update(factorize(p - 1).primes)
        if e > 1:
            primes.add(p)
    return _order_dividing(a, n, phi, primes)


def _order_dividing(a: int, n: int, t: int, primes: Iterable[int]) -> int:
    """Least k | t with a^k = 1 mod n, given a^t = 1 mod n and primes holding every prime of t.

    For each prime power r^e exactly dividing t: drop it from t, then climb
    y = a^t, y^r, y^(r^2), ... until y = 1, putting back one r per step. That
    is one full-size exponentiation per prime of t. The order k divides t
    throughout, so with r removed a^(t r^j) = 1 exactly when r^j holds the
    r-part of k, and t ends at k. A listed r that does not divide t leaves t
    as it is.
    """
    for r in primes:
        while t % r == 0:
            t //= r
        y = pow(a, t, n)
        while y != 1:
            y = pow(y, r, n)
            t *= r
    return t


def _least_witness(n: int, order: int, primes: Sequence[int]) -> int:
    """Least g in [2, n) prime to n with no g^(order/r) = 1 (mod n) for r in primes.

    In a cyclic (Z/n)^* of that order, g^(order/k) has exact order k if primes are those of k | order.
    """
    for g in range(2, n):
        if gcd(g, n) == 1 and all(pow(g, order // r, n) != 1 for r in primes):
            return g
    raise ArithmeticError(f"no g below {n} passes for the primes {primes} of {order}")


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p^k if n is a prime power, else None."""
    if n < 2:
        return None
    f = factorize(n)
    if len(f.factors) == 1:
        return f.factors[0]
    return None


def check_exponent(p: int, m: int) -> None:
    """Raise ValueError unless p is prime and m >= 1, before p^m is formed."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("m must be >= 1")


def _over_by_bits(p: int, m: int, bound: int) -> bool:
    """True only when p^m > max(bound, 2), read off bit lengths without forming p^m.

    p^m >= 2^(m (bitlen p - 1)), and bound < 2^bitlen(bound); False decides nothing.
    """
    return m * (p.bit_length() - 1) > bound.bit_length() + 1


def admit_conductor(p: int, m: int, budget: int | None = None) -> int:
    """The conductor p^m, admitted by the one check every caller shares.

    In order: p is prime and m >= 1 (``check_exponent``); with a budget, a
    p^m over it by bit length alone is refused before it is formed;
    p^m >= 3, since conductor 2 has no odd characters (ValueError); and
    p^m <= budget. A refusal over budget raises BudgetExceededError naming
    the conductor by ``conductor_label``.
    """
    check_exponent(p, m)
    if budget is None or not _over_by_bits(p, m, budget):
        q = p**m
        if q <= 2:
            raise ValueError(f"conductor {q} has no odd characters; h^- is trivially 1")
        if budget is None or q <= budget:
            return q
    raise BudgetExceededError(f"conductor {conductor_label(p, m)} exceeds budget {budget}")


# int-to-str converts at most 4300 digits by default
_DECIMAL_BOUND = 10**4300


def conductor_label(p: int, m: int) -> int | str:
    """p^m, or the text "p^m" where int-to-str would refuse its decimal form.

    A p^m that is longer than any convertible integer by its bit length alone
    is named without being formed.
    """
    if not _over_by_bits(p, m, _DECIMAL_BOUND):
        q = p**m
        try:
            str(q)
            return q
        except ValueError:  # more digits than int-to-str converts
            pass
    return f"{p}^{m}"
