"""Reference oracles for is_prime, factorize, mult_order and rho, and the GL rank.

The package answers is_prime for n up to the trial bound from a sieve, and
above it runs only the Miller-Rabin bases n's size needs, with no trial
division first; ``miller_rabin`` is the earlier test, which divided n by the
13 bases and then ran all 13 on every n (or the bases it is given).

``strip_mult_order`` is the earlier mult_order: from phi(n) it strips each
prime while the congruence survives, one full-size exponentiation per step.
``abs_pollard_brent`` is the earlier rho, which multiplied by |x - y|.

The package finds the prime factors below the trial bound with one gcd
against the product of those primes. This earlier version steps a wheel
through every residue coprime to 30 up to the bound instead; the rho stage
after it is the same. It stays here so the tests can check that both versions
hand rho the same survivors and return the same factorization.

``gl_order`` and ``min_rank_l`` are the GL-rank bound: the least l with h
dividing |GL_l(F_p)|, which equals mult_order(p, h). No verdict reads it, so it
lives here, as an independent route to the multiplicative order.
"""

from __future__ import annotations

from math import gcd, isqrt

from towerforge.arith import (
    _MR_BASES,
    _MR_BOUND,
    _TRIAL_BOUND,
    FactoredInteger,
    _pollard_brent,
    euler_phi,
    factorize,
    is_prime,
    mult_order,
)
from towerforge.errors import FactorizationError


def miller_rabin(n: int, bases: tuple[int, ...] = _MR_BASES) -> bool:
    """Miller-Rabin on the given prime bases; deterministic with all 13 for 0 <= n < 3.3e24."""
    if n < 2:
        return False
    for p in bases:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
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


def wheel_factorize(n: int, *, rho_budget: int = 2_000_000) -> FactoredInteger:
    """Complete prime factorization of n >= 1 (the wheel version).

    Trial division below a fixed bound, then Brent-rho on the survivors, each
    certified prime before being recorded. Raises FactorizationError if the
    rho iteration budget runs out before the factorization is complete.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    value = n
    counts: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)  # steps through residues coprime to 30
    w = 0
    while d <= _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            counts[d] = counts.get(d, 0) + 1
            n //= d
        d += wheel[w]
        w = (w + 1) % 8
    if n > 1 and n <= _TRIAL_BOUND * _TRIAL_BOUND:
        # below the trial bound squared a survivor is automatically prime
        counts[n] = counts.get(n, 0) + 1
        n = 1

    budget = rho_budget
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m >= _MR_BOUND:
            raise FactorizationError(
                f"cofactor {m} exceeds the deterministic primality bound"
            )
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        root = isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        factor = None
        for c in range(1, 100):
            factor, used = _pollard_brent(m, c, budget)
            budget -= used
            if budget <= 0 and factor is None:
                raise FactorizationError(f"rho budget exhausted on composite cofactor {m}")
            if factor is not None:
                break
        if factor is None:
            raise FactorizationError(f"no rho split found for composite cofactor {m}")
        stack.extend((factor, m // factor))

    return FactoredInteger(value, tuple(sorted(counts.items())))


def strip_mult_order(a: int, n: int) -> int:
    """Least k >= 1 with a^k = 1 mod n, by stripping primes from phi(n) (the earlier loop)."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    t = euler_phi(n)
    for p in factorize(t).primes:
        while t % p == 0 and pow(a, t // p, n) == 1:
            t //= p
    return t


def abs_pollard_brent(n: int, c: int, budget: int, e: int = 2) -> tuple[int | None, int]:
    """Brent-cycle Pollard rho on y -> y^e + c mod n, multiplying by |x - y| (the earlier walk)."""
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
                q = q * abs(x - y) % n
            g = gcd(q, n)
            k += step
            used += step
            if used > budget:
                return None, used
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = ((ys * ys if e == 2 else pow(ys, e, n)) + c) % n
            g = gcd(abs(x - ys), n)
            used += 1
            if used > budget:
                return None, used
    return (g if g != n else None), used


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
