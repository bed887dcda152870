"""Reference oracles for is_prime and factorize: Miller-Rabin alone, and a wheel loop.

The package answers is_prime for n up to the trial bound from a sieve;
``miller_rabin`` is the earlier test that ran the 13 bases on every n.

The package finds the prime factors below the trial bound with one gcd
against the product of those primes. This earlier version steps a wheel
through every residue coprime to 30 up to the bound instead; the rho stage
after it is the same. It stays here so the tests can check that both versions
hand rho the same survivors and return the same factorization.
"""

from __future__ import annotations

from math import isqrt

from towerforge.arith import (
    _MR_BASES,
    _MR_BOUND,
    _TRIAL_BOUND,
    FactoredInteger,
    _pollard_brent,
    is_prime,
)
from towerforge.errors import FactorizationError


def miller_rabin(n: int) -> bool:
    """Deterministic Miller-Rabin on the 13 base primes, for 0 <= n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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
