"""The regular-prime test, decided from integer tangent numbers.

Kummer's criterion (Washington, Introduction to Cyclotomic Fields): a prime
p is regular iff p divides the numerator of none of B_2, B_4, ..., B_{p-3};
p = 2 and 3 are regular vacuously. With the tangent numbers
T_n = tan^(2n-1)(0), B_{2n} = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)). For
1 <= n <= (p - 3)/2, p divides neither 2n < p nor 4^n, and B_{2n} is
p-integral by von Staudt-Clausen, since p - 1 does not divide 2n < p - 1.
So v_p(B_{2n}) = v_p(T_n) - v_p(4^n - 1) >= 0, and p divides the numerator
of B_{2n} exactly when v_p(T_n) > v_p(4^n - 1). Testing p | T_n alone would
be wrong: p divides T_n whenever 4^n = 1 (mod p); 31 divides both
T_5 = 7936 and 4^5 - 1 = 1023, and 31 is regular. The T_n come from Brent
and Harvey's integer recurrence ("Fast computation of Bernoulli, Tangent and
Secant numbers", 2011), which cannot be resumed, so a growing table
recomputes at least twice as many.
"""

from __future__ import annotations

from math import gcd

from .arith import is_prime

_tangents: tuple[int, ...] = (0,)  # (0, T_1, ..., T_N)


def _tangent_numbers(n: int) -> tuple[int, ...]:
    """(0, T_1, ..., T_N) with N >= n, by Brent and Harvey's O(N^2) recurrence."""
    global _tangents
    if n >= len(_tangents):
        n = max(n, 2 * (len(_tangents) - 1))
        t = [0, 1] + [0] * (n - 1)
        for k in range(2, n + 1):
            t[k] = (k - 1) * t[k - 1]
        for k in range(2, n + 1):
            for j in range(k, n + 1):
                t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
        _tangents = tuple(t)
    return _tangents


def is_regular_prime(p: int) -> bool:
    """Kummer's criterion: no v_p(T_n) > v_p(4^n - 1) for 1 <= n <= (p - 3)/2."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    t = _tangent_numbers((p - 3) // 2)
    # p gcd(4^n - 1, p^n) = p^(v_p(4^n - 1) + 1), since 0 < 4^n - 1 < p^n;
    # the mod-p test first skips that gcd for almost every n
    return all(t[n] % p != 0 or t[n] % (p * gcd(4**n - 1, p**n)) != 0 for n in range(1, (p - 1) // 2))
