"""The tangent-number table and the regular-prime test.

The package keeps no Bernoulli numbers; the tests rebuild B_{2n} from its
tangent numbers by B_{2n} = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)) and compare
them with independent oracles.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from bernoulli_reference import recurrence_bernoulli
from towerforge.arith import is_prime
from towerforge.bernoulli import _tangent_numbers, is_regular_prime

ROOT = Path(__file__).resolve().parent.parent


def bernoulli(k):
    """B_k (B_1 = -1/2) from the package's tangent numbers; odd k >= 3 give 0."""
    if k < 2:
        return (Fraction(1), Fraction(-1, 2))[k]
    if k % 2:
        return Fraction(0)
    n = k // 2
    return Fraction((-1) ** (n - 1) * 2 * n * _tangent_numbers(n)[n], 4**n * (4**n - 1))


def valuation(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def akiyama_tanigawa(n):
    """Independent oracle: B_0..B_n via the Akiyama-Tanigawa transform.

    This yields the B_1 = +1/2 convention; all other indices agree with the
    recurrence convention used by the package.
    """
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


KNOWN_REGULAR = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 43, 47]
KNOWN_IRREGULAR = [37, 59, 67, 101, 103]
PRIMES_BELOW_1200 = [p for p in range(2, 1200) if is_prime(p)]


class TestBernoulli:
    def test_base_values(self):
        assert _tangent_numbers(6)[:7] == (0, 1, 2, 16, 272, 7936, 353792)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(12) == Fraction(-691, 2730)
        assert 2730 == 2 * 3 * 5 * 7 * 13

    def test_against_akiyama_tanigawa(self):
        oracle = akiyama_tanigawa(60)
        for k in range(2, 61, 2):
            assert bernoulli(k) == oracle[k], k

    def test_odd_vanish(self):
        # the even B_k from the tangent numbers, B_1 = -1/2 and B_k = 0 at odd
        # k >= 3 solve sum_{j=0}^{k} C(k+1, j) B_j = 0, which fixes each B_k
        for k in range(1, 61):
            assert sum(comb(k + 1, j) * bernoulli(j) for j in range(k + 1)) == 0, k

    def test_von_staudt_clausen_denominators(self):
        for k in range(2, 61, 2):
            expected = 1
            for q in range(2, k + 2):
                if is_prime(q) and k % (q - 1) == 0:
                    expected *= q
            assert bernoulli(k).denominator == expected

    def test_negative_rejected(self):
        for p in (-7, -2, -1, 0, 1):
            with pytest.raises(ValueError):
                is_regular_prime(p)


class TestBernoulliTable:
    def test_snapshot(self):
        # the shared table is an immutable tuple of ints that only grows
        table = _tangent_numbers(6)
        assert isinstance(table, tuple) and all(type(t) is int for t in table)
        assert len(table) >= 7 and _tangent_numbers(3) is table
        assert all(t > 0 for t in table[1:])


class TestIsRegularPrime:
    def test_small_regular(self):
        assert is_regular_prime(5)
        assert is_regular_prime(3)
        assert is_regular_prime(2)

    def test_37_irregular_via_b32(self):
        # B_32 = -32 T_16 / (4^16 (4^16 - 1)), and 37 divides neither 32 nor 4^16
        t16 = _tangent_numbers(16)[16]
        assert t16 % 37 == 0
        assert (4**16 - 1) % 37 != 0
        assert not is_regular_prime(37)

    def test_known_classification(self):
        for p in KNOWN_REGULAR:
            assert is_regular_prime(p), p
        for p in KNOWN_IRREGULAR:
            assert not is_regular_prime(p), p

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            is_regular_prime(15)

    @pytest.mark.parametrize("p", [17, 31, 41, 43, 73, 1093])
    def test_p_divides_t_n_where_4_to_the_n_is_1_and_p_is_regular(self, p):
        # p | T_n at such n for every p, so a bare p | T_n test would call
        # these irregular; v_p(T_n) = v_p(4^n - 1) keeps B_2n a p-unit. The
        # Wieferich prime 1093 has v_p = 2 at n = 182 and 364, so a test of
        # p^2 | T_n there would be wrong too.
        tangents = _tangent_numbers((p - 3) // 2)
        cyclic = [n for n in range(1, (p - 1) // 2) if pow(4, n, p) == 1]
        assert cyclic
        for n in cyclic:
            assert tangents[n] % p == 0
            assert valuation(tangents[n], p) == valuation(4**n - 1, p), (p, n)
        assert is_regular_prime(p)

    def test_against_the_reference_numerators_below_200(self):
        for p in [p for p in PRIMES_BELOW_1200 if p < 200]:
            irregular = any(recurrence_bernoulli(k).numerator % p == 0 for k in range(2, p - 2, 2))
            assert is_regular_prime(p) is not irregular, p

    def test_against_sympy_below_1200(self):
        sympy = pytest.importorskip("sympy")
        for p in PRIMES_BELOW_1200:
            irregular = any(sympy.bernoulli(k).p % p == 0 for k in range(2, p - 2, 2))
            assert is_regular_prime(p) is not irregular, p


class TestTangentNumberTable:
    def test_equals_the_defining_recurrence_up_to_500(self):
        for k in range(501):
            assert bernoulli(k) == recurrence_bernoulli(k), k

    def test_uneven_growth_equals_one_growth(self):
        def table_after(*steps):
            script = (
                "from towerforge import bernoulli\n"
                f"for n in {steps!r}: print(len(bernoulli._tangent_numbers(n)))\n"
                "print(repr(bernoulli._tangents))\n"
            )
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
            result = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
            )
            *sizes, table = result.stdout.splitlines()
            return [int(s) for s in sizes], table

        sizes, grown = table_after(2, 50, 249)
        # each growth at least doubles the table, and no more than needed
        assert sizes == [3, 51, 250]
        assert table_after(249) == ([250], grown)
        assert table_after(100, 101) == ([101, 201], table_after(200)[1])
        assert grown.count(",") == 249

    def test_regularity_matches_the_benchmark_reference_below_500(self):
        reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
        irregular = set(reference["irregular_below_500"])
        primes = [p for p in range(2, 500) if is_prime(p)]
        assert irregular and irregular <= set(primes)
        assert [p for p in primes if not is_regular_prime(p)] == sorted(irregular)

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        for k in range(301):
            expected = sympy.bernoulli(k)
            if k == 1:
                expected = -expected  # sympy takes B_1 = +1/2
            assert bernoulli(k) == Fraction(int(expected.p), int(expected.q)), k
