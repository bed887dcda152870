"""Bernoulli numbers and the regular-prime test."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bernoulli_reference import recurrence_bernoulli
from towerforge.arith import is_prime
from towerforge.bernoulli import BernoulliTable, bernoulli, is_regular_prime

ROOT = Path(__file__).resolve().parent.parent


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


class TestBernoulli:
    def test_base_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(12) == Fraction(-691, 2730)
        assert 2730 == 2 * 3 * 5 * 7 * 13

    def test_against_akiyama_tanigawa(self):
        oracle = akiyama_tanigawa(60)
        for k in range(61):
            if k == 1:
                assert bernoulli(1) == -oracle[1]
            else:
                assert bernoulli(k) == oracle[k]

    def test_odd_vanish(self):
        for k in range(3, 61, 2):
            assert bernoulli(k) == 0

    def test_von_staudt_clausen_denominators(self):
        for k in range(2, 61, 2):
            expected = 1
            for q in range(2, k + 2):
                if is_prime(q) and k % (q - 1) == 0:
                    expected *= q
            assert bernoulli(k).denominator == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestBernoulliTable:
    def test_snapshot(self):
        table = BernoulliTable.up_to(12)
        assert table.max_index == 12
        assert table.values[12] == Fraction(-691, 2730)
        assert len(table.values) == 13


class TestIsRegularPrime:
    def test_small_regular(self):
        assert is_regular_prime(5)
        assert is_regular_prime(3)
        assert is_regular_prime(2)

    def test_37_irregular_via_b32(self):
        assert bernoulli(32).numerator % 37 == 0
        assert not is_regular_prime(37)

    def test_known_classification(self):
        for p in KNOWN_REGULAR:
            assert is_regular_prime(p), p
        for p in KNOWN_IRREGULAR:
            assert not is_regular_prime(p), p

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            is_regular_prime(15)


class TestTangentNumberTable:
    def test_equals_the_defining_recurrence_up_to_500(self):
        for k in range(501):
            assert bernoulli(k) == recurrence_bernoulli(k), k

    def test_uneven_growth_equals_one_growth(self):
        def table_after(*steps):
            script = (
                "import sys\n"
                "from towerforge.bernoulli import BernoulliTable, bernoulli\n"
                f"for k in {steps!r}: bernoulli(k)\n"
                "print(repr(BernoulliTable.up_to(498).values))\n"
            )
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
            result = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
            )
            return result.stdout

        grown = table_after(5, 100, 498)
        assert grown == table_after(498)
        assert grown.count("Fraction(") == 499

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
