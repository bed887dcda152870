"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every assertion is exact; the only tolerances are the
wall-clock budgets, which are asserted as stated.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from arith_reference import min_rank_l

from towerforge.arith import euler_phi, mult_order
from towerforge.bernoulli import is_regular_prime
from towerforge.characters import hminus_determinant, hminus_product, relative_class_number
from towerforge.criteria import Conclusion, gs_forces_infinite, gs_margin
from towerforge.local import LocalCycloElement, check_kummer_class_invariance, pi_valuation
from towerforge.pipeline import reproduce_table


@contextmanager
def criterion(label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[acceptance] {label}: PASS ({elapsed:.2f}s, budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"{label} exceeded its time budget: {elapsed:.2f}s"


def primes_below(n):
    return [p for p in range(2, n) if all(p % d for d in range(2, int(p**0.5) + 1))]


def test_criterion_1_relative_class_numbers():
    with criterion("1: recomputed relative class numbers", 120):
        rcn_128 = relative_class_number(2, 7)
        assert rcn_128.value == 359057
        assert rcn_128.factors == ((17, 1), (21121, 1))

        rcn_81 = relative_class_number(3, 4)
        assert rcn_81.value == 2593
        assert rcn_81.factors == ((2593, 1),)

        rcn_125 = relative_class_number(5, 3)
        assert rcn_125.value == 2801 * 20602801
        assert rcn_125.factors == ((2801, 1), (20602801, 1))


def test_criterion_2_multiplicative_orders():
    with criterion("2: multiplicative orders", 1):
        assert mult_order(2, 21121) == 10560
        assert mult_order(3, 2593) == 648

        f5 = mult_order(5, 20602801)
        assert f5 == 10301400
        # the nine-digit alternative reading cannot be an order at all:
        # orders divide phi(20602801) = 20602800 < 103011400
        assert 103011400 > euler_phi(20602801)
        print(
            f"\n[acceptance] f(5 mod 20602801) = {f5}: 10301400 confirmed, "
            "103011400 refuted (exceeds the unit group order)"
        )


def test_criterion_3_reproduce_table():
    with criterion("3: three-row verification table", 150):
        rows = reproduce_table()
        assert len(rows) == 3
        assert all(row.conclusion == Conclusion.BOTH.value for row in rows)
        assert [row.bound_ii for row in rows] == [260, 328, 1004]
        assert [(row.p, row.conductor, row.h, row.f) for row in rows] == [
            (2, 128, 21121, 10560),
            (3, 81, 2593, 648),
            (5, 125, 20602801, 10301400),
        ]


def test_criterion_4_oracle_equivalence():
    with criterion("4: product formula vs determinant oracle, conductors <= 200", 60):
        assert hminus_product(23, 1) == 3
        assert hminus_determinant(23, 1) == 3
        checked = 0
        for p in primes_below(200):
            m = 1
            while p**m <= 200:
                if p**m >= 3:
                    assert hminus_product(p, m) == hminus_determinant(p, m), (p, m)
                    checked += 1
                m += 1
        assert checked == 59  # every prime-power conductor in [3, 200]


def test_criterion_5_regular_prime_classification():
    with criterion("5: regular-prime classification below 110", 60):
        irregular = {37, 59, 67, 101, 103}
        for p in primes_below(110):
            assert is_regular_prime(p) == (p not in irregular), p


def _random_unit(rng, p, m, precision):
    e = euler_phi(p**m)
    while True:
        element = LocalCycloElement(
            p, m, precision, [rng.randrange(0, p**precision) for _ in range(e)]
        )
        if not element.is_zero() and pi_valuation(element) == 0:
            return element


def test_criterion_6_property_suite():
    with criterion("6: property suite", 600):
        # (a) minimal GL rank equals the multiplicative order, exhaustively
        small = primes_below(50)
        larger = primes_below(500)
        pairs = 0
        for p in small:
            for h in larger:
                if p == h:
                    continue
                assert min_rank_l(p, h) == mult_order(p, h), (p, h)
                pairs += 1
        assert pairs == sum(1 for p in small for h in larger if p != h)

        # (b) monotonicity of the finiteness obstruction on 10^4 random triples
        rng = random.Random(20260810)
        for _ in range(10_000):
            h1 = rng.randrange(0, 10_000)
            r1 = rng.randrange(0, 5_000)
            r2 = rng.randrange(0, 5_000)
            base = gs_forces_infinite(h1, r1, r2)
            if base:
                assert gs_forces_infinite(h1 + rng.randrange(1, 100), r1, r2)
            if gs_forces_infinite(h1, r1 + rng.randrange(1, 100), r2):
                assert base
            if gs_forces_infinite(h1, r1, r2 + rng.randrange(1, 100)):
                assert base

        # (c) exact-sequence identity over the rationals, modulus (n), n <= 1000:
        # |Cl^m| * |units/units_1| = |(Z/n)^*| * |Cl|, with units {+-1} of index 2
        # and class number 1; the residue unit order is counted by brute force,
        # independent of euler_phi
        for n in range(3, 1001):
            residue_units = sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)
            assert residue_units % 2 == 0
            ray_order = residue_units // 2
            assert ray_order * 2 == residue_units * 1

        # (d) Kummer-class invariance under deep p-th power cofactors
        plan = [((2, 1), 8, 200), ((2, 2), 8, 150), ((3, 1), 6, 120), ((3, 2), 4, 40)]
        instances = 0
        for (p, m), precision, count in plan:
            pi = LocalCycloElement.pi(p, m, precision)
            for _ in range(count):
                unit = _random_unit(rng, p, m, precision)
                v = rng.choice((0, 1, 2))
                target = unit * pi**v
                cofactors = [
                    _random_unit(rng, p, m, precision) ** p
                    for _ in range(rng.choice((1, 2)))
                ]
                assert check_kummer_class_invariance(target, cofactors), (p, m, target)
                instances += 1
        assert instances >= 500
        print(f"\n[acceptance] invariance instances checked: {instances}")


def test_criterion_7_gs_contradiction_instantiated():
    with criterion("7: finiteness contradiction for the first table row", 60):
        assert gs_forces_infinite(21121, 0, 1351744)
        margin = gs_margin(21121, 0, 1351744)
        assert margin == Fraction(21121 * 21121 - 4 * 21121 - 4 * 1351744, 4)
        assert margin == Fraction(440605181, 4)
        assert margin > 0
        print(f"\n[acceptance] obstruction margin h1^2/4 - h1 - (r1+r2) = {margin} > 0")
