"""Tower conditions and the finiteness obstruction."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from arith_reference import gl_order, min_rank_l

from towerforge import arith, criteria
from towerforge.arith import FactoredInteger, euler_phi, factorize, mult_order
from towerforge.criteria import (
    Conclusion,
    TowerCandidate,
    gs_forces_infinite,
    gs_margin,
    verify_candidate,
)

H_MINUS_128 = factorize(359057)
H_MINUS_81 = factorize(2593)
H_MINUS_125 = factorize(57708445601)

CASE_P2 = TowerCandidate.build(2, 7, 21121, H_MINUS_128)
CASE_P3 = TowerCandidate.build(3, 4, 2593, H_MINUS_81)
CASE_P5 = TowerCandidate.build(5, 3, 20602801, H_MINUS_125)

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


class TestTowerCandidate:
    def test_build_derives_fields(self):
        assert CASE_P2.f == 10560
        assert CASE_P2.phi_pm == 64
        assert CASE_P3.f == 648
        assert CASE_P5.f == 10301400
        assert (CASE_P5.h - 1) % CASE_P5.f == 0

    def test_build_takes_f_from_h_minus_1_without_factoring_h(self, monkeypatch):
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        factored = []

        def recorded(n, **kwargs):
            factored.append(n)
            return factorize(n, **kwargs)

        rows = 0
        for conductor, candidates in reference["candidates"].items():
            entry = reference["hminus"][conductor]
            h_minus = FactoredInteger(entry["value"], tuple(map(tuple, entry["factors"])))
            for row in candidates:
                factored.clear()
                for module in (arith, criteria):
                    monkeypatch.setattr(module, "factorize", recorded)
                candidate = TowerCandidate.build(entry["p"], entry["m"], row["h"], h_minus)
                monkeypatch.undo()
                assert factored == [row["h"] - 1], row
                assert candidate.f == row["f"] == mult_order(entry["p"], row["h"]), row
                rows += 1
        assert rows == 140

    def test_build_refuses_a_p_that_h_divides(self):
        with pytest.raises(ValueError, match="h = p has no multiplicative order f"):
            TowerCandidate.build(37, 1, 37, factorize(37))
        with pytest.raises(ValueError, match="74 is not prime"):
            TowerCandidate.build(74, 1, 37, factorize(37))
        with pytest.raises(ValueError, match="4 is not prime"):
            TowerCandidate.build(4, 2, 3, factorize(3))
        with pytest.raises(ValueError, match="m must be >= 1"):
            TowerCandidate.build(2, 0, 3, factorize(3))

    def test_totients_in_closed_form_equal_euler_phi(self):
        # 101 is prime and above every p here, so it is a unit mod each of them;
        # so are the primes either side of the condition II bound, which exceed p
        for p in (n for n in range(2, 100) if arith.is_prime(n)):
            m = 1
            while p**m <= 2**12:
                bound = 2 * euler_phi(p ** (m + 1)) + 4
                below = next(h for h in range(bound - 1, p, -1) if arith.is_prime(h))
                above = next(h for h in range(bound, 2 * bound) if arith.is_prime(h))
                for h in (101, below, above):
                    candidate = TowerCandidate.build(p, m, h, factorize(h))
                    report = verify_candidate(candidate)
                    assert candidate.phi_pm == euler_phi(p**m), (p, m)
                    assert report.bound_ii == bound, (p, m)
                    assert report.cond_ii == (h >= bound), (p, m, h)
                m += 1

    def test_build_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            TowerCandidate.build(2, 7, 15, H_MINUS_128)  # composite
        with pytest.raises(ValueError):
            TowerCandidate.build(2, 7, 13, H_MINUS_128)  # 13 does not divide h^-


class TestConditionI:
    def test_case_p2(self):
        report = verify_candidate(CASE_P2)
        assert report.cond_i
        assert report.margin_i == 10560 * 10560 - 4 * 10560 - 2 * 21121 * 64
        assert report.margin_i == 108_767_872

    def test_case_p3(self):
        report = verify_candidate(CASE_P3)
        assert report.cond_i
        assert report.margin_i == 417_312 - 280_044
        assert report.margin_i == 137_268

    def test_small_f_fails(self):
        shallow = TowerCandidate(2, 7, 21121, 300, 64, H_MINUS_128)
        report = verify_candidate(shallow)
        assert not report.cond_i
        assert report.margin_i == 300 * 300 - 1200 - 2_703_488

    def test_irregular_fails_regardless_of_margin(self):
        # 37 is irregular; the margin reads f, h and phi(p^m) alone
        report = verify_candidate(CASE_P2._replace(p=37))
        assert not report.regular_p and not report.cond_i
        assert report.margin_i == 108_767_872  # margin still reported

    def test_monotone_in_f(self):
        # raising f never turns a pass into a fail
        for f in range(1, 400, 7):
            candidate = TowerCandidate(2, 7, 21121, f, 64, H_MINUS_128)
            next_candidate = TowerCandidate(2, 7, 21121, f + 1, 64, H_MINUS_128)
            if verify_candidate(candidate).cond_i:
                assert verify_candidate(next_candidate).cond_i

    def test_antimonotone_in_h_and_m(self):
        # raising h or m never turns a fail into a pass
        # and the margin is f^2 - 4f - 2 h phi, also where h phi is odd
        rng = random.Random(53)
        odd = 0
        for _ in range(300):
            f = rng.randrange(1, 2000)
            h = rng.randrange(2, 50_000)
            phi = rng.randrange(1, 512)
            base = verify_candidate(TowerCandidate(2, 1, h, f, phi, H_MINUS_128))
            bigger_h = verify_candidate(TowerCandidate(2, 1, h + 100, f, phi, H_MINUS_128))
            bigger_phi = verify_candidate(TowerCandidate(2, 1, h, f, 2 * phi, H_MINUS_128))
            if not base.cond_i:
                assert not bigger_h.cond_i
                assert not bigger_phi.cond_i
            assert base.margin_i == f * f - 4 * f - 2 * h * phi
            assert bigger_h.margin_i == f * f - 4 * f - 2 * (h + 100) * phi
            assert bigger_phi.margin_i == f * f - 4 * f - 4 * h * phi
            odd += h * phi % 2
        assert odd > 0


class TestConditionII:
    def test_bounds(self):
        v2 = verify_candidate(CASE_P2)
        assert v2.cond_ii and v2.bound_ii == 260
        v5 = verify_candidate(CASE_P5)
        assert v5.cond_ii and v5.bound_ii == 1004
        # the bound uses the conductor one level up: 2*phi(3^5) + 4
        v3 = verify_candidate(CASE_P3)
        assert v3.cond_ii and v3.bound_ii == 328

    def test_failing(self):
        small = TowerCandidate(2, 7, 17, 8, 64, H_MINUS_128)
        report = verify_candidate(small)
        assert not report.cond_ii and report.bound_ii == 260


class TestGlOrder:
    def test_values(self):
        assert gl_order(1, 7) == 6
        assert gl_order(2, 2) == 6
        assert gl_order(3, 2) == 168

    def test_divisibility_ladder(self):
        # p^i - 1 divides |GL_l(F_p)| for every i <= l
        for p in (2, 3, 5):
            for l in range(1, 6):
                order = gl_order(l, p)
                for i in range(1, l + 1):
                    assert order % (p**i - 1) == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            gl_order(0, 2)


class TestMinRank:
    def test_examples(self):
        assert min_rank_l(2, 7) == 3
        assert min_rank_l(2, 3) == 2
        assert min_rank_l(3, 2) == 1

    def test_direct_divisibility_witness(self):
        assert gl_order(2, 2) % 7 != 0 and gl_order(3, 2) % 7 == 0
        assert gl_order(1, 2) % 3 != 0 and gl_order(2, 2) % 3 == 0

    def test_small_grid_matches_order(self):
        for p in (2, 3, 5, 7):
            for h in (2, 3, 5, 7, 11, 13, 17, 19):
                if p == h:
                    continue
                assert min_rank_l(p, h) == mult_order(p, h)

    def test_invalid(self):
        with pytest.raises(ValueError):
            min_rank_l(2, 2)
        with pytest.raises(ValueError):
            min_rank_l(4, 7)


class TestGsObstruction:
    def test_examples(self):
        assert gs_forces_infinite(6, 1, 1)
        assert not gs_forces_infinite(4, 1, 1)
        assert gs_forces_infinite(21121, 0, 1_351_744)

    def test_margin(self):
        margin = gs_margin(21121, 0, 1_351_744)
        assert margin == Fraction(21121 * 21121, 4) - 21121 - 1_351_744
        assert margin > 0
        assert gs_margin(4, 1, 1) < 0
        rng = random.Random(41)
        for _ in range(1000):
            h1 = rng.randrange(0, 10_000)
            r1 = rng.randrange(0, 10**7)
            r2 = rng.randrange(0, 10**7)
            assert 4 * gs_margin(h1, r1, r2) == h1 * h1 - 4 * h1 - 4 * (r1 + r2)

    def test_boundary_is_nonstrict(self):
        # h1^2/4 - h1 == r1 + r2 already contradicts the strict chain
        assert gs_forces_infinite(6, 1, 2)  # 9 - 6 = 3 = 1 + 2

    def test_monotonicity_small(self):
        rng = random.Random(97)
        for _ in range(500):
            h1 = rng.randrange(0, 100)
            r1 = rng.randrange(0, 50)
            r2 = rng.randrange(0, 50)
            base = gs_forces_infinite(h1, r1, r2)
            if base:
                assert gs_forces_infinite(h1 + rng.randrange(1, 10), r1, r2)
            if gs_forces_infinite(h1, r1 + 1, r2):
                assert base

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gs_forces_infinite(-1, 0, 0)


class TestVerifyCandidate:
    def test_flagship_cases_pass_both(self):
        for candidate in (CASE_P2, CASE_P3, CASE_P5):
            report = verify_candidate(candidate)
            assert report.conclusion is Conclusion.BOTH
            assert report.regular_p
            assert report.cond_i and report.cond_ii

    def test_synthetic_failure(self):
        candidate = TowerCandidate.build(2, 1, 3, factorize(3))
        report = verify_candidate(candidate)
        assert report.conclusion is Conclusion.FAIL
        assert report.margin_i == 4 - 8 - 2 * 3 * 1
        assert report.bound_ii == 8

    def test_conclusion_consistency(self):
        report = verify_candidate(CASE_P2)
        assert (report.conclusion is Conclusion.BOTH) == (
            report.cond_i and report.cond_ii
        )
