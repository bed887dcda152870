"""Tower conditions, GL-order rank bound, signatures, finiteness obstruction."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from towerforge import arith, criteria
from towerforge.arith import FactoredInteger, euler_phi, factorize, mult_order
from towerforge.criteria import (
    Conclusion,
    TowerCandidate,
    check_condition_I,
    check_condition_II,
    gl_order,
    gs_forces_infinite,
    gs_margin,
    min_rank_l,
    signature_of_L,
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
        with pytest.raises(ValueError, match="74 is not a unit mod 37"):
            TowerCandidate.build(74, 1, 37, factorize(37))
        with pytest.raises(ValueError, match="4 is not prime"):
            TowerCandidate.build(4, 2, 3, factorize(3))
        with pytest.raises(ValueError, match="m must be >= 1"):
            TowerCandidate.build(2, 0, 3, factorize(3))

    def test_totients_in_closed_form_equal_euler_phi(self):
        # 101 is prime and above every p here, so it is a unit mod each of them
        for p in (n for n in range(2, 100) if arith.is_prime(n)):
            m = 1
            while p**m <= 2**12:
                candidate = TowerCandidate.build(p, m, 101, factorize(101))
                assert candidate.phi_pm == euler_phi(p**m), (p, m)
                assert check_condition_II(candidate).bound == 2 * euler_phi(p ** (m + 1)) + 4, (p, m)
                m += 1

    def test_build_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            TowerCandidate.build(2, 7, 15, H_MINUS_128)  # composite
        with pytest.raises(ValueError):
            TowerCandidate.build(2, 7, 13, H_MINUS_128)  # 13 does not divide h^-


class TestConditionI:
    def test_case_p2(self):
        verdict = check_condition_I(CASE_P2, regular=True)
        assert verdict.holds
        assert verdict.margin == 10560 * 10560 - 4 * 10560 - 2 * 21121 * 64
        assert verdict.margin == 108_767_872

    def test_case_p3(self):
        verdict = check_condition_I(CASE_P3, regular=True)
        assert verdict.holds
        assert verdict.margin == 417_312 - 280_044
        assert verdict.margin == 137_268

    def test_small_f_fails(self):
        shallow = TowerCandidate(2, 7, 21121, 300, 64, H_MINUS_128)
        verdict = check_condition_I(shallow, regular=True)
        assert not verdict.holds
        assert verdict.margin == 300 * 300 - 1200 - 2_703_488

    def test_irregular_fails_regardless_of_margin(self):
        verdict = check_condition_I(CASE_P2, regular=False)
        assert not verdict.holds
        assert verdict.margin == 108_767_872  # margin still reported

    def test_monotone_in_f(self):
        # raising f never turns a pass into a fail
        for f in range(1, 400, 7):
            candidate = TowerCandidate(2, 7, 21121, f, 64, H_MINUS_128)
            next_candidate = TowerCandidate(2, 7, 21121, f + 1, 64, H_MINUS_128)
            if check_condition_I(candidate, True).holds:
                assert check_condition_I(next_candidate, True).holds

    def test_antimonotone_in_h_and_m(self):
        # raising h or m never turns a fail into a pass
        rng = random.Random(53)
        for _ in range(300):
            f = rng.randrange(1, 2000)
            h = rng.randrange(2, 50_000)
            phi = rng.randrange(1, 512)
            base = check_condition_I(TowerCandidate(2, 1, h, f, phi, H_MINUS_128), True)
            bigger_h = check_condition_I(TowerCandidate(2, 1, h + 100, f, phi, H_MINUS_128), True)
            bigger_phi = check_condition_I(TowerCandidate(2, 1, h, f, 2 * phi, H_MINUS_128), True)
            if not base.holds:
                assert not bigger_h.holds
                assert not bigger_phi.holds


class TestConditionII:
    def test_bounds(self):
        v2 = check_condition_II(CASE_P2)
        assert v2.holds and v2.bound == 260
        v5 = check_condition_II(CASE_P5)
        assert v5.holds and v5.bound == 1004
        # the bound uses the conductor one level up: 2*phi(3^5) + 4
        v3 = check_condition_II(CASE_P3)
        assert v3.holds and v3.bound == 328

    def test_failing(self):
        small = TowerCandidate(2, 7, 17, 8, 64, H_MINUS_128)
        verdict = check_condition_II(small)
        assert not verdict.holds and verdict.bound == 260


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


class TestSignature:
    def test_flagship_cases(self):
        assert signature_of_L(CASE_P2) == (0, 1_351_744)
        assert signature_of_L(CASE_P3) == (0, 210_033)
        assert signature_of_L(CASE_P5) == (0, 5_150_700_250)

    def test_degree_identity(self):
        for candidate in (CASE_P2, CASE_P3, CASE_P5):
            r1, r2 = signature_of_L(candidate)
            assert r1 + 2 * r2 == candidate.p * candidate.phi_pm * candidate.h


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
            assert report.cond_i.holds and report.cond_ii.holds

    def test_synthetic_failure(self):
        candidate = TowerCandidate.build(2, 1, 3, factorize(3))
        report = verify_candidate(candidate)
        assert report.conclusion is Conclusion.FAIL
        assert report.cond_i.margin == 4 - 8 - 2 * 3 * 1
        assert report.cond_ii.bound == 8

    def test_rejections(self):
        bogus = TowerCandidate(2, 7, 15, 4, 64, H_MINUS_128)
        with pytest.raises(ValueError):
            verify_candidate(bogus)
        not_dividing = TowerCandidate(2, 7, 13, 12, 64, H_MINUS_128)
        with pytest.raises(ValueError):
            verify_candidate(not_dividing)

    def test_conclusion_consistency(self):
        report = verify_candidate(CASE_P2)
        assert (report.conclusion is Conclusion.BOTH) == (
            report.cond_i.holds and report.cond_ii.holds
        )
