"""Dirichlet characters, generalized Bernoulli values, relative class numbers."""

import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from cyclo_reference import CycloElement, bareiss_det, characters, gen_bernoulli_b1
from test_cli import _cap_address_space, cli_env

from towerforge import arith, cyclotomic
from towerforge.arith import FactoredInteger, euler_phi, factorize, is_prime
from towerforge.characters import (
    _bordered_system,
    _orbit_vector,
    _positive_quotient,
    hminus_determinant,
    hminus_product,
    orbit_norms,
    relative_class_number,
)
from towerforge.cyclotomic import integer_det
from towerforge.errors import BudgetExceededError, FactorizationError, IntegralityError

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def folded(vector, d, t=1):
    """Coefficients of sum_i vector[i] zeta_d^(i t), exponents reduced mod d."""
    out = [0] * d
    for i, c in enumerate(vector):
        out[i * t % d] += c
    return out


class TestCharactersMod:
    """The brute-force characters of the reference, and the conductors h^- rejects."""

    def test_counts(self):
        chars = characters(5, 1)
        assert len(chars) == 4
        assert sum(1 for c in chars if c.is_odd) == 2

        chars = characters(2, 2)
        assert len(chars) == 2
        assert sum(1 for c in chars if c.is_odd) == 1

        chars = characters(3, 4)
        assert len(chars) == 54
        assert sum(1 for c in chars if c.is_odd) == 27

    def test_counts_even_modulus(self):
        for m in (3, 4, 5):
            chars = characters(2, m)
            assert len(chars) == euler_phi(2**m)
            assert sum(1 for c in chars if c.is_odd) == len(chars) // 2

    def test_conductor_2_rejected(self):
        with pytest.raises(ValueError):
            hminus_product(2, 1)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            hminus_product(6, 1)

    def test_uniqueness_and_determinism(self):
        chars = characters(3, 3)
        maps = {tuple(sorted(c.exponents.items())) for c in chars}
        assert len(maps) == len(chars)
        assert characters(3, 3) == chars

    def test_multiplicativity(self):
        rng = random.Random(3)
        for p, m in ((5, 1), (2, 4), (3, 2), (7, 1)):
            q = p**m
            units = [a for a in range(1, q) if gcd(a, q) == 1]
            for chi in characters(p, m):
                k = chi.exponents
                for _ in range(10):
                    a, b = rng.choice(units), rng.choice(units)
                    assert k[a * b % q] == (k[a] + k[b]) % chi.order

    def test_parity_matches_value_at_minus_one(self):
        for p, m in ((5, 1), (2, 5), (3, 3)):
            q = p**m
            for chi in characters(p, m):
                exp = chi.exponents[q - 1]
                if chi.is_odd:
                    assert 2 * exp == chi.order  # value is the -1 in mu_order
                else:
                    assert exp == 0

    def test_orthogonality(self):
        # sum over units of chi(a) vanishes for every nontrivial chi
        for p, m in ((5, 1), (3, 2), (2, 4)):
            for chi in characters(p, m):
                if chi.order == 1:
                    continue
                total = CycloElement.from_rational(0, chi.order)
                z = CycloElement.zeta(chi.order)
                for k in chi.exponents.values():
                    total = total + z**k
                assert total.is_zero()

    def test_power_orbit_closure(self):
        for chi in characters(5, 1):
            assert (chi**1) == chi
            assert (chi ** (chi.order + 1)) == chi

    def test_odd_orbit_representatives_partition_the_odd_characters(self):
        # the phi(d) conjugates of V folded mod d, over the orbit orders d of
        # the product route, are q B(chi) for each odd chi exactly once
        cases = [(2, m) for m in range(2, 8)] + [(3, m) for m in range(1, 5)]
        cases += [(5, 1), (5, 2), (7, 1), (7, 2), (23, 1), (29, 1), (31, 1)]
        for p, m in cases:
            chars = characters(p, m)
            top = lcm(*(chi.order for chi in chars))
            expected = Counter(
                CycloElement(chi.order, chi.weights()).lift_to(top) for chi in chars if chi.is_odd
            )
            vector, orders = _orbit_vector(p, m, p**m)
            got = Counter(
                CycloElement(d, folded(vector, d, t)).lift_to(top)
                for d in orders
                for t in range(1, d + 1)
                if gcd(t, d) == 1
            )
            assert got == expected, (p, m)


class TestGenBernoulli:
    def test_odd_character_mod_4(self):
        (chi,) = [c for c in characters(2, 2) if c.is_odd]
        assert gen_bernoulli_b1(chi) == CycloElement.from_rational(Fraction(-1, 2), chi.order)

    def test_trivial_character_mod_3(self):
        (trivial,) = [c for c in characters(3, 1) if c.order == 1]
        b = gen_bernoulli_b1(trivial)
        assert b.is_rational() and b.rational_value() == 1

    def test_weights_match_value_exponent(self):
        # for odd p, V folded mod d is the weight vector of the character
        # chi(g) = zeta_d, g the least primitive root: the vector the kernel's
        # bound is proved for
        for p, m in ((3, 1), (3, 3), (5, 2), (7, 2), (11, 2), (3, 6), (5, 4), (7, 3)):
            q = p**m
            vector, orders = _orbit_vector(p, m, q)
            g = vector[1]
            by_order = {}
            for chi in characters(p, m):
                if chi.exponents[g] == 1:
                    by_order[chi.order] = chi
            for d in orders:
                assert folded(vector, d) == by_order[d].weights(), (q, d)

    def test_galois_equivariance(self):
        # B(chi^t) is the image of B(chi) under zeta_d -> zeta_d^t
        for chi in characters(5, 1):
            d = chi.order
            b = gen_bernoulli_b1(chi)
            for t in range(1, d):
                if gcd(t, d) != 1:
                    continue
                assert gen_bernoulli_b1(chi**t) == CycloElement(d, _twist(b, t))


def _twist(element, t):
    """Coefficients of the image of element under zeta_d -> zeta_d^t."""
    d = element.conductor
    out = [Fraction(0)] * (max((len(element.coeffs) - 1) * t, 0) + 1)
    for i, c in enumerate(element.coeffs):
        out[i * t] += c
    return out


class TestRelativeClassNumbers:
    def test_conductor_128(self):
        rcn = relative_class_number(2, 7)
        assert rcn.value == 359057
        assert rcn.factors == ((17, 1), (21121, 1))

    def test_conductor_81(self):
        rcn = relative_class_number(3, 4)
        assert rcn.value == 2593
        assert rcn.factors == ((2593, 1),)

    def test_conductor_125(self):
        rcn = relative_class_number(5, 3)
        assert rcn.factors == ((2801, 1), (20602801, 1))

    def test_conductor_4(self):
        assert hminus_product(2, 2) == 1

    def test_trivial_small_conductors(self):
        for p, m in ((3, 1), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (2, 5)):
            assert hminus_product(p, m) == 1

    @pytest.mark.parametrize("numerator, denominator", [(1, 3), (-1, 1)])
    def test_non_positive_or_fractional_quotient_rejected(self, numerator, denominator):
        # w = 10 for q = 5: 10/3 is not an integer and -10 is not positive
        with pytest.raises(IntegralityError):
            _positive_quotient(5, numerator, denominator, "r")

    def test_first_nontrivial_values(self):
        assert hminus_product(23, 1) == 3
        assert hminus_product(29, 1) == 8
        assert hminus_product(31, 1) == 9


class TestLargeConductors:
    def test_product_matches_the_benchmark_reference(self):
        # 343-1024 in that file come from the determinant oracle; 2048 is
        # above its bound. The file is only read.
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["hminus"]
        for q in (343, 512, 625, 729, 1024, 2048):
            entry = reference[str(q)]
            assert entry["p"] ** entry["m"] == q
            assert hminus_product(entry["p"], entry["m"]) == entry["value"], q

    def test_relative_class_number_is_the_factored_reference_value(self):
        # every conductor the package factors in that file, read only
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["hminus"]
        factored = [entry for entry in reference.values() if entry["factored_by_package"]]
        assert len(factored) == 53
        for entry in factored:
            expected = FactoredInteger(entry["value"], tuple(map(tuple, entry["factors"])))
            h_minus = relative_class_number(entry["p"], entry["m"])
            assert type(h_minus) is FactoredInteger and h_minus == expected, entry

    def test_oracle_matches_the_benchmark_reference(self):
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["hminus"]
        for q in (625, 729, 1024):
            entry = reference[str(q)]
            assert hminus_determinant(entry["p"], entry["m"], bound=1024) == entry["value"], q


class TestDeterminantOracle:
    def test_examples(self):
        assert factorize(hminus_determinant(2, 2)).value == 1
        assert factorize(hminus_determinant(5, 1)).value == 1
        assert factorize(hminus_determinant(23, 1)).factors == ((3, 1),)

    def test_agreement_spot_checks(self):
        for p, m in ((2, 7), (3, 4), (5, 3), (23, 1), (29, 1), (7, 2)):
            assert hminus_determinant(p, m) == hminus_product(p, m)

    def test_agreement_at_safe_primes(self):
        # (p - 1)/2 is prime: one orbit of order p - 1 = 2 r with r = 233, 251,
        # evaluated by the chirp-z correlation of length r
        for p in (467, 503):
            assert hminus_determinant(p, 1) == hminus_product(p, 1), p

    def test_bound(self):
        message = "^determinant oracle bound 512 exceeded by conductor 1024$"
        with pytest.raises(BudgetExceededError, match=message):
            hminus_determinant(2, 10)
        assert hminus_determinant(2, 9) == hminus_product(2, 9)

    def test_conductor_2_is_refused_before_the_bound_is_compared(self):
        with pytest.raises(ValueError, match="^conductor 2 has no odd characters"):
            hminus_determinant(2, 1, bound=1)

    def test_far_over_its_bound_is_refused_without_being_formed(self, tmp_path):
        # 2^(10^10) alone would take 1.25 GB; the child may map at most 1 GB
        pytest.importorskip("resource")
        script = (
            "from towerforge.characters import hminus_determinant\n"
            "from towerforge.errors import BudgetExceededError\n"
            "try:\n"
            "    hminus_determinant(2, 10**10)\n"
            "except BudgetExceededError as exc:\n"
            "    print(exc)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=cli_env(tmp_path),
            cwd=tmp_path,
            timeout=20,
            preexec_fn=_cap_address_space,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "determinant oracle bound 512 exceeded by conductor 2^10000000000\n"


def half_system_matrix(q):
    """M_ij = 2R(a_i a_j^-1) - q over the units 1 <= a < q/2, R the least positive residue."""
    half = [a for a in range(1, (q + 1) // 2) if gcd(a, q) == 1]
    return half, [[2 * (a * pow(b, -1, q) % q) - q for b in half] for a in half]


class TestBorderedIdentity:
    """det B = 2q det M / (-2q)^n, on which the oracle's prime count rests."""

    def test_every_conductor_up_to_200(self):
        conductors = [
            p**m for p in range(2, 201) if is_prime(p) for m in range(1, 8) if 3 <= p**m <= 200
        ]
        assert len(conductors) == 59
        for q in conductors:
            half, matrix = half_system_matrix(q)
            bordered, square_bound = _bordered_system(q)
            det_b = integer_det(bordered, square_bound)
            assert det_b * det_b <= square_bound, q
            assert 2 * q * bareiss_det(matrix) == (-2 * q) ** len(half) * det_b, q

    def test_bound_equals_the_per_row_hadamard_product(self):
        # every row of M has the same sum of squares, so the product is S^n
        conductors = [
            p**m for p in range(2, 513) if is_prime(p) for m in range(1, 10) if 3 <= p**m <= 512
        ]
        assert len(conductors) == 116
        for q in conductors:
            half, matrix = half_system_matrix(q)
            n = len(half)
            per_row = 1
            for row in matrix:
                per_row *= sum(x * x for x in row)
            assert _bordered_system(q)[1] == -(-4 * q * q * per_row // (2 * q) ** (2 * n)), q

    def test_explicit_bordered_matrix(self):
        for q in (5, 7, 8, 9, 16, 23, 25, 27, 29, 32):
            half, matrix = half_system_matrix(q)
            n = len(half)
            inverses = [pow(a, -1, q) for a in half]
            floors = [[(a * c - a * c % q) // q for c in inverses] for a in half]
            bordered = [row + [a, 1] for row, a in zip(floors, half)]
            bordered += [inverses + [q, 0], [-1] * n + [0, 2]]
            assert _bordered_system(q)[0] == bordered, q
            det_b = bareiss_det(bordered)
            assert integer_det(bordered) == det_b, q
            assert 2 * q * bareiss_det(matrix) == (-2 * q) ** n * det_b, q

    @pytest.mark.parametrize("p, m", [(3, 5), (2, 8), (7, 3), (2, 9)])
    def test_one_elimination_per_oracle_determinant(self, p, m, monkeypatch):
        q, seen, real = p**m, [], cyclotomic._det_mod
        monkeypatch.setattr(cyclotomic, "_det_mod", lambda *args: seen.append(args[1]) or real(*args))
        det_b = integer_det(*_bordered_system(q))
        assert seen == [next(cyclotomic._crt_primes(1))], q
        w = q if q % 2 == 0 else 2 * q
        assert w * abs(det_b) == 2 * q * hminus_product(p, m), q


class TestOrbitGroupingInvariance:
    def test_full_product_equals_orbit_norms(self):
        # multiply every odd-character factor in one big field and compare
        for p, m in ((2, 3), (3, 2), (2, 4), (5, 2), (3, 3)):
            q = p**m
            big = euler_phi(q)
            product = CycloElement.from_rational(1, big)
            for chi in characters(p, m):
                if not chi.is_odd:
                    continue
                factor = gen_bernoulli_b1(chi) * Fraction(-1, 2)
                product = product * factor.lift_to(big)
            assert product.is_rational()
            w = q if q % 2 == 0 else 2 * q
            assert product.rational_value() * w == hminus_product(p, m)


class TestOrbitNormsTotients:
    @pytest.mark.parametrize("p, m", [(2, 6), (3, 4), (5, 2), (7, 2)])
    def test_euler_phi_runs_once_per_orbit_order(self, monkeypatch, p, m):
        calls = []

        def recorded(n):
            calls.append(n)
            return euler_phi(n)

        monkeypatch.setattr("towerforge.characters.euler_phi", recorded)
        norms = orbit_norms(p, m)
        assert sorted(calls) == sorted(d for d, _ in norms), (p, m)


class TestFactoringByOrbitNorms:
    """relative_class_number hands h^-'s orbit norms to factorize."""

    def test_gcd_with_an_orbit_norm_splits_h_minus_256_without_rho(self, monkeypatch):
        norms = orbit_norms(2, 8)
        assert [d for d, _ in norms] == [64, 32, 16, 8, 4, 2, 1]
        assert gcd(21121 * 29102880226241, dict(norms)[32]) == 21121

        def no_rho(m, c, budget, e=2):
            raise AssertionError(f"rho called on {m}")

        monkeypatch.setattr(arith, "_pollard_brent", no_rho)
        factors = ((17, 1), (21121, 1), (29102880226241, 1))
        assert factorize(hminus_product(2, 8), norms=norms).factors == factors
        assert relative_class_number(2, 8).factors == factors
        # without the norms, rho is handed the product of the two large primes
        with pytest.raises(AssertionError, match=f"rho called on {21121 * 29102880226241}$"):
            factorize(hminus_product(2, 8))

    def test_h_minus_243_is_walked_on_x_to_the_324(self, monkeypatch):
        calls = []
        rho = arith._pollard_brent

        def recorded(m, c, budget, e=2):
            calls.append((m, c, e))
            return rho(m, c, budget, e)

        monkeypatch.setattr(arith, "_pollard_brent", recorded)
        assert str(relative_class_number(3, 5)) == "2593 * 6252002011 * 922099242709"
        assert calls == [(6252002011 * 922099242709, 1, 324)]

    def test_every_conductor_up_to_256_factors_as_without_norms(self):
        primes = [p for p in range(2, 257) if is_prime(p)]
        conductors = [(p, m) for p in primes for m in range(1, 9) if 2 < p**m <= 256]
        assert len(conductors) == 69
        refused = []
        for p, m in conductors:
            try:
                expected = factorize(hminus_product(p, m))
            except FactorizationError as exc:
                refused.append(p**m)
                with pytest.raises(FactorizationError, match=f"^{exc}$"):
                    relative_class_number(p, m)
            else:
                assert relative_class_number(p, m) == expected, p**m
        # the primality bound refuses the same cofactors with norms as without
        assert refused == [163, 167, 173, 179, 191, 193, 197, 199, 223, 227, 229, 233, 239, 241, 251]

    @pytest.mark.parametrize(
        "p, m, rho_budget, message",
        [
            (3, 5, 50, f"rho budget exhausted on composite cofactor {6252002011 * 922099242709}"),
            (
                2,
                9,
                2_000_000,
                "cofactor 368382587322996021102689498972289578939895258233859137 "
                "exceeds the deterministic primality bound",
            ),
        ],
    )
    def test_failures_read_the_same_with_norms_as_without(self, p, m, rho_budget, message):
        h = hminus_product(p, m)
        for norms in ((), orbit_norms(p, m)):
            with pytest.raises(FactorizationError) as caught:
                factorize(h, rho_budget=rho_budget, norms=norms)
            assert str(caught.value) == message
