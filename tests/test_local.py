"""Truncated local cyclotomic arithmetic, valuations, and kappa invariants."""

import copy
import math
import pickle
import random
import subprocess
import sys

import local_reference
import pytest
from cyclo_reference import _poly_divmod_monic, cyclo_poly
from test_cli import cli_env

from towerforge import arith, cyclotomic
from towerforge.errors import CofactorError, PrecisionError
from towerforge.local import (
    KummerClass,
    LocalCycloElement,
    _LocalRing,
    _local_ring,
    check_kummer_class_invariance,
    divide_by_pi,
    kappa,
    kappa_cap,
    kummer_class,
    pi_valuation,
)


def random_unit(rng, p, m, precision):
    e = LocalCycloElement.pi(p, m, precision).e
    while True:
        coeffs = [rng.randrange(0, p**precision) for _ in range(e)]
        element = LocalCycloElement(p, m, precision, coeffs)
        if not element.is_zero() and pi_valuation(element) == 0:
            return element


class TestPiValuation:
    def test_uniformizer(self):
        assert pi_valuation(LocalCycloElement.pi(3, 1, 6)) == 1

    def test_p_is_pi_to_the_e(self):
        assert pi_valuation(LocalCycloElement(3, 1, 6, [3])) == 2
        assert pi_valuation(LocalCycloElement(3, 2, 4, [3])) == 6
        assert pi_valuation(LocalCycloElement(2, 2, 5, [2])) == 2

    def test_unit(self):
        assert pi_valuation(LocalCycloElement(3, 1, 6, [2])) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            pi_valuation(LocalCycloElement(3, 1, 4, [0]))
        with pytest.raises(ValueError):
            # 81 = 3^4 vanishes mod 3^4
            pi_valuation(LocalCycloElement(3, 1, 4, [81]))

    @pytest.mark.parametrize("p, m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)])
    def test_every_non_zero_valuation_is_an_int_below_cap(self, p, m):
        rng = random.Random(100 * p + m)
        for precision in range(1, 7):
            pi = LocalCycloElement.pi(p, m, precision)
            for k in range(pi.cap + 2):
                coeffs = [rng.randrange(p**precision) for _ in range(pi.e)]
                x = LocalCycloElement(p, m, precision, coeffs) * pi**k
                if not x.is_zero():
                    v = pi_valuation(x)
                    assert type(v) is int and v < x.cap, (x, k)

    def test_additivity(self):
        rng = random.Random(5)
        for p, m in ((2, 1), (2, 2), (3, 1), (3, 2)):
            pi = LocalCycloElement.pi(p, m, 8)
            for _ in range(25):
                a = random_unit(rng, p, m, 8) * pi ** rng.randrange(0, 3)
                b = random_unit(rng, p, m, 8) * pi ** rng.randrange(0, 3)
                va, vb = pi_valuation(a), pi_valuation(b)
                if va + vb < a.cap:
                    assert pi_valuation(a * b) == va + vb


class TestDivideByPi:
    def test_total_ramification_witness(self):
        for p, m in ((2, 2), (3, 1), (3, 2), (2, 1), (2, 3), (5, 1), (7, 1)):
            e = LocalCycloElement.pi(p, m, 8).e
            p_elem = LocalCycloElement(p, m, 8, [p])
            pi = LocalCycloElement.pi(p, m, 8)
            assert pi * LocalCycloElement(p, m, 8, _local_ring(p, m).cofactor) == p_elem
            assert pi_valuation(pi**e) == pi_valuation(p_elem) == e
            unit = divide_by_pi(p_elem, e)
            assert pi_valuation(unit) == 0
            # multiply back and compare at the reduced precision
            back = LocalCycloElement(p, m, unit.precision, (pi**e * unit).coeffs)
            assert back == LocalCycloElement(p, m, unit.precision, p_elem.coeffs)

    def test_round_trip(self):
        rng = random.Random(13)
        for _ in range(20):
            u = random_unit(rng, 3, 1, 7)
            pi = LocalCycloElement.pi(3, 1, 7)
            x = u * pi**3
            quotient = divide_by_pi(x, 3)
            assert pi_valuation(quotient) == 0
            back = LocalCycloElement(3, 1, 4, (quotient * pi**3).coeffs)
            assert back == LocalCycloElement(3, 1, 4, x.coeffs)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError, match=r"^t must be >= 0$"):
            divide_by_pi(LocalCycloElement.pi(3, 1, 4), -1)

    def test_inexact_rejected(self):
        with pytest.raises(ValueError):
            divide_by_pi(LocalCycloElement(3, 1, 6, [2]), 1)

    def test_precision_exhaustion(self):
        pi = LocalCycloElement.pi(3, 1, 2)
        with pytest.raises(PrecisionError):
            divide_by_pi(pi * pi, 2)

    @pytest.mark.parametrize("p, m", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)])
    def test_matches_the_valuation_reference_on_a_seeded_grid(self, p, m):
        # x = u pi^k for every k up to e N + 1 (zero from k = e N on) and every
        # t in -1..N + 1: the same quotient, or the same refusal, word for word
        def outcome(divide, x, t):
            try:
                return divide(x, t)
            except (ValueError, PrecisionError) as exc:
                return type(exc), str(exc)

        rng = random.Random(1000 * p + m)
        for precision in range(1, 5):
            pi = LocalCycloElement.pi(p, m, precision)
            unit = random_unit(rng, p, m, precision)
            for k in range(pi.cap + 2):
                x = unit * pi**k
                for t in range(-1, precision + 2):
                    expected = outcome(local_reference.divide_by_pi, x, t)
                    assert outcome(divide_by_pi, x, t) == expected, (x, t)


class TestKappa:
    def test_one_reaches_lmax(self):
        one = LocalCycloElement(3, 1, 6, [1])
        assert kappa(one, 3) == 3
        one2 = LocalCycloElement(2, 2, 8, [1])
        assert kappa(one2, 4) == 4

    def test_one_plus_pi(self):
        # frozen from the exhaustive enumeration itself: units cube to +-1
        # mod pi^2 when p = 3, so 1 + pi is a cube only to level 1
        x = LocalCycloElement(3, 1, 6, [2, -1])
        assert kappa(x, 3) == 1

    def test_pth_power_reaches_lmax(self):
        rng = random.Random(17)
        for p, m in ((2, 1), (2, 2), (3, 1), (3, 2)):
            cap = kappa_cap(p, m)
            gamma = random_unit(rng, p, m, 8)
            assert kappa(gamma**p, cap) == cap

    def test_invariance_under_unit_pth_powers(self):
        rng = random.Random(19)
        for p, m in ((2, 1), (2, 2), (3, 1)):
            cap = kappa_cap(p, m)
            for _ in range(10):
                u = random_unit(rng, p, m, 8)
                gamma = random_unit(rng, p, m, 8)
                assert kappa(u, cap) == kappa(u * gamma**p, cap)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            kappa(LocalCycloElement.pi(3, 1, 6), 3)

    def test_domain_enforcement(self):
        with pytest.raises(ValueError):
            kappa(LocalCycloElement(5, 1, 6, [1]), 3)
        with pytest.raises(ValueError):
            kappa(LocalCycloElement(3, 2, 6, [1]), 9)  # above the level limit
        with pytest.raises(ValueError):
            kappa(LocalCycloElement(3, 1, 6, [1]), 4)  # above p^m

    def test_insufficient_precision(self):
        with pytest.raises(PrecisionError):
            kappa(LocalCycloElement(3, 1, 2, [1]), 3)


SEARCH_RINGS = ((2, 1), (2, 2), (3, 1), (3, 2))


def minimal_precision(p, m, l_max):
    """The smallest N with e * N >= l_max + e, the least precision kappa accepts."""
    e = LocalCycloElement.pi(p, m, 1).e
    return -(-(l_max + e) // e)


def key_at(x, level):
    return x.ring.key(x.ring.t_basis(x.coeffs, x.p**x.precision), level)


class TestKappaTable:
    @pytest.mark.parametrize("p,m", SEARCH_RINGS)
    def test_agrees_with_the_enumerator(self, p, m):
        rng = random.Random(37 * p + m)
        cap = kappa_cap(p, m)
        count = 3 if (p, m) == (3, 2) else 12
        for precision in (minimal_precision(p, m, cap), minimal_precision(p, m, cap) + 2):
            for _ in range(count):
                u = random_unit(rng, p, m, precision)
                power = random_unit(rng, p, m, precision) ** p
                for x in (u, power * u, power):
                    assert kappa(x, cap) == local_reference.kappa(x, cap), (x, cap)

    @pytest.mark.parametrize("p,m", SEARCH_RINGS)
    def test_lower_levels_at_their_minimal_precision(self, p, m):
        rng = random.Random(41 * p + m)
        for l_max in range(1, kappa_cap(p, m) + 1):
            precision = minimal_precision(p, m, l_max)
            for _ in range(4):
                u = random_unit(rng, p, m, precision)
                x = u * random_unit(rng, p, m, precision) ** p if rng.random() < 0.5 else u
                assert kappa(x, l_max) == local_reference.kappa(x, l_max), (x, l_max)

    def test_one_below_minimal_precision_rejected(self):
        for p, m in SEARCH_RINGS:
            cap = kappa_cap(p, m)
            x = LocalCycloElement(p, m, minimal_precision(p, m, cap) - 1, [1])
            with pytest.raises(PrecisionError):
                kappa(x, cap)

    def test_table_sizes_of_ring_3_2(self):
        # (3, 2): 2 * 3^7 = 4374 units mod pi^8 cube to 18 residues
        assert [len(keys) for keys in LocalCycloElement(3, 2, 2, [1]).ring.pth_powers] == [
            2, 2, 2, 6, 6, 6, 18, 18
        ]

    @pytest.mark.parametrize("p,m", SEARCH_RINGS)
    def test_key_is_the_residue_mod_pi_to_the_level(self, p, m):
        rng = random.Random(43 * p + m)
        for level in range(1, kappa_cap(p, m) + 1):
            precision = minimal_precision(p, m, level)
            pi = LocalCycloElement.pi(p, m, precision)
            for _ in range(6):
                x = random_unit(rng, p, m, precision) * pi ** rng.randrange(0, 3)
                y = LocalCycloElement(p, m, precision, [rng.randrange(p**precision) for _ in x.coeffs])
                assert key_at(x, level) == key_at(x + y * pi**level, level)
                assert key_at(x, level) != key_at(x + pi ** (level - 1), level)


class TestPthPowerTable:
    @pytest.mark.parametrize("p,m", SEARCH_RINGS)
    def test_closure_equals_the_enumeration_at_every_level(self, p, m):
        ring = _LocalRing(p, m)
        assert ring.pth_powers == local_reference.pth_powers(ring)

    def test_ring_3_2_builds_from_few_multiplications(self, monkeypatch):
        calls = 0
        multiply = LocalCycloElement.__mul__

        def counted(x, y):
            nonlocal calls
            calls += 1
            return multiply(x, y)

        monkeypatch.setattr(LocalCycloElement, "__mul__", counted)
        assert len(_LocalRing(3, 2).pth_powers[-1]) == 18
        assert calls < 500


class TestKummerClass:
    def test_uniformizer_shape(self):
        assert kummer_class(LocalCycloElement.pi(3, 1, 8)) == KummerClass(1, None)

    def test_unit_one(self):
        cls = kummer_class(LocalCycloElement(3, 1, 8, [1]))
        assert cls == KummerClass(0, kappa_cap(3, 1))

    def test_valuation_reduced_mod_p(self):
        pi = LocalCycloElement.pi(3, 1, 8)
        two = LocalCycloElement(3, 1, 8, [2])
        assert kummer_class(two * pi**2) == KummerClass(2, None)
        # v = 3 is absorbed into the p-th power pi^3, leaving the unit part
        assert kummer_class(two * pi**3) == kummer_class(two * pi**3)
        assert kummer_class(two * pi**3).v_mod_p == 0

    def test_invariant_under_pth_power_units(self):
        rng = random.Random(23)
        for p, m in ((2, 2), (3, 1)):
            for _ in range(8):
                u = random_unit(rng, p, m, 8)
                gamma = random_unit(rng, p, m, 8)
                assert kummer_class(u) == kummer_class(u * gamma**p)


class TestKummerClassInvariance:
    def test_uniformizer_with_pth_power_cofactor(self):
        rng = random.Random(29)
        pi = LocalCycloElement.pi(3, 1, 8)
        gamma = random_unit(rng, 3, 1, 8)
        assert check_kummer_class_invariance(pi, [gamma**3])

    def test_unit_with_two_cofactors(self):
        rng = random.Random(31)
        u = random_unit(rng, 3, 1, 8)
        g1, g2 = random_unit(rng, 3, 1, 8), random_unit(rng, 3, 1, 8)
        assert check_kummer_class_invariance(u, [g1**3, g2**3])

    def test_bad_cofactor_reported_distinctly(self):
        u = LocalCycloElement(3, 1, 8, [1])
        x = LocalCycloElement(3, 1, 8, [2, -1])  # 1 + pi: kappa = 1 < cap
        with pytest.raises(CofactorError):
            check_kummer_class_invariance(u, [x])
        with pytest.raises(CofactorError):
            check_kummer_class_invariance(u, [LocalCycloElement.pi(3, 1, 8)])

    def test_zero_cofactor_is_not_a_unit(self):
        # its coefficient sum 0 is divisible by p, so it is refused as a non-unit
        u = LocalCycloElement(3, 1, 8, [1])
        with pytest.raises(CofactorError, match="^cofactor 1 is not a unit$"):
            check_kummer_class_invariance(u, [u, LocalCycloElement(3, 1, 8, [0])])

    def test_pi_basis_passes_in_one_seeded_call(self, monkeypatch):
        # one pass per cofactor (its kappa) and two per Kummer class (the
        # valuation, then kappa of the unit part); the valuation of v = 3
        # is not read again to divide by pi^3
        rng = random.Random(32)
        p, m, precision = 3, 2, 6
        target = random_unit(rng, p, m, precision) * LocalCycloElement.pi(p, m, precision) ** 3
        cofactors = [random_unit(rng, p, m, precision) ** p for _ in range(2)]
        _local_ring(p, m).pth_powers  # build the table first, so the count is this call's alone
        passes = []
        t_basis = _LocalRing.t_basis

        def counted(ring, coeffs, modulus):
            passes.append(modulus)
            return t_basis(ring, coeffs, modulus)

        monkeypatch.setattr(_LocalRing, "t_basis", counted)
        assert check_kummer_class_invariance(target, cofactors)
        assert len(passes) == 2 * 1 + 2 * 2


class TestElementBasics:
    def test_immutability(self):
        element = LocalCycloElement(3, 1, 4, [1])
        with pytest.raises(AttributeError):
            element.coeffs = (0, 0)

    def test_precision_below_1_rejected(self):
        with pytest.raises(ValueError, match=r"^precision must be >= 1$"):
            LocalCycloElement(3, 1, 0, [1])

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            LocalCycloElement.pi(3, 1, 4) ** -1

    def test_never_equals_an_int(self):
        assert (LocalCycloElement(3, 1, 4, [1]) == 1) is False

    def test_int_times_element_is_a_type_error(self):
        # not the tuple repeated three times, as a tuple subclass would give
        with pytest.raises(TypeError, match="unsupported operand"):
            _ = 3 * LocalCycloElement(3, 1, 4, [1])

    @pytest.mark.parametrize("operand", [3, (1, 2), None], ids=["int", "tuple", "None"])
    @pytest.mark.parametrize("symbol", ["+", "-", "*"])
    def test_non_element_on_the_right_is_a_type_error(self, symbol, operand):
        apply = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}[symbol]
        name = type(operand).__name__
        message = f"^unsupported operand type\\(s\\) for \\{symbol}: 'LocalCycloElement' and '{name}'$"
        with pytest.raises(TypeError, match=message):
            apply(LocalCycloElement(3, 1, 4, [1]), operand)

    def test_reduction_mod_cyclotomic(self):
        # zeta^2 + zeta + 1 = 0 in the p = 3, m = 1 ring
        z2 = LocalCycloElement(3, 1, 4, [0, 0, 1])
        expected = LocalCycloElement(3, 1, 4, [-1, -1])
        assert z2 == expected

    @pytest.mark.parametrize("precision, coeffs", [(4, [2.9, 1.5]), (4.0, [2, 1]), (4, ["7"])])
    def test_non_integers_rejected(self, precision, coeffs):
        with pytest.raises(TypeError):
            LocalCycloElement(3, 1, precision, coeffs)

    def test_ring_mismatch(self):
        a = LocalCycloElement(3, 1, 4, [1])
        b = LocalCycloElement(2, 2, 4, [1])
        for apply in (lambda: a + b, lambda: a - b, lambda: a * b):
            with pytest.raises(ValueError, match="^ring mismatch$"):
                apply()

    @pytest.mark.parametrize(
        "p, m, message",
        [(4, 1, "4 is not prime"), (1, 2, "1 is not prime"), (2, 0, "m must be >= 1"), (3, -1, "m must be >= 1")],
    )
    def test_ring_needs_a_prime_and_m_at_least_1(self, p, m, message):
        cached = _local_ring.cache_info().currsize
        with pytest.raises(ValueError, match=f"^{message}$"):
            LocalCycloElement(p, m, 3, [2, 1])
        assert _local_ring.cache_info().currsize == cached

    def test_copies_keep_value_and_ring(self):
        x = LocalCycloElement(3, 2, 5, [1, 2, 3, 4, 5, 7])
        for clone in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert clone == x and repr(clone) == repr(x) and hash(clone) == hash(x)
            assert clone.ring is x.ring
            assert kappa(clone, 2) == kappa(x, 2)

    def test_pickled_element_works_in_a_fresh_process(self, tmp_path):
        x = LocalCycloElement(3, 2, 5, [2, 0, 1, 0, 0, 1])
        child = subprocess.run(
            [sys.executable, "-c", "import pickle, sys; from towerforge.local import kappa; "
             "x = pickle.load(sys.stdin.buffer); print(kappa(x, 8), (x * x).coeffs)"],
            input=pickle.dumps(x),
            capture_output=True,
            env=cli_env(tmp_path),
            cwd=tmp_path,
        )
        assert child.returncode == 0, child.stderr.decode()
        assert child.stdout.decode() == f"{kappa(x, 8)} {(x * x).coeffs}\n"


CLOSED_FORM_RINGS = [(p, m) for p in (2, 3, 5, 7, 11, 13) for m in (1, 2, 3)]


class TestClosedForm:
    """Phi_{p^m} = sum_{k<p} x^(k p^(m-1)), against long division by the reference Phi_n."""

    @pytest.mark.parametrize("p, m", CLOSED_FORM_RINGS)
    def test_reduction_equals_long_division(self, p, m):
        phi = cyclo_poly(p**m)
        e = len(phi) - 1
        precision = 3
        pn = p**precision
        lengths = range(2 * e + 2) if e <= 100 else (e - 1, e, e + 1, 2 * e - 1, 3 * p**m)
        rng = random.Random(p**m)
        for n in lengths:
            c = [rng.randrange(-(pn**2), pn**2) for _ in range(n)]
            remainder = [x % pn for x in _poly_divmod_monic(c, phi)[1]]
            expected = tuple(remainder + [0] * (e - len(remainder)))
            assert LocalCycloElement(p, m, precision, c).coeffs == expected, n

    @pytest.mark.parametrize("p, m", CLOSED_FORM_RINGS)
    def test_pi_times_cofactor_is_p(self, p, m):
        phi = cyclo_poly(p**m)
        assert _local_ring(p, m).cofactor == tuple(sum(phi[j + 1 :]) for j in range(len(phi) - 1))
        pi = LocalCycloElement.pi(p, m, 4)
        cofactor = LocalCycloElement(p, m, 4, _local_ring(p, m).cofactor)
        assert pi * cofactor == LocalCycloElement(p, m, 4, [p])

    def test_building_and_multiplying_factors_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("factorize called by the local ring")

        monkeypatch.setattr(cyclotomic, "factorize", refuse)
        monkeypatch.setattr(arith, "factorize", refuse)
        _local_ring.cache_clear()
        for p, m in ((2, 3), (3, 2), (5, 1), (7, 2), (13, 3)):
            x = LocalCycloElement(p, m, 4, range(1, 3 * p**m))
            assert x * x == x**2
            pi = LocalCycloElement.pi(p, m, 4)
            cofactor = LocalCycloElement(p, m, 4, _local_ring(p, m).cofactor)
            assert pi * cofactor == LocalCycloElement(p, m, 4, [p])
        _local_ring.cache_clear()


class TestTBasis:
    """The pi-basis digits by Horner's rule, against the binomial expansion."""

    @pytest.mark.parametrize(
        "p, m", [(p, m) for p, m in CLOSED_FORM_RINGS if (p - 1) * p ** (m - 1) <= 100]
    )
    def test_equals_the_binomial_expansion(self, p, m):
        # sum_i a_i (1 - t)^i = sum_j (-1)^j (sum_i a_i C(i, j)) t^j
        ring = _local_ring(p, m)
        rng = random.Random(7 * p + m)
        for precision in (1, 2, 3):
            pn = p**precision
            for _ in range(4):
                a = [rng.randrange(pn) for _ in range(ring.e)]
                expected = [
                    (-1) ** j * sum(ai * math.comb(i, j) for i, ai in enumerate(a)) % pn
                    for j in range(ring.e)
                ]
                assert ring.t_basis(a, pn) == expected

    @pytest.mark.parametrize("p", [11, 13])
    @pytest.mark.parametrize("v", [1, 2, 3])
    def test_valuation_and_division_in_large_rings(self, p, v):
        # e = 1210 and 2028: one conversion is O(e^2) residue additions
        precision = 4
        unit = LocalCycloElement(p, 3, precision, [2, 5, 7])
        x = unit * LocalCycloElement.pi(p, 3, precision) ** v
        assert pi_valuation(unit) == 0
        assert pi_valuation(x) == v
        assert divide_by_pi(x, v) == LocalCycloElement(p, 3, precision - v, unit.coeffs)

    def test_ring_stores_no_table_for_valuations(self):
        ring = _local_ring(11, 2)
        pi_valuation(LocalCycloElement(11, 2, 3, [2, 5, 7]))
        assert set(vars(ring)) == {"p", "m", "s", "e", "cofactor"}
