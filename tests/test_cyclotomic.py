"""Cyclotomic polynomials, both integer kernels, and the reference field arithmetic."""

import random
import sys
from fractions import Fraction
from functools import cache
from itertools import islice
from math import gcd, lcm, prod

import pytest

from cyclo_reference import (
    CycloElement,
    _poly_divmod_monic,
    bareiss_det,
    cyclo_norm,
    cyclo_poly,
    poly_mul,
    resultant,
    unit_values_product,
)

from towerforge import arith, cyclotomic
from towerforge.arith import (
    _MR_BOUND,
    _SMALL_ODD_PRIMES,
    _least_witness,
    euler_phi,
    factorize,
    is_prime,
    pocklington_prime,
)
from towerforge.cyclotomic import (
    _CRT_BLOCK,
    _crt_primes,
    _det_mod,
    _fold,
    _poly_mul,
    _relative_norm,
    _trim,
    _unit_values_product,
    integer_det,
    primitive_root_product,
)


@pytest.fixture
def cold_memos():
    """Empty the prime-block and omega memos, so a test sees the proofs and searches of a fresh process."""
    for memo in (cyclotomic._crt_prime_block, cyclotomic._root_of_unity):
        memo.cache_clear()


def naive_det(m):
    """Laplace expansion along the top row, memoized on the set of columns left."""
    n = len(m)

    @cache
    def minor(columns):  # rows n - |columns| .. n - 1, columns as a bit mask
        if not columns:
            return 1
        row = m[n - columns.bit_count()]
        total, sign = 0, 1
        for j in range(n):
            if columns >> j & 1:
                total += sign * row[j] * minor(columns & ~(1 << j))
                sign = -sign
        return total

    return minor((1 << n) - 1)


def ceiling_matrix(n):
    """det 1; mod every l each elimination step adds (l - 1)^2 to every live slot.

    Row k of the eliminated matrix is all ones from column k on and every row
    below it starts with -1, so each step's pivot row scaled by -1/pivot is
    all l - 1 and each multiplier is l - 1: the last slot ends near n l^2.
    """
    return [[1 - i if i <= j else -1 - j for j in range(n)] for i in range(n)]


class TestCycloPoly:
    def test_small(self):
        assert cyclo_poly(1) == (-1, 1)
        assert cyclo_poly(2) == (1, 1)
        assert cyclo_poly(4) == (1, 0, 1)
        assert cyclo_poly(9) == (1, 0, 0, 1, 0, 0, 1)

    def test_prime_is_all_ones(self):
        for p in (3, 5, 7, 11, 13):
            assert cyclo_poly(p) == (1,) * p

    def test_degrees_sum_to_n(self):
        for n in range(1, 501):
            total = sum(len(cyclo_poly(d)) - 1 for d in range(1, n + 1) if n % d == 0)
            assert total == n

    def test_product_over_divisors_is_xn_minus_1(self):
        for n in (6, 12, 30, 100):
            prod = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = poly_mul(prod, list(cyclo_poly(d)))
            assert prod == [-1] + [0] * (n - 1) + [1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            cyclo_poly(0)

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for n in (*range(1, 401), 2026, 2048, 2310):
            expected = sympy.cyclotomic_poly(n, x, polys=True).all_coeffs()[::-1]
            assert list(cyclo_poly(n)) == expected, n


def schoolbook(a, b):
    return _trim(poly_mul(a, b)) if a and b else []


class TestPolyKernels:
    def test_mul_against_schoolbook(self):
        # both branches, either side of the packing threshold, signed and
        # zero coefficients (trailing zeros too) up to 2^300, and squaring
        rng = random.Random(71)
        for la in [*range(41), 256]:
            for lb in (0, 1, 2, 11, 12, 13, 40, la):
                for span in (1, 2**30, 2**300):
                    a = [rng.randrange(-span, span + 1) for _ in range(la)]
                    b = [rng.choice((0, rng.randrange(-span, span + 1))) for _ in range(lb)]
                    if lb > 2:
                        b[-2:] = [0, 0]
                    assert _poly_mul(a, b) == schoolbook(a, b), (la, lb, span)
                    assert _poly_mul(b, a) == schoolbook(b, a), (la, lb, span)
                    assert _poly_mul(a, a) == schoolbook(a, list(a)), (la, span)
        assert _poly_mul([0] * 20, [5] * 20) == []
        extreme = [-(2**300)] * 256
        assert _poly_mul(extreme, extreme) == schoolbook(extreme, extreme)

    def test_mul_at_the_slot_ceiling(self):
        # n = 2^j - 1 terms of 2^x - 1 each: the middle coefficient is about
        # 2^(j + 2x), the most the slots allow, with j + 2x a multiple of 8 so
        # that the sign bit of every slot is needed
        for j, x in ((4, 2), (4, 30), (8, 8), (8, 300)):
            top = 2**x - 1
            a = [top] * (2**j - 1)
            for b in (a, list(a), [-top] * len(a)):
                assert _poly_mul(a, b) == schoolbook(a, b), (j, x)

    def test_mul_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coefficients = st.lists(st.integers(-(2**300), 2**300), max_size=40)

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(coefficients, coefficients)
        def check(a, b):
            assert _poly_mul(a, b) == schoolbook(a, b)
            assert _poly_mul(a, a) == schoolbook(a, list(a))

        check()

    def test_divmod_monic(self):
        rng = random.Random(67)
        for _ in range(200):
            den = [rng.choice((0, 0, 1, -1, 2)) for _ in range(rng.randrange(0, 6))] + [1]
            num = [rng.randrange(-50, 51) for _ in range(rng.randrange(0, 20))]
            quo, rem = _poly_divmod_monic(num, den)
            assert len(rem) < len(den) and (not rem or rem[-1] != 0)
            back = poly_mul(quo, den) if quo else []
            back = [x + (rem[i] if i < len(rem) else 0) for i, x in enumerate(back + [0] * len(num))]
            assert back[: len(num)] == num and not any(back[len(num) :])


class TestIntegerDet:
    @staticmethod
    def check(m, naive=True):
        expected = bareiss_det(m)
        assert integer_det(m) == expected
        if naive:
            assert naive_det(m) == expected

    def test_against_naive(self):
        rng = random.Random(11)
        for n in range(13):
            for _ in range(20 if n <= 6 else 3):
                self.check([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])

    def test_empty_and_singular(self):
        assert integer_det([]) == 1
        assert integer_det([[1, 2], [2, 4]]) == 0
        rng = random.Random(13)
        for n in range(2, 13):
            m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            m[n - 1] = m[0][:]  # duplicate rows
            self.check(m)
            assert integer_det(m) == 0
            m[n - 1] = [0] * n
            m[0] = [3 * x for x in m[1]]  # proportional rows
            self.check(m)

    def test_zero_leading_pivot_forces_a_swap(self):
        self.check([[0, 1, 2], [3, 4, 5], [6, 7, 9]])
        self.check([[0, 0, 1, 2], [0, 3, 4, 5], [6, 7, 8, 9], [1, 0, 0, 1]])
        ell = next(_crt_primes(1))
        # nonzero pivot that vanishes mod the first prime: the swap happens in F_l
        self.check([[ell, 1], [1, 1]])
        assert _det_mod([[ell, 1], [1, 1]], ell) == ell - 1

    def test_negative_entries_and_entries_above_the_primes(self):
        ell = next(_crt_primes(1))
        rng = random.Random(17)
        for n in range(1, 13):
            m = [[rng.randrange(-(10**30), 10**30) for _ in range(n)] for _ in range(n)]
            self.check(m, naive=n <= 8)
            m = [
                [ell * rng.randrange(-3, 4) + rng.randrange(-2, 3) for _ in range(n)]
                for _ in range(n)
            ]
            self.check(m, naive=n <= 8)

    def test_slots_at_the_ceiling(self):
        # 64 rows: the last slot reaches about 63 l^2 > 2^168, past a slot of
        # 2 bitlen(l) bits rounded to bytes, so a slot without the bitlen(n + 1)
        # headroom carries into its neighbour here.
        ell = next(_crt_primes(1))
        for n in (12, 64):
            m = ceiling_matrix(n)
            self.check(m, naive=n <= 12)
            assert integer_det(m) == 1
            assert _det_mod(m, ell) == 1

    def test_the_lift_at_the_slot_ceiling(self, monkeypatch):
        # scaling row 0 by s makes B^-1 e_1 = (ceiling^-1 e_1)/s, so the lift
        # verifies only if its forward pass survives the same slot growth
        found = self.record_divisors(monkeypatch)
        for scale in (3, 2**90 + 1):
            m = ceiling_matrix(64)
            m[0] = [scale * x for x in m[0]]
            assert integer_det(m) == scale
            assert found[-1] == scale

    def test_caller_bound(self):
        m = [[2, 1], [1, 2]]
        assert integer_det(m, 9) == 3

    @pytest.mark.parametrize(
        "matrix, error",
        [
            ([[1, 2], [3, 4], [5, 6]], ValueError),  # 3 x 2
            ([[1, 2], [3]], ValueError),  # ragged
            ([[1, 2, 3], [4, 5, 6]], ValueError),  # 2 x 3
            ([[1, 2], [3, 4.0]], TypeError),
            ([[1, 2], [3, "4"]], TypeError),
        ],
    )
    def test_malformed_matrices_are_refused(self, matrix, error):
        with pytest.raises(error):
            integer_det(matrix)

    @staticmethod
    def record_divisors(monkeypatch) -> list:
        """Patch ``_lifted_divisor`` to record each divisor it proves."""
        found, real = [], cyclotomic._lifted_divisor

        def recording(*args):
            found.append(real(*args))
            return found[-1]

        monkeypatch.setattr(cyclotomic, "_lifted_divisor", recording)
        return found

    @staticmethod
    def record_primes(monkeypatch) -> list:
        """Patch ``_det_mod`` to record the prime of each elimination."""
        seen, real = [], cyclotomic._det_mod

        def recording(matrix, ell, *steps):
            seen.append(ell)
            return real(matrix, ell, *steps)

        monkeypatch.setattr(cyclotomic, "_det_mod", recording)
        return seen

    def test_the_lifted_divisor_divides_det(self, monkeypatch):
        found = self.record_divisors(monkeypatch)
        rng = random.Random(19)
        for n in range(1, 13):
            for bits in (20, 100):
                m = [[rng.randrange(-(1 << bits), 1 << bits) for _ in range(n)] for _ in range(n)]
                found.clear()
                self.check(m, naive=n <= 8)
                assert all(bareiss_det(m) % divisor == 0 for divisor in found), (n, bits)
                # with Hadamard's bound above l^2 / 4 the lift runs, and succeeds
                assert bits < 100 or found[0] > 1, n

    def test_det_divisible_by_the_first_prime_skips_the_lift(self, monkeypatch):
        ell = next(_crt_primes(1))
        monkeypatch.setattr(cyclotomic, "_lifted_divisor", lambda *args: pytest.fail("lifted a singular system"))
        for m in ([[ell, 0], [0, 1]], [[ell, 1], [3 * ell, 2]], [[ell * ell, 5], [7 * ell, ell]]):
            self.check(m)
            assert integer_det(m) != 0

    def test_a_prime_dividing_the_lifted_divisor_is_skipped(self, monkeypatch):
        first, second, third = islice(_crt_primes(1), 3)
        found, seen = self.record_divisors(monkeypatch), self.record_primes(monkeypatch)
        # the caller's bound leaves t = det/D two primes' worth of room
        assert integer_det([[second, 0], [0, 1]], (first * second) ** 2) == second
        assert found == [second] and seen == [first, third]

    def test_a_unimodular_matrix_lifts_to_divisor_one(self, monkeypatch):
        found = self.record_divisors(monkeypatch)
        a, b = 3**50, -(5**40)
        m = [[1 + a * b, a, 0], [b, 1, 0], [7, 11, 1]]  # det 1, Hadamard's bound above l^2
        assert integer_det(m) == bareiss_det(m) == 1
        assert found == [1]


class TestResultant:
    def test_hand_values(self):
        # Res(x^2+1, x) = product of the roots of x^2+1 mapped through x
        assert resultant([1, 0, 1], [0, 1]) == 1
        # Res(x^2-1, x-2) = (2-1)(2+1) up to the usual sign bookkeeping
        assert abs(resultant([-1, 0, 1], [-2, 1])) == 3
        assert resultant([1, 1], [5]) == 5
        assert resultant([], [1, 1]) == 0

    def test_swap_symmetry(self):
        rng = random.Random(23)
        for _ in range(50):
            f = [rng.randrange(-5, 6) for _ in range(rng.randrange(2, 5))]
            g = [rng.randrange(-5, 6) for _ in range(rng.randrange(2, 5))]
            if not any(f) or not any(g) or f[-1] == 0 or g[-1] == 0:
                continue
            m, n = len(f) - 1, len(g) - 1
            assert resultant(f, g) == (-1) ** (m * n) * resultant(g, f)

    def test_multiplicative_in_second_argument(self):
        rng = random.Random(29)
        for _ in range(50):
            f = [rng.randrange(-4, 5) for _ in range(3)] + [1]  # monic cubic
            g = [rng.randrange(-4, 5) for _ in range(3)]
            h = [rng.randrange(-4, 5) for _ in range(3)]
            if not any(g) or not any(h):
                continue
            assert resultant(f, poly_mul(g, h)) == resultant(f, g) * resultant(f, h)


# Orders of the odd-orbit representatives of every conductor the benchmark
# sweeps (2^m, m <= 11; 3^m, m <= 6; 5^m, m <= 4; 7^m, m <= 3), plus d = 2.
SWEEP_ORBIT_ORDERS = (
    2, 4, 6, 8, 14, 16, 18, 20, 32, 42, 54, 64, 98, 100, 128, 162, 256, 294, 486, 500, 512,
)


def test_product_equals_the_sylvester_resultant():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(
        st.sampled_from(SWEEP_ORBIT_ORDERS),
        st.lists(st.integers(-20, 20), min_size=1, max_size=4),
    )
    def check(d, w):
        assert primitive_root_product(d, w) == resultant(cyclo_poly(d), w)

    check()


class TestPrimitiveRootProduct:
    def test_against_sylvester_resultant(self):
        # Full-length vectors up to d = 128; above that the Sylvester matrix
        # of a full vector costs seconds, so W has degree 5 there.
        rng = random.Random(47)
        for d in SWEEP_ORBIT_ORDERS:
            w = [rng.randrange(-9, 10) for _ in range(d if d <= 128 else 6)]
            assert primitive_root_product(d, w) == resultant(cyclo_poly(d), w), d

    def test_squarefree_radicals_against_sylvester_resultant(self):
        # no descent at a squarefree d: W of degree phi(d) reduces to phi(d)
        # terms, all evaluated mod l; 3 or 4 prime factors each
        rng = random.Random(59)
        for d in (30, 66, 78, 105, 130, 190, 210):
            w = [rng.randrange(0, 2 * d) for _ in range(euler_phi(d) + 1)]
            assert primitive_root_product(d, w) == resultant(cyclo_poly(d), w), d

    def test_vectors_longer_than_d_are_folded(self):
        rng = random.Random(53)
        for d in (1, 2, 3, 6, 12, 25):
            w = [rng.randrange(-9, 10) for _ in range(2 * d + 3)]
            assert primitive_root_product(d, w) == resultant(cyclo_poly(d), w)

    def test_hand_values(self):
        assert primitive_root_product(1, [7]) == 7
        assert primitive_root_product(2, [3, 1]) == 2  # W(-1)
        assert primitive_root_product(4, [0, 1]) == 1  # i * (-i)
        for p in (3, 5, 7, 11, 13):
            assert primitive_root_product(p, [1, -1]) == p  # N(1 - zeta_p)

    def test_non_integer_weights_rejected(self):
        for d, w in ((3, [1.5, 2]), (9, [0.5] * 9), (4, [1, 2.0])):
            with pytest.raises(TypeError):
                primitive_root_product(d, w)

    def test_zero_vector(self):
        for d in (1, 2, 8, 500, 512):
            assert primitive_root_product(d, [0] * d) == 0
        assert primitive_root_product(6, []) == 0

    def test_multiple_of_phi_d(self):
        for d in (2, 6, 12, 98, 100, 512):
            phi = list(cyclo_poly(d))
            padded = phi + [0] * (d - len(phi))
            assert primitive_root_product(d, padded) == 0
            assert primitive_root_product(d, [3 * c for c in padded]) == 0
            assert primitive_root_product(d, [5] * d) == 0  # 5(1 + x + ... + x^(d-1))

    @pytest.mark.parametrize("d", [682, 1018, 2026])
    def test_chirp_residues_equal_the_dot_products(self, d):
        # the radicals of the orbits of order p - 1 at p = 683, 1019, 2027;
        # f of phi(d) terms and of d terms, as W folded mod x^d - 1 has, each
        # folded mod B_d = x^m + 1, m = d/2, by the kernel's own fold, then
        # handed over as f(-x) mod x^m - 1 at the odd m and compared with the
        # dot products on f itself at d, which checks the fold and the sign
        m = d // 2
        primes = factorize(m).primes
        rng = random.Random(d)
        reduced = [rng.randrange(-(10**30), 10**30) for _ in range(euler_phi(d))]
        folded = [rng.randrange(-(10**6), 10**6) for _ in range(d)]
        for ell in islice(_crt_primes(d), 3):
            for f in (reduced, folded, [0, 1], [7]):
                g = [-c if i & 1 else c for i, c in enumerate(_fold(f, d))]
                assert _unit_values_product(g, m, primes, ell) == unit_values_product(f, d, ell)

    @pytest.mark.parametrize("d, count", [(15, 1), (98, 4), (243, 14), (682, 29)])
    def test_draws_the_fewest_primes_past_the_parseval_limit(self, monkeypatch, d, count):
        # the least k primes whose product M has M^2 phi^phi > 4 (d S)^phi,
        # S the sum of the squared weights less the floor of their mean; count pinned
        drawn = []

        def recorded(n):
            for ell in _crt_primes(n):
                drawn.append(ell)
                yield ell

        monkeypatch.setattr(cyclotomic, "_crt_primes", recorded)
        rng = random.Random(d)
        w = [rng.randrange(-9, 10) for _ in range(d)]
        primitive_root_product(d, w)
        phi, shift = euler_phi(d), sum(w) // d
        limit = 4 * (d * sum((c - shift) ** 2 for c in w)) ** phi
        modulus = prod(drawn)
        assert (modulus // drawn[-1]) ** 2 * phi**phi <= limit < modulus**2 * phi**phi
        assert len(drawn) == count

    def test_one_factorize_per_call_and_none_in_the_kernel(self, monkeypatch):
        # d = 1, 2, powers of two, odd and even radicals, and a descent to each
        callers = []

        def recorded(n, *args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return factorize(n, *args, **kwargs)

        monkeypatch.setattr(cyclotomic, "factorize", recorded)
        ds = (1, 2, 8, 15, 30, 42, 45, 98, 105)
        rng = random.Random(67)
        for d in ds:
            w = [rng.randrange(-9, 10) for _ in range(d + 1)]
            assert primitive_root_product(d, w) == resultant(cyclo_poly(d), w), d
        assert callers == ["primitive_root_product"] * len(ds)

    def test_never_builds_or_divides_by_phi_d(self):
        assert not hasattr(cyclotomic, "cyclo_poly")
        assert not hasattr(cyclotomic, "_poly_divmod_monic")
        radicals = {prod(factorize(d).primes) for d in SWEEP_ORBIT_ORDERS}
        squarefree = (30, 66, 78, 105, 130, 190, 210)
        odd = (9, 25, 27, 45, 243, 343)
        rng = random.Random(61)
        for d in sorted({1, 2, *SWEEP_ORBIT_ORDERS, *radicals, *squarefree, *odd}):
            primitive_root_product(d, [rng.randrange(-9, 10) for _ in range(d + 1)])

    def test_crt_primes_are_certified_and_of_the_right_residue(self):
        for d in (2, 486, 500, 512, *WALK_DS):
            primes = list(islice(_crt_primes(d), 40))
            assert len(set(primes)) == 40
            assert all((ell - 1) % lcm(d, 2**41) == 0 and ell < _MR_BOUND for ell in primes), d
            assert all(is_prime(ell) for ell in primes), d

    def test_crt_primes_pass_sympy(self):
        sympy = pytest.importorskip("sympy")
        for d in WALK_DS:
            assert all(sympy.isprime(ell) for ell in islice(_crt_primes(d), 40)), d

    def test_sieved_walk_finds_every_prime_in_order(self, cold_memos):
        for d in (1, 2, 6, 10, 14, 42, 210, 682, 2026):
            assert list(islice(_crt_primes(d), 30)) == list(islice(_fresh_crt_primes(d), 30)), d

    def test_one_exponentiation_per_sieve_survivor(self, monkeypatch, cold_memos):
        # every candidate k L + 1 with no odd prime factor up to 73, up to the
        # end of the last block read, is exponentiated once, with no is_prime
        # call; the rest never are
        moduli = []

        def counting_pow(*args):
            if len(args) == 3 and args[2] >> 41:
                moduli.append(args[2])
            return pow(*args)

        def refuse(n):
            raise AssertionError(f"is_prime({n}) called by the walk")

        monkeypatch.setattr(arith, "pow", counting_pow, raising=False)
        for module in (arith, cyclotomic):
            monkeypatch.setattr(module, "is_prime", refuse, raising=False)
        sieve = prod(_SMALL_ODD_PRIMES)
        for d in (1, 42, 2026, 2310):
            moduli.clear()
            step = lcm(d, 2**41)
            primes = list(islice(_crt_primes(d), 20))
            top, last = (_MR_BOUND - 2) // step, (primes[-1] - 1) // step
            end = top - ((top - last) // _CRT_BLOCK + 1) * _CRT_BLOCK  # below the last block read
            candidates = (k * step + 1 for k in range(top, max(end, 0), -1))
            survivors = [ell for ell in candidates if gcd(ell, sieve) == 1]
            assert moduli == survivors, d
            assert len(survivors) > len(primes)

    def test_crt_primes_are_certified_once_per_d(self, monkeypatch, cold_memos):
        # 294 = 2 * 3 * 7^2 descends to its radical 42, where the primes are drawn
        calls = []
        monkeypatch.setattr(
            cyclotomic, "pocklington_prime", lambda n: calls.append(n) or pocklington_prime(n)
        )
        weights = list(range(1, 296))
        first = primitive_root_product(294, weights)
        assert calls and all((n - 1) % lcm(42, 2**41) == 0 for n in calls)
        proven = list(calls)
        calls.clear()
        assert primitive_root_product(294, weights) == first
        assert calls == []
        # a longer walk proves only candidates below every one proven so far
        # and matches a fresh search
        known = [ell for ell in proven if pocklington_prime(ell)]
        longer = list(islice(_crt_primes(42), len(known) + 2))
        assert longer[:-2] == known
        assert calls and max(calls) < min(proven)
        assert longer == list(islice(_fresh_crt_primes(42), len(longer)))

    def test_repeated_product_proves_and_searches_nothing(self, monkeypatch):
        # the second call reads its primes and every omega off the memos
        weights = list(range(1, 296))
        first = primitive_root_product(294, weights)
        calls = []
        monkeypatch.setattr(
            cyclotomic, "pocklington_prime", lambda n: calls.append(n) or pocklington_prime(n)
        )
        monkeypatch.setattr(
            cyclotomic, "_least_witness", lambda *args: calls.append(args) or _least_witness(*args)
        )
        assert primitive_root_product(294, weights) == first
        assert calls == []

    def test_interleaved_walks_memoize_each_prime_once(self, monkeypatch, cold_memos):
        calls = []
        monkeypatch.setattr(
            cyclotomic, "pocklington_prime", lambda n: calls.append(n) or pocklington_prime(n)
        )
        first, second = _crt_primes(42), _crt_primes(42)
        head = list(islice(first, 3))
        both = list(islice(second, 6)) + list(islice(first, 5))
        expected = list(islice(_fresh_crt_primes(42), 8))
        assert head + both == expected[:3] + expected[:6] + expected[3:8]
        assert len(calls) == len(set(calls)) and set(expected) <= set(calls)
        blocks = cyclotomic._crt_prime_block.cache_info()
        assert blocks.misses == blocks.currsize and blocks.hits

    def test_walks_with_one_modulus_share_their_proofs(self, monkeypatch, cold_memos):
        # lcm(1, 2^41) = lcm(2, 2^41): the walks for d = 1 and d = 2 are one walk
        calls = []
        monkeypatch.setattr(
            cyclotomic, "pocklington_prime", lambda n: calls.append(n) or pocklington_prime(n)
        )
        even = list(islice(_crt_primes(2), 12))
        assert calls
        calls.clear()
        assert list(islice(_crt_primes(1), 12)) == even
        assert calls == []

    def test_every_memoized_root_of_unity_has_exact_order_m(self, monkeypatch, cold_memos):
        seen = []
        root = cyclotomic._root_of_unity
        monkeypatch.setattr(
            cyclotomic, "_root_of_unity", lambda *args: seen.append(args) or root(*args)
        )
        rng = random.Random(71)
        for d in (15, 30, 42, 45, 98, 105, 294, 682):
            primitive_root_product(d, [rng.randrange(-9, 10) for _ in range(d)])
        assert root.cache_info().currsize == len(set(seen)) > 0
        for ell, m, primes in set(seen):
            omega = root(ell, m, primes)
            assert pow(omega, m, ell) == 1, (ell, m)
            assert all(pow(omega, m // r, ell) != 1 for r in factorize(m).primes), (ell, m)

    def test_powers_of_two_finish_without_a_prime(self, monkeypatch, cold_memos):
        calls = []
        monkeypatch.setattr(
            cyclotomic, "pocklington_prime", lambda n: calls.append(n) or pocklington_prime(n)
        )
        rng = random.Random(59)
        for k in range(10):
            d = 2**k
            w = [rng.randrange(-9, 10) for _ in range(d if d <= 128 else 6)]
            if d <= 256:
                assert primitive_root_product(d, w) == resultant(cyclo_poly(d), w), d
            assert primitive_root_product(d, list(range(1, d + 1))) != 0
        assert calls == []
        for memo in (cyclotomic._crt_prime_block, cyclotomic._root_of_unity):
            assert memo.cache_info().currsize == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            primitive_root_product(0, [1])


class TestRelativeNorm:
    @pytest.mark.parametrize(
        "d, r",
        [(8, 2), (18, 3), (50, 5), (98, 7), (54, 3), (100, 2), (100, 5), (294, 7),
         (486, 3), (500, 2), (500, 5), (512, 2), (27, 3), (245, 7)],
    )
    def test_product_of_conjugates(self, d, r):
        # Gal(Q(zeta_d)/Q(zeta_{d/r})) is the kernel of (Z/d)^* -> (Z/(d/r))^*;
        # the descent holds f folded mod B_d, and its norm comes back folded
        # mod B_{d/r}, so it is reduced mod Phi_{d/r} here to compare
        rng = random.Random(d * r)
        f = [rng.randrange(-3, 4) for _ in range(d)]
        group = [j for j in range(1, d) if gcd(j, d) == 1 and j % (d // r) == 1]
        assert len(group) == r
        expected = CycloElement.from_rational(1, d)
        for j in group:
            conjugate = [0] * d
            for i, c in enumerate(f):
                conjugate[i * j % d] += c
            expected = expected * CycloElement(d, conjugate)
        norm = _relative_norm(_fold(f, d), d, r)
        assert len(norm) == len(_fold([], d // r))
        reduced = _poly_divmod_monic(norm, cyclo_poly(d // r))[1]
        assert CycloElement(d // r, reduced).lift_to(d) == expected

    def test_zero(self):
        assert _relative_norm(_fold([], 8), 8, 2) == _fold([], 4) == [0, 0]
        assert _relative_norm(_fold([], 27), 27, 3) == _fold([], 9) == [0] * 9


# the moduli d of the walk tests: squarefree, even and odd, up to the radicals of the sweep's orbits
WALK_DS = (1, 2, 3, 6, 10, 14, 42, 210, 1018, 2026, 2310)


def _fresh_crt_primes(d):
    """Every k lcm(d, 2^41) + 1 below the bound that ``is_prime`` certifies, descending."""
    step = lcm(d, 2**41)
    k = (_MR_BOUND - 2) // step
    while k > 0:
        if is_prime(k * step + 1):
            yield k * step + 1
        k -= 1


def random_element(rng, n, span=6):
    deg = euler_phi(n)
    return CycloElement(n, [Fraction(rng.randrange(-span, span + 1)) for _ in range(deg)])


class TestCycloElement:
    def test_zeta_power_relations(self):
        for n in (3, 4, 5, 8, 9, 12):
            z = CycloElement.zeta(n)
            assert z**n == 1
            assert z ** euler_phi(n) != 1 or euler_phi(n) == n

    def test_arithmetic_ring_axioms(self):
        rng = random.Random(31)
        for n in (5, 8, 9):
            a, b, c = (random_element(rng, n) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)

    def test_inverse(self):
        rng = random.Random(37)
        for n in (4, 5, 7, 9):
            for _ in range(10):
                a = random_element(rng, n)
                if a.is_zero():
                    continue
                assert a * a.inverse() == 1
        with pytest.raises(ZeroDivisionError):
            CycloElement.from_rational(0, 5).inverse()

    def test_lift_to(self):
        z3 = CycloElement.zeta(3)
        assert z3.lift_to(9) == CycloElement.zeta(9) ** 3
        rng = random.Random(41)
        a, b = random_element(rng, 3), random_element(rng, 3)
        assert (a * b).lift_to(9) == a.lift_to(9) * b.lift_to(9)
        with pytest.raises(ValueError):
            z3.lift_to(8)

    def test_rational_detection(self):
        e = CycloElement.from_rational(Fraction(3, 7), 5)
        assert e.is_rational() and e.rational_value() == Fraction(3, 7)
        assert not CycloElement.zeta(5).is_rational()


class TestCycloNorm:
    def test_one_minus_zeta_p(self):
        for p in (3, 5, 7, 11, 13):
            e = 1 - CycloElement.zeta(p)
            assert cyclo_norm(e) == p

    def test_rational_constant(self):
        for n in (4, 9, 12):
            c = Fraction(-3, 2)
            assert cyclo_norm(CycloElement.from_rational(c, n)) == c ** euler_phi(n)

    def test_zeta4(self):
        assert cyclo_norm(CycloElement.zeta(4)) == 1

    def test_multiplicative(self):
        rng = random.Random(43)
        for n in (5, 8, 9, 12):
            for _ in range(8):
                a, b = random_element(rng, n, 3), random_element(rng, n, 3)
                assert cyclo_norm(a * b) == cyclo_norm(a) * cyclo_norm(b)

    def test_zero(self):
        assert cyclo_norm(CycloElement.from_rational(0, 7)) == 0
