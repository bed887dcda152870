"""Primality, factorization, totient, multiplicative order."""

import random
from math import gcd

import pytest

import arith_reference
from arith_reference import abs_pollard_brent, miller_rabin, strip_mult_order, wheel_factorize
from towerforge import arith
from towerforge.arith import (
    _MR_BASES,
    _MR_BOUND,
    _MR_PSI,
    FactoredInteger,
    _least_witness,
    _order_dividing,
    admit_conductor,
    conductor_label,
    euler_phi,
    factorize,
    is_prime,
    is_prime_power,
    mult_order,
    pocklington_prime,
)
from towerforge.errors import BudgetExceededError, FactorizationError


def sieve(limit):
    flags = [True] * limit
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(flags[i * i :: i])
    return flags


def assert_is_order(a, n, k):
    """Certificate check: a^k = 1 and a^(k/q) != 1 for every prime q | k.

    Any smaller order would divide k and hence divide one of the k/q, so this
    certifies minimality without re-running the implementation under test.
    """
    assert pow(a, k, n) == 1
    for q, _ in factorize(k).factors:
        assert pow(a, k // q, n) != 1


class TestIsPrime:
    def test_matches_sieve_below_10000(self):
        flags = sieve(10_000)
        for n in range(10_000):
            assert is_prime(n) == flags[n], n

    def test_sieve_lookup_matches_miller_rabin(self):
        for n in range(-3, arith._TRIAL_BOUND + 100):
            assert is_prime(n) == miller_rabin(n), n

    def test_no_exponentiation_up_to_the_trial_bound(self, monkeypatch):
        def no_pow(*args):
            raise AssertionError(f"pow{args} called")

        monkeypatch.setattr(arith, "pow", no_pow, raising=False)
        assert [n for n in range(arith._TRIAL_BOUND + 1) if is_prime(n)] == list(
            arith._trial_primes()[1]
        )
        with pytest.raises(AssertionError):
            is_prime(arith._TRIAL_BOUND + 1)

    def test_known_large(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(2**32 + 1)
        assert is_prime(20602801)
        assert is_prime(21121)
        assert is_prime(2593)
        assert is_prime(2801)

    def test_strong_pseudoprimes_rejected(self):
        # composites that fool small base sets
        assert not is_prime(3215031751)
        assert not is_prime(3825123056546413051)

    def test_bound_rejection(self):
        with pytest.raises(ValueError):
            is_prime(10**25)


# OEIS A014233, written out here so that a mistyped table entry shows
A014233 = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def psi_bands():
    """(k, low, high), each band nonempty: the n with low <= n < high take the first k bases.

    The bands start above the sieve, so k = 1 has none.
    """
    above_sieve = arith._TRIAL_BOUND + 1
    lows = [max(low, above_sieve) for low in (0,) + _MR_PSI[:-1]]
    return [(k, low, high) for k, (low, high) in enumerate(zip(lows, _MR_PSI), 1) if low < high]


class TestMillerRabinBases:
    """is_prime runs the first k bases on n < psi_k, psi_k from OEIS A014233."""

    def test_psi_table_is_a014233(self):
        assert len(_MR_PSI) == len(_MR_BASES) == 13
        for k, (got, expected) in enumerate(zip(_MR_PSI, A014233), 1):
            assert got == expected, k
        assert _MR_PSI[-1] == _MR_BOUND

    def test_each_psi_is_a_strong_pseudoprime_to_its_bases_and_rejected(self):
        for k, psi in enumerate(_MR_PSI[:-1], 1):
            assert miller_rabin(psi, _MR_BASES[:k]), k  # k bases do not decide psi_k
            assert not miller_rabin(psi), k
            assert not is_prime(psi), k
        with pytest.raises(ValueError):
            is_prime(_MR_BOUND)

    def test_matches_13_bases_in_every_band(self):
        rng = random.Random(2014)
        numbers = []
        for _, low, high in psi_bands():
            numbers += [rng.randrange(low, high) | 1 for _ in range(200)]
            numbers += [n for n in (low - 2, low, low + 2, high - 2, high + 2) if n < _MR_BOUND]
        for n in numbers:
            assert is_prime(n) == miller_rabin(n), n

    def test_no_trial_division_before_miller_rabin_is_needed(self):
        # the reference divides by the 13 bases before its Miller-Rabin rounds
        rng = random.Random(24)

        def multiples(d, low, high):
            return [d * rng.randrange(-(-low // d), high // d) for _ in range(100)]

        numbers = []
        for _, low, high in psi_bands():
            numbers += multiples(2, low, high)
            for b in _MR_BASES:
                numbers += multiples(b, low, high) + multiples(b * b, low, high)
        assert min(numbers) > arith._TRIAL_BOUND and len(numbers) == 9 * 27 * 100
        for n in numbers + list(_MR_PSI[:-1]):
            assert is_prime(n) == miller_rabin(n), n

    def test_a_prime_in_band_k_runs_k_bases(self, monkeypatch):
        bases = []

        def recorded(a, e, n):
            bases.append(a)
            return pow(a, e, n)

        for k, low, high in psi_bands():
            n = next(n for n in range(low | 1, high, 2) if miller_rabin(n))
            bases.clear()
            monkeypatch.setattr(arith, "pow", recorded, raising=False)
            assert is_prime(n)
            monkeypatch.undo()
            assert bases == list(_MR_BASES[:k]), (k, n)


class TestPocklingtonPrime:
    def test_agrees_with_is_prime_on_seeded_candidates(self):
        rng = random.Random(41)
        candidates = [rng.randrange(1, arith._MR_BOUND >> 41) * 2**41 + 1 for _ in range(3000)]
        outcomes = [(pocklington_prime(n), is_prime(n)) for n in candidates]
        assert all(got == expected for got, expected in outcomes)
        assert 30 < sum(expected for _, expected in outcomes) < 300  # both kinds are drawn

    def test_rejects_squares(self):
        # s^2 = 1 (mod 2^41) below 2^82 needs s = +-1 (mod 2^40), s < 2^41; no such s is prime
        for s in (2**40 - 1, 2**40 + 1, 2**41 - 1):
            assert not is_prime(s)
            assert not pocklington_prime(s * s)

    def test_only_minus_one_certifies(self, monkeypatch):
        # a^((n-1)/2) = 1 (mod n) proves nothing: substitute it for the true power
        rng = random.Random(82)
        composites = []
        while len(composites) < 50:
            n = rng.randrange(1, arith._MR_BOUND >> 41) * 2**41 + 1
            if not is_prime(n) and n % 3 == 2:  # 3 is the witness: (3/n) = (n/3) = -1
                composites.append(n)
        monkeypatch.setattr(
            arith, "pow", lambda a, e, m: 1 if m in composites else pow(a, e, m), raising=False
        )
        assert not any(pocklington_prime(n) for n in composites)

    def test_refuses_outside_its_proof(self):
        assert arith._MR_BOUND < 2**82
        for n in (2**82 + 1, 2**82 + 2**41 + 1, 2**83 + 1, 10**100 * 2**41 + 1, 1, 0, -(2**41) + 1,
                  2**41 + 3, 2**41 - 1, 3 * 2**40 + 1):
            with pytest.raises(ValueError):
                pocklington_prime(n)


class TestFactorize:
    def test_flagship_relative_class_numbers(self):
        assert factorize(359057).factors == ((17, 1), (21121, 1))
        assert 2801 * 20602801 == 57708445601
        assert factorize(57708445601).factors == ((2801, 1), (20602801, 1))

    def test_one(self):
        assert factorize(1).factors == ()
        assert factorize(1).value == 1

    @pytest.mark.parametrize("n", [0, -3])
    def test_below_one_rejected(self, n):
        with pytest.raises(ValueError, match=r"^n must be >= 1$"):
            factorize(n)

    def test_recomposition_random(self):
        rng = random.Random(20240811)
        for _ in range(200):
            n = rng.randrange(1, 10**12)
            f = factorize(n)
            prod = 1
            for p, e in f.factors:
                assert is_prime(p)
                prod *= p**e
            assert prod == n

    def test_prime_powers_and_squares(self):
        assert factorize(2**20).factors == ((2, 20),)
        assert factorize(1000003**2).factors == ((1000003, 2),)

    def test_budget_exhaustion(self):
        # product of two 13-digit primes is far beyond a tiny rho budget
        p, q = 1000000000039, 1000000000061
        assert is_prime(p) and is_prime(q)
        with pytest.raises(FactorizationError):
            factorize(p * q, rho_budget=50)

    def test_cofactor_beyond_certification_bound(self):
        with pytest.raises(FactorizationError):
            factorize(10**25 + 13)

    def test_cofactor_too_long_to_print_is_named_by_its_bits(self):
        # 10007 is above the trial bound, and its 1,100th power has 4,401 digits
        n = 10007**1100
        with pytest.raises(FactorizationError) as caught:
            factorize(n)
        assert str(caught.value) == (
            f"cofactor of {n.bit_length()} bits exceeds the deterministic primality bound"
        )

    def test_factored_integer_validation(self):
        with pytest.raises(ValueError):
            FactoredInteger(6, ((2, 1),))  # recomposes to 2
        with pytest.raises(ValueError):
            FactoredInteger(4, ((4, 1),))  # 4 is not prime
        with pytest.raises(ValueError):
            FactoredInteger(6, ((3, 1), (2, 1)))  # unsorted

    def test_str(self):
        assert str(factorize(1)) == "1"
        assert str(factorize(12)) == "2^2 * 3"
        assert str(factorize(359057)) == "17 * 21121"


def outcome(factor, n, rho_budget):
    """factorize's result, or the type and message of what it raised."""
    try:
        return factor(n, rho_budget=rho_budget)
    except (FactorizationError, ValueError) as exc:
        return type(exc), str(exc)


EDGES = (
    [9973**2, 9973 * 10007, 10007**2, 10**8 - 1, 10**8, 10**8 + 1, 9973, 10007, 9967 * 9973]
    + [10007 * 10009, 10007**2 * 9973**3, 2 * 10007, 10**8 * 10007, 1, 2, 7, 49, 10**4]
    + [2**a * 3**b * 5**c * 7 for a in range(0, 40, 7) for b in range(0, 20, 4) for c in range(0, 12, 3)]
)


class TestTrialDivisionByGcd:
    """factorize against the wheel loop it replaced (tests/arith_reference.py)."""

    def assert_same(self, numbers, monkeypatch, rho_budget):
        calls = {"gcd": [], "wheel": []}
        exponents = set()

        def recorded(rho, side):
            def wrapper(m, c, budget, e=2):
                calls[side].append((m, c))
                exponents.add(e)
                return rho(m, c, budget, e)

            return wrapper

        for module, side in ((arith, "gcd"), (arith_reference, "wheel")):
            monkeypatch.setattr(module, "_pollard_brent", recorded(module._pollard_brent, side))
        for n in numbers:
            assert outcome(factorize, n, rho_budget) == outcome(wheel_factorize, n, rho_budget), n
        # rho is handed the same composite survivors in the same order, and
        # without norms every walk is on x^2 + c
        assert calls["gcd"] == calls["wheel"]
        assert exponents <= {2}

    def test_edges(self, monkeypatch):
        self.assert_same(EDGES, monkeypatch, 2_000_000)

    def test_seeded_random_up_to_10_30(self, monkeypatch):
        rng = random.Random(20261018)
        numbers = [rng.randrange(1, 10 ** rng.randrange(2, 31)) for _ in range(150)]
        numbers += [rng.randrange(1, 10**8) * rng.choice([9973, 10007, 9973 * 10007]) for _ in range(50)]
        # a small rho budget keeps the hard composites quick; budget
        # exhaustion must then happen identically on both sides
        self.assert_same(numbers, monkeypatch, 5_000)

    def test_against_sympy_factorint(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(11)
        numbers = EDGES + [rng.randrange(1, 10 ** rng.randrange(2, 19)) for _ in range(300)]
        for n in numbers:
            assert dict(factorize(n).factors) == {int(p): e for p, e in sympy.factorint(n).items()}, n


class TestRhoWithoutAbs:
    """_pollard_brent multiplies by x - y; the earlier walk multiplied by |x - y|."""

    @staticmethod
    def composites(rng, count, low=10**5):
        return [rng.randrange(low, 10 * low) * rng.randrange(low, 10 * low) for _ in range(count)]

    def test_same_factor_and_steps_on_x_squared(self):
        rng = random.Random(2)
        # small factors make the batched gcd overshoot to n, so the
        # step-by-step redo runs too
        for n in self.composites(rng, 60) + self.composites(rng, 60, 10):
            for c in (1, 2, 3):
                assert arith._pollard_brent(n, c, 20_000) == abs_pollard_brent(n, c, 20_000), (n, c)

    def test_same_factor_and_steps_on_x_to_the_324(self):
        rng = random.Random(324)
        numbers = [TestRhoExponent.COMPOSITE] + self.composites(rng, 20)
        for n in numbers:
            for c in (1, 2):
                got = arith._pollard_brent(n, c, 4_000, 324)
                assert got == abs_pollard_brent(n, c, 4_000, 324), (n, c)


class TestRhoExponent:
    # h^-(243) = 2593 * 6252002011 * 922099242709; both large primes are 1 mod 162
    COMPOSITE = 6252002011 * 922099242709

    def test_walk_on_x_to_the_324_splits_in_few_steps(self):
        factor, used = arith._pollard_brent(self.COMPOSITE, 1, 10_000, 324)
        assert factor in (6252002011, 922099242709)
        assert used < 10_000  # 3,071 measured
        # x^2 + 1 needs 73,599 steps
        assert arith._pollard_brent(self.COMPOSITE, 1, 10_000)[0] is None


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(128) == 64
        assert euler_phi(1) == 1
        assert euler_phi(81) == 54

    def test_brute_force_agreement(self):
        for n in range(1, 10_001):
            if n <= 2000 or n % 97 == 0:
                assert euler_phi(n) == sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            euler_phi(0)


class TestMultOrder:
    def test_table_orders(self):
        assert mult_order(2, 21121) == 10560
        assert_is_order(2, 21121, 10560)
        assert mult_order(3, 2593) == 648
        assert_is_order(3, 2593, 648)

    def test_identity(self):
        assert mult_order(1, 7) == 1
        assert mult_order(1, 10**6) == 1

    def test_large_table_entry_resolved(self):
        # the two candidate readings differ by a factor of 10; only one can
        # be an order at all since orders divide phi(20602801) = 20602800
        k = mult_order(5, 20602801)
        assert k == 10301400
        assert_is_order(5, 20602801, k)
        assert 103011400 > euler_phi(20602801)

    def test_exhaustive_scan(self):
        for n in range(2, 201):
            for a in range(1, n):
                if gcd(a, n) != 1:
                    continue
                x, k = a % n, 1
                while x != 1:
                    x = x * a % n
                    k += 1
                assert mult_order(a, n) == k

    def test_random_certificates(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randrange(3, 10_000)
            a = rng.randrange(1, n)
            if gcd(a, n) != 1:
                continue
            assert_is_order(a, n, mult_order(a, n))

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            mult_order(6, 21)
        with pytest.raises(ValueError):
            mult_order(2, 1)

    def test_matches_the_strip_loop_below_10_15(self):
        rng = random.Random(310)
        cases = [(2, 21121), (3, 2593), (5, 20602801)]
        while len(cases) < 3 + 240:
            n = rng.randrange(3, 10**15)
            a = rng.randrange(2, n)
            if gcd(a, n) == 1:
                cases.append((a, n))
        for a, n in cases:
            assert mult_order(a, n) == strip_mult_order(a, n), (a, n)

    def test_ladder_from_any_multiple_of_the_order(self):
        rng = random.Random(21)
        for a, n, k in ((2, 21121, 10560), (3, 2593, 648), (5, 20602801, 10301400)):
            assert _order_dividing(a, n, n - 1, factorize(n - 1).primes) == k
            for _ in range(20):
                t = k * rng.randrange(1, 10**6)
                assert _order_dividing(a, n, t, factorize(t).primes) == k
        assert _order_dividing(1, 7, 1, ()) == 1
        assert _order_dividing(6, 7, 2, (2,)) == 2

    def test_ladder_takes_the_primes_of_t_in_any_order_and_ignores_extra_ones(self):
        # 20602800 = 2^4 3^2 5^2 59 97; 7, 11 and 10007 do not divide it
        primes = factorize(20602800).primes
        for listed in (primes, primes[::-1], {*primes, 7, 11, 10007}):
            assert _order_dividing(5, 20602801, 20602800, listed) == 10301400

    @pytest.mark.parametrize("n", [3, 5, 7, 97, 2593, 21121, 20602801, 10**12 + 39, 10**12 + 61])
    def test_prime_modulus(self, n):
        rng = random.Random(n)
        for a in {2, 3, n - 1, *(rng.randrange(2, n) for _ in range(20))}:
            if a % n:
                assert mult_order(a, n) == strip_mult_order(a, n), (a, n)
                if n < 10**4:
                    assert mult_order(a, n) == brute_order(a, n), (a, n)

    def test_power_of_two_modulus(self):
        rng = random.Random(2)
        for k in range(1, 64):
            n = 2**k
            for a in {1, 3, 5, n - 1, *(rng.randrange(1, n) | 1 for _ in range(5))}:
                a %= n
                if a:
                    expected = brute_order(a, n) if k <= 12 else strip_mult_order(a, n)
                    assert mult_order(a, n) == expected, (a, n)

    @pytest.mark.parametrize(
        "n", [3**5 * 7, 5**3 * 11**2, 2**3 * 7**4 * 13, 3**2 * 2593, 20123**2 * 3, 101**3 * 2**5 * 9]
    )
    def test_prime_power_times_cofactor(self, n):
        # n = p^e r with e >= 2: p itself divides phi(n) and must be laddered
        rng = random.Random(n)
        for a in {2, n - 1, *(rng.randrange(2, n) for _ in range(30))}:
            if gcd(a, n) == 1:
                expected = brute_order(a, n) if n < 10**5 else strip_mult_order(a, n)
                assert mult_order(a, n) == expected, (a, n)

    @pytest.mark.parametrize("p, big", [(20123, 10061), (20183, 10091), (6000199, 1000033)])
    def test_p_minus_1_with_a_prime_above_the_trial_bound(self, p, big):
        assert is_prime(p) and big > 10**4 and big in factorize(p - 1).primes
        rng = random.Random(p)
        for n in (p, p * 3, p * 1000003, p**2 * 5):
            for a in {2, 3, n - 1, *(rng.randrange(2, n) for _ in range(10))}:
                if gcd(a, n) == 1:
                    assert mult_order(a, n) == strip_mult_order(a, n), (a, n)


def brute_order(a, n):
    x, k = a % n, 1
    while x != 1:
        x = x * a % n
        k += 1
    return k


class TestLeastWitness:
    """The one search behind the least primitive root mod p^m and the chirp-z omega mod l."""

    def test_least_primitive_root_of_odd_prime_powers(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            q = p
            while q < 3000:
                phi = q - q // p
                expected = next(g for g in range(2, q) if g % p and brute_order(g, q) == phi)
                assert _least_witness(q, phi, factorize(phi).primes) == expected, q
                q *= p

    def test_least_root_of_40487_is_not_one_of_its_square(self):
        # 5 generates (Z/40487)^* but not (Z/40487^2)^*; 10 is the least that does
        p = 40487
        assert _least_witness(p, p - 1, factorize(p - 1).primes) == 5
        assert _least_witness(p * p, p * (p - 1), factorize(p * (p - 1)).primes) == 10

    @pytest.mark.parametrize("ell", [31, 211, 421, 2311])
    def test_omega_has_exact_order_m(self, ell):
        for m in range(3, ell, 2):
            if (ell - 1) % m:
                continue
            g = _least_witness(ell, ell - 1, factorize(m).primes)
            orders = [brute_order(pow(h, (ell - 1) // m, ell), ell) for h in range(2, g + 1)]
            assert orders[-1] == m and m not in orders[:-1], (ell, m)

    def test_non_units_are_skipped_and_an_exhausted_search_raises(self):
        # every unit mod 15 has order dividing 4; 3 and 5 pass the power test
        # but are not units
        with pytest.raises(ArithmeticError):
            _least_witness(15, 8, (2,))
        with pytest.raises(ArithmeticError):
            _least_witness(8, 4, (2,))

class TestIsPrimePower:
    def test_basic(self):
        assert is_prime_power(8) == (2, 3)
        assert is_prime_power(7) == (7, 1)
        assert is_prime_power(12) is None
        assert is_prime_power(1) is None


class TestAdmitConductor:
    """One order: p prime, m >= 1, budget by bit length, p^m >= 3, p^m <= budget."""

    @pytest.mark.parametrize("p, m, budget", [(3, 5, None), (3, 5, 243), (2, 2, 4), (2, 11, 2048)])
    def test_admitted(self, p, m, budget):
        assert admit_conductor(p, m, budget) == p**m

    @pytest.mark.parametrize(
        "p, m, budget, message",
        [
            (4, 10**6, 1, "4 is not prime"),
            (1, 0, 1, "1 is not prime"),
            (3, 0, 1, "m must be >= 1"),
            (2, 1, None, "conductor 2 has no odd characters; h^- is trivially 1"),
            (2, 1, -5, "conductor 2 has no odd characters; h^- is trivially 1"),
        ],
    )
    def test_value_errors_come_first(self, p, m, budget, message):
        with pytest.raises(ValueError) as refusal:
            admit_conductor(p, m, budget)
        assert str(refusal.value) == message

    @pytest.mark.parametrize(
        "p, m, budget, label",
        [(3, 5, 242, "243"), (2, 2, 3, "4"), (3, 1, -5, "3"), (2, 10**6, 2048, "2^1000000")],
    )
    def test_over_budget(self, p, m, budget, label):
        with pytest.raises(BudgetExceededError) as refusal:
            admit_conductor(p, m, budget)
        assert str(refusal.value) == f"conductor {label} exceeds budget {budget}"

    def test_label_is_decimal_while_int_to_str_converts_it(self):
        assert conductor_label(2, 14000) == 2**14000
        # 2^14284 has 4,300 digits and 2^14285 has 4,301: int-to-str refuses the
        # second by its default limit, though the bit-length check lets it through
        assert conductor_label(2, 14284) == 2**14284
        assert conductor_label(2, 14285) == "2^14285"
        assert conductor_label(2, 15000) == "2^15000"
        assert conductor_label(3, 10**9) == "3^1000000000"
