"""Dirichlet characters of prime-power modulus and relative class numbers.

The relative class number h^- of the cyclotomic field of conductor q = p^m is
recomputed from scratch two independent ways, both in integers only:

* product formula: h^- = Q * w * prod_{chi odd} (-B(chi)/2), where
  B(chi) = (1/q) sum_a chi(a) a over units a mod q, w is the number of roots
  of unity in the field (q for even q, 2q for odd q) and the unit index Q is 1
  for prime-power conductor. The product is grouped into Galois orbits of
  characters, one representative each, enumerated from the structure of the
  unit group. A representative of order d has the integer weight polynomial
  W = sum_a a x^{k(a)}, where chi(a) = zeta_d^{k(a)}, so qB(chi) = W(zeta_d)
  and the orbit contributes N(-B(chi)/2) = Res(Phi_d, W)/(-2q)^phi(d)
  (Washington, Introduction to Cyclotomic Fields, Thm 4.17). The kernel
  ``primitive_root_product`` computes Res(Phi_d, W) = prod W(zeta_d^j) over
  j in (Z/d)^*. Every d here is p^a e with e | p - 1, so it first takes exact
  relative norms down the tower Q(zeta_d) > Q(zeta_{d/p}) > ... to the
  squarefree level rad(d), where Gal(Q(zeta_d)/Q(zeta_{d/r})), r^2 | d, is
  {x -> x^(1 + k d/r)} and the norm is read off Z[x^r]. For p = 2 that ends
  at Q and is exact. Otherwise it evaluates modulo certified primes
  l = 1 (mod rad(d)) and recombines the residues by CRT until the modulus
  exceeds twice the Parseval/AM-GM bound (d sum w_i^2 / phi(d))^{phi(d)/2} of
  the original W, since the norm is the same integer. The weights come
  straight from each unit's generator exponents: chi(g_i) = zeta_d^(k_i d/s_i).
  Since the phi(d) add up to phi(q)/2, h^- = w * prod Res / (-2q)^{phi(q)/2},
  one exact integer division.

* determinant oracle: no characters at all. Over a half-system a_1..a_n of
  units mod q (one from each pair {a, -a}), the matrix with entries
  g(a_i * a_j^-1), for any odd function g on the units, has the vectors
  (chi(a_j))_j as eigenbasis with eigenvalues sum_{half} g(a)chi(a), one per
  odd character chi. Taking g(x) = R(x)/q - 1/2 (R = least positive residue)
  makes the eigenvalue B(chi)/2, hence h^- = Q * w * |det|. Scaled to the
  integers M_ij = 2R(a_i c_j) - q, with c_j = a_j^-1 mod q, this reads
  h^- = w |det M| / (2q)^n.

  Identity. With F_ij = floor(a_i c_j / q), R(a_i c_j) = a_i c_j - q F_ij, so
  M = -2q (F - a c^T/q + 1 1^T/2). The bordered integer matrix
  B = [[F, a, 1], [c^T, q, 0], [-1^T, 0, 2]] has the lower-right block
  D = diag(q, 2), and the Schur complement gives
  det B = det D * det(F - [a 1] D^-1 [c^T; -1^T])
        = 2q det(F - a c^T/q + 1 1^T/2) = 2q det M / (-2q)^n.
  Hence h^- = w |det B| / (2q): plain linear algebra, no characters.

  Bound. Hadamard's inequality |det M|^2 <= prod_i sum_j M_ij^2 gives
  (det B)^2 <= 4q^2 prod_i sum_j M_ij^2 / (2q)^(2n). ``integer_det`` computes
  det B by elimination modulo certified primes l > 2q, with every row packed
  into one int, until their product exceeds twice the square root of this
  bound. At q = 343 that gives |det B| < 2^276, where Hadamard on M alone
  gives 2^1651: 4 primes do instead of 21.

Character values are held as exponents on fixed generators; each character
carries the unit-group structure they refer to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product
from math import gcd, lcm, prod
from operator import mul

from .arith import FactoredInteger, euler_phi, factorize, is_prime
from .cyclotomic import integer_det, primitive_root_product
from .errors import BudgetExceededError, IntegralityError


@dataclass(frozen=True)
class _UnitGroup:
    """Structure of (Z/q)^* for prime-power q: fixed generators and dlog table."""

    modulus: int
    gens: tuple[int, ...]
    orders: tuple[int, ...]
    exponent: int
    dlog: dict[int, tuple[int, ...]]


def _primitive_root(p: int, m: int) -> int:
    """Smallest primitive root mod p^m, p odd."""
    q = p**m
    phi = euler_phi(q)
    prime_divisors = factorize(phi).primes
    for g in range(2, q):
        if g % p == 0:
            continue
        if all(pow(g, phi // r, q) != 1 for r in prime_divisors):
            return g
    raise AssertionError("no primitive root found for an odd prime power")


def _unit_group(q: int, p: int, m: int) -> _UnitGroup:
    if p == 2:
        # (Z/4)^* is cyclic on -1; for 2^m, m >= 3, fix the generators -1 and 5.
        if m == 2:
            gens, orders = (q - 1,), (2,)
        else:
            gens, orders = (q - 1, 5), (2, 2 ** (m - 2))
    else:
        gens, orders = (_primitive_root(p, m),), (euler_phi(q),)
    dlog: dict[int, tuple[int, ...]] = {}
    for exps in iter_product(*(range(s) for s in orders)):
        a = 1
        for g, e in zip(gens, exps):
            a = a * pow(g, e, q) % q
        dlog[a] = exps
    assert len(dlog) == euler_phi(q)
    return _UnitGroup(q, gens, orders, lcm(*orders), dlog)


def _validated_conductor(p: int, m: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("m must be >= 1")
    q = p**m
    if q <= 2:
        raise ValueError(f"conductor {q} has no odd characters; h^- is trivially 1")
    return q


@dataclass(frozen=True)
class DirichletCharacter:
    """Character of (Z/q)^*, q a prime power, as exponents on fixed generators.

    chi(g_i) = zeta_{s_i}^{generator_images[i]} where s_i is the order of the
    i-th generator. ``order`` is the order of chi in the character group and
    ``parity`` is chi(-1) in {+1, -1}. ``group`` is the unit-group structure
    the images refer to; it travels with the character, pickling included.
    """

    modulus: int
    generator_images: tuple[int, ...]
    order: int
    parity: int
    group: _UnitGroup = field(compare=False, repr=False)

    @property
    def is_odd(self) -> bool:
        return self.parity == -1

    def value_exponent(self, a: int) -> int:
        """Exponent k with chi(a) = zeta_order^k, for a coprime to the modulus."""
        group = self.group
        exps = group.dlog.get(a % self.modulus)
        if exps is None:
            raise ValueError(f"{a} is not a unit mod {self.modulus}")
        big = group.exponent
        t = 0
        for x, k, s in zip(exps, self.generator_images, group.orders):
            t += x * k * (big // s)
        t %= big
        num = t * self.order
        assert num % big == 0
        return num // big

    def __pow__(self, t: int) -> "DirichletCharacter":
        images = tuple(k * t % s for k, s in zip(self.generator_images, self.group.orders))
        return _make_character(self.group, images)


def _make_character(group: _UnitGroup, images: tuple[int, ...]) -> DirichletCharacter:
    order = 1
    for k, s in zip(images, group.orders):
        order = lcm(order, s // gcd(s, k))
    minus_one = group.dlog[group.modulus - 1]
    big = group.exponent
    t = sum(x * k * (big // s) for x, k, s in zip(minus_one, images, group.orders)) % big
    assert t in (0, big // 2)
    parity = 1 if t == 0 else -1
    return DirichletCharacter(group.modulus, images, order, parity, group)


def characters_mod(p: int, m: int) -> list[DirichletCharacter]:
    """All phi(p^m) characters of (Z/p^m)^*, in lexicographic image order."""
    q = _validated_conductor(p, m)
    group = _unit_group(q, p, m)
    chars = [
        _make_character(group, images)
        for images in iter_product(*(range(s) for s in group.orders))
    ]
    assert sum(1 for c in chars if c.is_odd) == len(chars) // 2
    return chars


def _weights(chi: DirichletCharacter) -> list[int]:
    """w_0..w_{d-1} of W = sum_{a unit mod q} a x^{k(a)}, where chi(a) = zeta_d^{k(a)}.

    chi(g_i) = zeta_{s_i}^{k_i} = zeta_d^{k_i d / s_i}, an integer exponent
    since that root has order dividing d, so a = prod g_i^{x_i} has
    k(a) = sum x_i k_i d / s_i (mod d), read from the dlog table directly.
    """
    d = chi.order
    steps = [k * d // s for k, s in zip(chi.generator_images, chi.group.orders)]
    weights = [0] * d
    for a, exps in chi.group.dlog.items():
        weights[sum(map(mul, exps, steps)) % d] += a
    return weights


def _odd_orbit_representatives(group: _UnitGroup) -> list[tuple[int, ...]]:
    """Generator images of one odd character from each Galois orbit.

    Cyclic group of order s: chi_k(g) = zeta_s^k is odd iff k is odd, and its
    orbit is fixed by gcd(k, s), so the odd divisors k of s represent the odd
    orbits. 2^m with m >= 3, on the generators (-1, 5): chi is odd iff its image
    on -1 is 1, and the orbit of (1, b) is fixed by the 2-adic valuation of b
    (or b = 0). Each representative is the lexicographically smallest member of
    its orbit.
    """
    if len(group.orders) == 1:
        (s,) = group.orders
        return [(k,) for k in range(1, s, 2) if s % k == 0]
    _, s = group.orders
    return [(1, 0)] + [(1, 2**j) for j in range(s.bit_length() - 1)]


def _positive_quotient(q: int, numerator: int, denominator: int, route: str) -> int:
    """w * numerator / denominator, which must be a positive integer."""
    w = q if q % 2 == 0 else 2 * q
    value, remainder = divmod(w * numerator, denominator)
    if remainder or value <= 0:
        raise IntegralityError(
            f"{route} for conductor {q} is not a positive integer: {w * numerator}/{denominator}"
        )
    return value


def hminus_product(p: int, m: int) -> int:
    """h^-(conductor p^m) by the odd-character product, one orbit norm per orbit."""
    q = _validated_conductor(p, m)
    group = _unit_group(q, p, m)
    half = len(group.dlog) // 2
    total = 1
    covered = 0
    for images in _odd_orbit_representatives(group):
        chi = _make_character(group, images)
        assert chi.is_odd
        total *= primitive_root_product(chi.order, _weights(chi))
        covered += euler_phi(chi.order)
    assert covered == half
    return _positive_quotient(q, total, (-2 * q) ** half, "odd-character product")


def _bordered_system(q: int) -> tuple[list[list[int]], int]:
    """B = [[F, a, 1], [c^T, q, 0], [-1^T, 0, 2]] for conductor q, and an integer >= (det B)^2.

    a is the half-system 1 <= a < q/2 of units, c_j = a_j^-1 mod q and
    F_ij = floor(a_i c_j / q). det B = 2q det M / (-2q)^n for the half-system
    matrix M_ij = 2(a_i c_j mod q) - q, and the bound is the ceiling of
    4q^2 prod_i sum_j M_ij^2 / (2q)^(2n); both are proved in the module
    docstring.
    """
    half = [a for a in range(1, (q + 1) // 2) if gcd(a, q) == 1]
    inverses = [pow(a, -1, q) for a in half]
    n = len(half)
    bordered = [[a * c // q for c in inverses] + [a, 1] for a in half]
    bordered.append(inverses + [q, 0])
    bordered.append([-1] * n + [0, 2])
    hadamard = prod(sum((2 * (a * c % q) - q) ** 2 for c in inverses) for a in half)
    return bordered, -(-4 * q * q * hadamard // (2 * q) ** (2 * n))


def hminus_determinant(p: int, m: int, *, bound: int = 512) -> int:
    """h^-(conductor p^m) by the half-system determinant; the character-free oracle."""
    q = _validated_conductor(p, m)
    if q > bound:
        raise BudgetExceededError(f"determinant oracle bound {bound} exceeded by conductor {q}")
    det = integer_det(*_bordered_system(q))
    return _positive_quotient(q, abs(det), 2 * q, "determinant")


@dataclass(frozen=True)
class RelClassNumber:
    """A recomputed relative class number, with the method that produced it."""

    conductor: int
    value: FactoredInteger
    method: str


def relative_class_number(p: int, m: int, *, rho_budget: int = 2_000_000) -> RelClassNumber:
    """h^- by the product formula, factored for downstream candidate selection."""
    value = hminus_product(p, m)
    return RelClassNumber(p**m, factorize(value, rho_budget=rho_budget), "product-formula")


def relative_class_number_det(
    p: int, m: int, *, bound: int = 512, rho_budget: int = 2_000_000
) -> RelClassNumber:
    """h^- by the determinant oracle; must agree with the product formula."""
    value = hminus_determinant(p, m, bound=bound)
    return RelClassNumber(p**m, factorize(value, rho_budget=rho_budget), "determinant-oracle")
