"""Relative class numbers of prime-power cyclotomic fields, two independent ways.

The relative class number h^- of the cyclotomic field of conductor q = p^m is
recomputed from scratch two independent ways, both in integers only:

* product formula: h^- = Q * w * prod_{chi odd} (-B(chi)/2), where
  B(chi) = (1/q) sum_a chi(a) a over units a mod q, w is the number of roots
  of unity in the field (q for even q, 2q for odd q) and the unit index Q is 1
  for prime-power conductor (Washington, Introduction to Cyclotomic Fields,
  Thm 4.17). The product is grouped into Galois orbits of odd characters. If
  an orbit's members take values in mu_d and W is an integer polynomial with
  W(zeta_d) = q B(chi) for one member chi, the orbit contributes
  N(-B(chi)/2) = Res(Phi_d, W)/(-2q)^phi(d). No character is built: every W
  is one list V of integers per conductor, folded mod d.

  Odd p. (Z/q)^* is cyclic on the least primitive root g, and
  chi(g) = zeta_phi(q)^k is odd iff k is odd, since -1 = g^(phi(q)/2). The
  orbit of chi_k is fixed by gcd(k, phi(q)), so the orbits are the odd
  k | phi(q), of order d = phi(q)/k, with representative chi(g^x) = zeta_d^x.
  Its W is V = [g^x mod q for x < phi(q)] folded mod d: w_j is the sum of the
  g^x with x = j (mod d), the character's own weight vector. The kernel's
  bound is proved for the folded W, so it and the primes it draws are those
  of the weights. The half list of the p = 2 case would serve here too (chi
  is odd), but its entries 2h - q have both signs, so its folded weights
  spread further from their mean and the bound is looser: 4-6 % more bits
  at 191, 343, 467, 625, 683 and 729.

  p = 2. (Z/q)^* = {+-1} x H with H = {5^y mod q : y < q/4}, a half system.
  An odd chi has chi(-h) = -chi(h) and -h = q - h (mod q), so
  sum_a chi(a) a = sum_{h in H} chi(h) (2h - q). Odd characters are fixed by
  chi(5) = zeta_{q/4}^k, any k; the orbit is fixed by gcd(k, q/4), so the
  orbits are the d | q/4, with chi(5^y) = zeta_d^y, and W is
  V = [2h - q for h = 5^y mod q, y < q/4] folded mod d. (d = 1 is the single
  quadratic odd character, whose orbit norm W(1) = Res(Phi_1, W).)

  The kernel ``primitive_root_product`` computes Res(Phi_d, W) =
  prod W(zeta_d^j) over j in (Z/d)^*. Every d here is p^a e with e | p - 1,
  so it first takes exact relative norms down the tower
  Q(zeta_d) > Q(zeta_{d/p}) > ... to the squarefree level rad(d), with W held
  mod x^(d/2) + 1 (even d) or x^d - 1 (odd d), never mod Phi_d. The norm is
  every r-th coefficient of the product of the conjugates x -> x^(1 + k d/r),
  r^2 | d. For p = 2 that ends at Q and is exact. Otherwise let m be the odd
  part of rad(d); when rad(d) = 2m it replaces f(x) by f(-x), once per orbit.
  Then, modulo certified primes l = 1 (mod m), it takes the values at all
  primitive m-th roots of unity from one chirp-z correlation (a single
  packed big-integer product per prime) and recombines the residues of their
  product by CRT until the modulus exceeds twice the Parseval/AM-GM bound
  (d sum w_i^2 / phi(d))^{phi(d)/2} of the original W, since the norm is the
  same integer. Since the phi(d) add up to phi(q)/2,
  h^- = w * prod Res / (-2q)^{phi(q)/2}, one exact integer division.

  Factoring by orbit norm. ``orbit_norms`` yields the pairs (d, Res(Phi_d, W))
  once per conductor; ``hminus_product`` and ``relative_class_number`` both
  take h^- from them, and the latter hands them to ``factorize``. Every prime
  factor of h^- other than 2 and p divides some Res(Phi_d, W), so a
  composite cofactor is split by its gcd with each norm, and one that divides
  a single norm is walked by rho on x^(2d) + c: a prime l not dividing d that
  divides Res(Phi_d, W) exactly once is 1 mod d (proof in ``factorize``).
  The oracle route factors its h^- without norms, independently.

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
  det B by one elimination modulo a certified prime l > 2q, with every row
  packed into one int. At q = 343 the bound gives |det B| < 2^276, where
  Hadamard on M alone gives 2^1651, so CRT alone would need 4 primes, not 21.
  Instead the elimination also solves B x = e_1 l-adically, and the verified
  solution's denominator D divides det B; here it is nearly all of it (det/D
  is 1 at 243 and 343, 2 at 256 and 512, and at most 277, at 139, for
  q <= 200), so only det/D is reconstructed, and one prime does at every
  q <= 512.
"""

from __future__ import annotations

from math import gcd, prod

from .arith import FactoredInteger, _least_witness, admit_conductor, conductor_label, euler_phi, factorize
from .cyclotomic import integer_det, primitive_root_product
from .errors import BudgetExceededError, IntegralityError


def _positive_quotient(q: int, numerator: int, denominator: int, route: str) -> int:
    """w * numerator / denominator, which must be a positive integer."""
    w = q if q % 2 == 0 else 2 * q
    value, remainder = divmod(w * numerator, denominator)
    if remainder or value <= 0:
        raise IntegralityError(
            f"{route} for conductor {q} is not a positive integer: {w * numerator}/{denominator}"
        )
    return value


def _orbit_vector(p: int, m: int, q: int) -> tuple[list[int], list[int]]:
    """V and the orbit orders d with prod_d Res(Phi_d, V) = prod_{chi odd} q B(chi).

    V is [g^x mod q for x < phi(q)], g the least primitive root, for odd p, and
    [2h - q for h = 5^y mod q, y < q/4] for p = 2. Each d names one Galois
    orbit of odd characters, whose weight polynomial is V folded mod d (see
    the module docstring).
    """
    if p == 2:
        n, g = q // 4, 5
        orders = [n >> j for j in range(m - 1)]
    else:
        n = q - q // p  # phi(q)
        g = _least_witness(q, n, factorize(n).primes)
        orders = [n // k for k in range(1, n, 2) if n % k == 0]
    vector = [1] * n
    for x in range(1, n):
        vector[x] = vector[x - 1] * g % q
    if p == 2:
        vector = [2 * h - q for h in vector]
    return vector, orders


def orbit_norms(p: int, m: int) -> list[tuple[int, int]]:
    """[(d, Res(Phi_d, W))], one pair per Galois orbit of odd characters of conductor p^m."""
    q = admit_conductor(p, m)
    vector, orders = _orbit_vector(p, m, q)
    assert sum(map(euler_phi, orders)) == (q - q // p) // 2
    return [(d, primitive_root_product(d, vector)) for d in orders]


def _hminus_of_norms(p: int, m: int, norms: list[tuple[int, int]]) -> int:
    """h^- = w * prod Res / (-2q)^(phi(q)/2), one exact integer division."""
    q = p**m
    total = prod(norm for _, norm in norms)
    half = p ** (m - 1) * (p - 1) // 2  # phi(q) / 2
    return _positive_quotient(q, total, (-2 * q) ** half, "odd-character product")


def hminus_product(p: int, m: int) -> int:
    """h^-(conductor p^m) by the odd-character product, one orbit norm per orbit."""
    return _hminus_of_norms(p, m, orbit_norms(p, m))


def _bordered_system(q: int) -> tuple[list[list[int]], int]:
    """B = [[F, a, 1], [c^T, q, 0], [-1^T, 0, 2]] for conductor q, and an integer >= (det B)^2.

    a is the half-system 1 <= a < q/2 of units, c_j = a_j^-1 mod q and
    F_ij = floor(a_i c_j / q). det B = 2q det M / (-2q)^n for the half-system
    matrix M_ij = 2(a_i c_j mod q) - q, and the bound is the ceiling of
    4q^2 prod_i sum_j M_ij^2 / (2q)^(2n); both are proved in the module
    docstring.

    Every row of M has the same sum of squares S = sum_{a in half} (2a - q)^2,
    so the product is S^n. Proof: the c_j are one unit from each pair {c, -c}
    (inversion commutes with negation), and multiplying by a_i permutes those
    pairs, so the a_i c_j are again one unit from each pair; and
    (2R(x) - q)^2, R(x) = x mod q, is unchanged under x -> -x, since
    R(-x) = q - R(x). So row i sums (2R(x) - q)^2 over one x from each pair,
    as the half-system itself does.
    """
    half = [a for a in range(1, (q + 1) // 2) if gcd(a, q) == 1]
    inverses = [pow(a, -1, q) for a in half]
    n = len(half)
    bordered = [[a * c // q for c in inverses] + [a, 1] for a in half]
    bordered.append(inverses + [q, 0])
    bordered.append([-1] * n + [0, 2])
    hadamard = sum((2 * a - q) ** 2 for a in half) ** n
    return bordered, -(-4 * q * q * hadamard // (2 * q) ** (2 * n))


def hminus_determinant(p: int, m: int, *, bound: int = 512) -> int:
    """h^-(conductor p^m) by the half-system determinant; the character-free oracle."""
    try:
        q = admit_conductor(p, m, bound)
    except BudgetExceededError:
        over = f"determinant oracle bound {bound} exceeded by conductor {conductor_label(p, m)}"
        raise BudgetExceededError(over) from None
    det = integer_det(*_bordered_system(q))
    return _positive_quotient(q, abs(det), 2 * q, "determinant")


def relative_class_number(p: int, m: int) -> FactoredInteger:
    """h^- by the product formula, factored (through its orbit norms) for candidate selection."""
    norms = orbit_norms(p, m)
    return factorize(_hminus_of_norms(p, m, norms), norms=norms)
