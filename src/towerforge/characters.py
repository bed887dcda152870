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
  Hence h^- = w |det B| / (2q): plain linear algebra, no characters. For
  any integer k x n matrix Q and n x k matrix P the same Schur step, on
  QMP = -2q (QFP - Qa c^T P/q + Q1 1^T P/2), gives
  det [[QFP, Qa, Q1], [c^T P, q, 0], [-1^T P, 0, 2]] = 2q det(QMP) / (-2q)^k.

  Split. M is a group matrix (Maillet's determinant; Carlitz and Olson,
  Proc. AMS 6, 1955), so it commutes with translation by a unit. Let
  H = <h> have prime order r in G = (Z/q)^*/+-1 with h^r = 1 (mod q)
  (``_subgroup``). Write h a_i = s_i a_sigma(i) (mod q), s_i = +-1, and
  T e_i = s_i e_sigma(i). As g is odd, M_(sigma i, sigma j) = s_i s_j M_ij,
  that is T^T M T = M, and T is orthogonal, so MT = TM. Each coset of H is
  an orbit i_t = sigma^t(i_0), t < r, with T^t e_(i_0) = s_t e_(i_t), s_0 = 1
  (``_cosets``), and T^r = I since h^r = 1. So M maps into itself the
  lattice of invariant vectors, with basis P_inv the signed coset sums
  sum_t s_t e_(i_t), and the lattice of v with (I + T + ... + T^(r-1)) v = 0,
  with basis P_comp the s_t e_(i_t) - e_(i_0), t >= 1. Q_inv takes each
  coset's first coordinate and Q_comp coordinate i_t times s_t; then QP = I
  and v = PQv on each lattice, so MP = PA with A = QMP, block by block. The
  n x n matrix [P_inv P_comp] has determinant +-r^(n/r), so
  det M = det A_inv det A_comp, and with the Schur step
  det B_inv det B_comp = 2q det B, h^- = w |det B_inv det B_comp| / (4q^2).
  The eliminations cost (n/r)^3 + (n - n/r)^3: n^3/4 for r = 2 and n^3/3 for
  r = 3. If instead h^r = -1, T^r = -I and no nonzero vector is invariant.
  For odd p the units are cyclic, so +-1 are the only square roots of 1 and
  r = 2 would give h^2 = -1; odd p takes r = 3, when 3 | phi(q), and p = 2
  takes r = 2, h = 1 + q/2, at q >= 8. Other conductors (625, and primes
  p = 2 mod 3 such as 149, 167, 173 and 179) eliminate B whole.

  Bounds. Every row of M has the same sum of squares S (``_bordered_system``),
  so Hadamard's inequality gives (det M)^2 <= S^n and
  (det B)^2 <= 4q^2 S^n / (2q)^(2n). A_inv is a signed group matrix of G/H,
  so one row's sum of squares S' gives (det B_inv)^2 <= 4q^2 S'^(n/r) /
  (2q)^(2n/r). As |det A_comp| = |det M| / |det A_inv|,
  (det B_comp)^2 <= 16 q^4 S^n / ((2q)^(2n) (det B_inv)^2), taken in integers
  once det B_inv is known. At q = 343 these give |det B_inv| < 2^98 and
  |det B_comp| < 2^214, where Hadamard on the bordered blocks gives 2^372
  and 2^955. ``integer_det`` computes each block by one elimination
  modulo a certified prime l > 2q, with every row packed into one int, and
  the same elimination solves B x = e_1 l-adically; the verified solution's
  denominator D divides det B and is nearly all of it (det/D is 2 or 343 at
  343, 4 or 512 at 512), so only det/D is reconstructed. One prime per
  block does at every q <= 512 except 439-509: the complement blocks at 439,
  457, 463, 487 and 499, and B whole at 443, 461, 467, 479, 491, 503 and
  509, draw a second.
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


def _subgroup(p: int, q: int) -> tuple[int, int]:
    """(h, r): h of prime order r in (Z/q)^*/+-1 with h^r = 1 (mod q), r in {2, 3}; (1, 1) if none.

    For q = 2^m >= 8, h = 1 + q/2: h^2 = 1 + q + q^2/4 = 1 (mod q). For odd
    p, r = 3 (module docstring), and an h != 1 with h^3 = 1 exists exactly
    when 3 | phi(q), since the units are cyclic; it is not -1.
    """
    if p == 2 and q >= 8:
        return q // 2 + 1, 2
    if (q - q // p) % 3:
        return 1, 1
    return next(h for h in range(2, q) if pow(h, 3, q) == 1), 3


def _cosets(q: int, h: int, r: int) -> tuple[list[int], list[int], list[list[tuple[int, int]]]]:
    """The half-system a (units 1 <= a < q/2), c_j = a_j^-1 mod q, and the cosets of <h>.

    Each coset is [(i_t, s_t) for t < r] with h^t a_(i_0) = s_t a_(i_t) (mod q),
    s_0 = 1 and a_(i_0) the least a in no earlier coset, so the first coset
    starts at a = 1; h = r = 1 gives the singletons.
    """
    half = [a for a in range(1, (q + 1) // 2) if gcd(a, q) == 1]
    position = {a: i for i, a in enumerate(half)}
    cosets = []
    for a in half:
        if a in position:
            orbit = [a * pow(h, t, q) % q for t in range(r)]
            cosets.append([(position.pop(x), 1) if 2 * x < q else (position.pop(q - x), -1) for x in orbit])
    return half, [pow(a, -1, q) for a in half], cosets


def _bordered(q: int, half: list[int], inverses: list[int], rows: list, columns: list) -> list[list[int]]:
    """[[QFP, Qa, Q1], [c^T P, q, 0], [-1^T P, 0, 2]], of determinant 2q det(QMP) / (-2q)^k.

    Row u of Q is s e_i^T for rows[u] = (i, s), column v of P is the sum of
    t e_j over (j, t) in columns[v], all columns of one length L, and
    k = len(rows) = len(columns). Entry (u, v) of QFP is the sum over the L
    slots l of s t floor(a_i c_j / q), (j, t) = columns[v][l].
    """
    slots = [[(inverses[j], t) for j, t in slot] for slot in zip(*columns)]

    def lift(parts: list[list[int]]) -> list[int]:  # the L slots' rows, added
        return list(map(sum, zip(*parts))) if len(parts) > 1 else parts[0]

    matrix = [
        lift([[s * t * (half[i] * c // q) for c, t in slot] for slot in slots]) + [s * half[i], s]
        for i, s in rows
    ]
    matrix.append(lift([[t * c for c, t in slot] for slot in slots]) + [q, 0])
    matrix.append(lift([[-t for _, t in slot] for slot in slots]) + [0, 2])
    return matrix


def _bordered_system(q: int, h: int = 1, r: int = 1) -> tuple[list[list[int]], int]:
    """B_inv for H = <h> of order r, and an integer >= (det B_inv)^2; B itself for trivial H.

    Q takes each coset's first coordinate and P's columns are the signed coset
    sums of ``_cosets``: B_inv = [[QFP, Qa, Q1], [c^T P, q, 0],
    [-1^T P, 0, 2]] (``_bordered``). For trivial H, Q = P = I and
    B = [[F, a, 1], [c^T, q, 0], [-1^T, 0, 2]]: a is the half-system
    1 <= a < q/2 of units, c_j = a_j^-1 mod q and F_ij = floor(a_i c_j / q).
    det B_inv = 2q det A_inv / (-2q)^k for A_inv = QMP, k = n/r, and the
    half-system matrix M_ij = 2(a_i c_j mod q) - q, and the bound is the
    ceiling of 4q^2 S'^k / (2q)^(2k), S' the sum of squares of row a = 1 of
    A_inv; both are proved in the module docstring.

    Every row of A_inv has the same sum of squares S', so Hadamard's
    inequality gives (det A_inv)^2 <= S'^k. Proof: let g(x) = 2R(x) - q,
    R(x) = x mod q, and G(x) = sum_(t < r) g(h^t x). Column v of P is
    sum_t s_t e_(i_t) with a_(i_t) = s_t h^t a_v, so c_(i_t) = s_t h^-t c_v
    and entry (u, v) of A_inv is sum_t s_t g(s_t h^-t a_u c_v) = G(a_u c_v),
    as g is odd and h^r = 1. G is odd and constant on cosets of H, so G^2 is
    constant on the cosets of +-H. The a_v are one unit from each coset of
    +-H, and so are the c_v (inversion maps cosets to cosets) and the a_u c_v
    for each u (multiplying by a_u permutes them): every row sums G^2 over one
    unit from each coset of +-H. For trivial H, G = g, each c_v is one of a
    pair {c, -c} with g(c)^2 = g(-c)^2, and S' is S = sum_(a in half) (2a - q)^2.
    """
    half, inverses, cosets = _cosets(q, h, r)
    k = len(cosets)
    row = sum(sum(t * (2 * inverses[j] - q) for j, t in coset) ** 2 for coset in cosets)  # a = 1
    matrix = _bordered(q, half, inverses, [coset[0] for coset in cosets], cosets)
    return matrix, -(-4 * q * q * row**k // (2 * q) ** (2 * k))


def _complement_system(q: int, h: int, r: int, det: int) -> tuple[list[list[int]], int]:
    """B_comp for H = <h> of order r > 1, and an integer >= (det B_comp)^2, given det = det B_inv != 0.

    Q takes coordinate i_t times s_t, and P's columns are s_t e_(i_t) - e_(i_0),
    for t >= 1 in each coset of ``_cosets``. As det B_inv det B_comp = 2q det B
    and (det B)^2 <= 4q^2 S^n / (2q)^(2n) (module docstring), the bound is the
    ceiling of 16 q^4 S^n / ((2q)^(2n) det^2).
    """
    half, inverses, cosets = _cosets(q, h, r)
    rows = [x for coset in cosets for x in coset[1:]]
    columns = [[x, (coset[0][0], -1)] for coset in cosets for x in coset[1:]]
    n = len(half)
    hadamard = 16 * q**4 * sum((2 * a - q) ** 2 for a in half) ** n
    return _bordered(q, half, inverses, rows, columns), -(-hadamard // ((2 * q) ** (2 * n) * det * det))


def hminus_determinant(p: int, m: int, *, bound: int = 512) -> int:
    """h^-(conductor p^m) by the half-system determinant, in blocks; the character-free oracle."""
    try:
        q = admit_conductor(p, m, bound)
    except BudgetExceededError:
        over = f"determinant oracle bound {bound} exceeded by conductor {conductor_label(p, m)}"
        raise BudgetExceededError(over) from None
    h, r = _subgroup(p, q)
    det, denominator = integer_det(*_bordered_system(q, h, r)), 2 * q
    if r > 1 and det:  # det B_inv det B_comp = 2q det B; a zero det is refused below
        det, denominator = det * integer_det(*_complement_system(q, h, r, det)), 4 * q * q
    return _positive_quotient(q, abs(det), denominator, "determinant")


def relative_class_number(p: int, m: int) -> FactoredInteger:
    """h^- by the product formula, factored (through its orbit norms) for candidate selection."""
    norms = orbit_norms(p, m)
    return factorize(_hminus_of_norms(p, m, norms), norms=norms)
