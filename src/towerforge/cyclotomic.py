"""The two exact integer kernels of h^-, and the polynomial product and fold.

Polynomials are dense integer coefficient lists, index = degree, and
``_poly_mul`` is their one product: schoolbook for short factors, one
big-integer product by Kronecker substitution above that (its slot bound is
proved there). ``_fold`` is their one reduction, mod x^(d/2) + 1 (even d) or
x^d - 1 (odd d); the local ring reduces mod Phi_{p^m} through it too. Both
kernels work modulo primes l = k 2^41 + 1 below the deterministic
Miller-Rabin bound (``_crt_primes``), each sieved by small primes and then
proven prime by one exponentiation (``pocklington_prime``), and end in one
reconstruction, ``_crt_reconstruct``: Chinese remaindering until the modulus
exceeds twice a proven bound, then the symmetric lift. ``integer_det`` (it
serves the h^- determinant oracle) eliminates once, over F_l for the first
prime, with each row packed into one int. When one prime would not do, that
elimination also solves B x = e_1 l-adically (Dixon, 1982); the verified
rational solution's denominator D divides det B (Cramer), and only
t = det/D is reconstructed, under the caller's bound on det^2 divided by
D^2 (Abbott, Bronstein and Mulders, ISSAC 1999). For the oracle's matrices
D is nearly all of det, so l_1 alone usually gives t.
``primitive_root_product`` is the norm of W(zeta_d), with every polynomial
held mod x^(d/2) + 1 (even d) or x^d - 1 (odd d), never mod Phi_d. It
descends the tower Q(zeta_d) > Q(zeta_{d/r}) > ... in exact integers, one
relative norm per repeated prime factor r, down to rad(d) (the field-norm
descent of Pornin and Prest, PKC 2019); at rad(d) <= 2 that is exact.
Otherwise it takes f(-x) for an even rad(d) = 2m and the values mod l at
all primitive m-th roots (m = rad(d) when odd) from one cyclic correlation,
a chirp-z transform (Bluestein, 1970), under a bound proved for the original W.
Neither kernel uses anything but integers.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, compress
from math import gcd, isqrt, lcm, prod
from operator import index, mul

from .arith import _MR_BOUND, _POCKLINGTON_BITS, _SMALL_ODD_PRIMES, _least_witness, factorize, pocklington_prime


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


# Below this many terms in the shorter factor the schoolbook loop is faster
# (measured on a shared 2-core host, Python 3.11: the two are level at 12 terms
# for coefficients of up to 82 bits, packing wins from about 16 terms at 300
# bits, and at 6 terms, the local ring's largest, schoolbook takes half the time).
_PACKED_MIN_TERMS = 12


def _poly_mul(a: list, b: list) -> list:
    """a * b, trailing zeros trimmed; pass the same list twice to square it.

    Below ``_PACKED_MIN_TERMS`` terms in the shorter factor it is the schoolbook
    loop. Above, it is Kronecker substitution: one product of two big
    integers. With s = 8w bits per slot and h = 2^(s-1), every coefficient of
    the product, c_k = sum_i a_i b_(k-i), is a sum of at most
    n = min(len a, len b) terms, so |c_k| <= n max|a| max|b| <
    2^(bitlen n + bitlen max|a| + bitlen max|b|) <= h, and so is every input
    coefficient. A = sum a_i 2^(s i) is packed as the slots a_i + h in [0, 2^s)
    minus sum h 2^(s i), and likewise B. Then C = A B = sum c_k 2^(s k), and
    C + sum h 2^(s k) has the slots c_k + h in [0, 2^s): no slot carries
    into the next, so each c_k is read off as its slot minus h.
    """
    if not a or not b:
        return []
    if min(len(a), len(b)) < _PACKED_MIN_TERMS:
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return _trim(out)
    bits = max(max(a), -min(a)).bit_length() + max(max(b), -min(b)).bit_length()
    width = (bits + min(len(a), len(b)).bit_length() + 8) // 8
    half = 1 << (8 * width - 1)
    pattern = bytes(width - 1) + b"\x80"  # the slot value h

    def pack(values: list) -> int:
        data = b"".join([(v + half).to_bytes(width, "little") for v in values])
        return int.from_bytes(data, "little") - int.from_bytes(pattern * len(values), "little")

    packed = pack(a)
    product = packed * packed if a is b else packed * pack(b)
    n = len(a) + len(b) - 1
    data = (product + int.from_bytes(pattern * n, "little")).to_bytes(width * n, "little")
    return _trim(
        [int.from_bytes(data[i : i + width], "little") - half for i in range(0, width * n, width)]
    )


# d -> the proven primes l = 1 (mod lcm(d, 2^41)), each once, in the order
# ``_crt_primes(d)`` walks them
_crt_prime_cache: dict[int, list[int]] = {}

_SIEVE_BLOCK = 256


def _crt_primes(d: int) -> Iterator[int]:
    """Primes l = 1 (mod lcm(d, 2^41)) below the deterministic Miller-Rabin bound, descending.

    The walk starts below ``_MR_BOUND`` (< 2^82), which fixes the size of
    every prime, residue and slot width of both kernels. Each candidate
    l = k L + 1, L = lcm(d, 2^41), is proven prime or passed over by
    ``pocklington_prime``, so the list is a pure function of d: the primes
    found are memoized and a later walk certifies only the primes past the
    end of every earlier one. Candidates are taken in blocks of k: an odd
    sieve prime r not dividing d divides k L + 1 exactly when k = -1/L
    (mod r), and such a candidate (above 2^41 > r) is composite, so only the
    rest are handed to ``pocklington_prime``.
    """
    found = _crt_prime_cache.setdefault(d, [])
    ell = 0
    for ell in found:
        yield ell
    step = lcm(d, 1 << _POCKLINGTON_BITS)
    k = (ell - 1) // step - 1 if ell else (_MR_BOUND - 2) // step
    sieve = [(r, -pow(step, -1, r) % r) for r in _SMALL_ODD_PRIMES if step % r]
    while k > 0:
        size = min(k, _SIEVE_BLOCK)  # slot t holds k - t, for t < size
        alive = bytearray(b"\x01") * size
        for r, root in sieve:
            start = (k - root) % r
            alive[start::r] = bytes(len(range(start, size, r)))
        for t in compress(range(size), alive):
            ell = (k - t) * step + 1
            if pocklington_prime(ell):
                if not found or ell < found[-1]:  # an interleaved walk may have appended it
                    found.append(ell)
                yield ell
        k -= size


def _crt_reconstruct(residue: Callable[[int], int], primes: Iterator[int], limit: int) -> int:
    """The integer N with N = residue(l) (mod l) for every l drawn from ``primes``.

    The caller proves 4 N^2 <= limit. Residues are combined by the Chinese
    remainder theorem until the modulus M has M^2 > limit, so M > 2|N|, and
    N is the residue in (-M/2, M/2]. Both exact kernels end here.
    """
    modulus, value = 1, 0
    while modulus * modulus <= limit:
        ell = next(primes)
        value += modulus * ((residue(ell) - value) * pow(modulus, -1, ell) % ell)
        modulus *= ell
    return value - modulus if 2 * value > modulus else value


def _det_mod(matrix: Sequence[Sequence[int]], ell: int, steps: list | None = None) -> int:
    """det(matrix) mod the prime ell, by Gaussian elimination on packed rows.

    Each row is one int with one slot of ``width`` bytes per column, the
    lowest slot holding the leftmost live column. Only the pivot row is
    unpacked: reduced mod ell and scaled by -1/pivot, its tail becomes the
    packed row P with slots in [0, ell). Every other row r becomes
    (r >> s) + f P, where s is the slot width in bits and f = (r's lowest
    slot) mod ell, which drops the eliminated column and adds f P mod ell.
    Slots start in [0, ell) and grow by at most (ell - 1)^2 per step over at
    most n - 1 steps, so they stay non-negative and below n ell^2 <
    2^(2 bitlen(ell) + bitlen(n + 1)) <= 2^s: no slot ever carries into the
    next, and each slot stays congruent to its entry of the eliminated matrix.

    Given a list ``steps``, step k appends (j, 1/pivot, F, P): the pivot
    row was k + j, F packs the f of rows k + 1.. and P is packed as above.
    That is the factorization ``_lifted_divisor`` solves from.
    """
    n = len(matrix)
    width = _slot_bytes(ell, n)
    shift = 8 * width
    mask = (1 << shift) - 1
    rows = [_pack((x % ell for x in row), width) for row in matrix]
    det = 1
    for k in range(n):
        pivot_index = next((i for i in range(k, n) if (rows[i] & mask) % ell), None)
        if pivot_index is None:
            return 0
        if pivot_index != k:
            rows[k], rows[pivot_index] = rows[pivot_index], rows[k]
            det = -det
        data = rows[k].to_bytes(width * (n - k), "little")
        pivot = int.from_bytes(data[:width], "little") % ell
        det = det * pivot % ell
        scale = ell - pow(pivot, -1, ell)
        tail = range(width, len(data), width)
        packed = _pack((int.from_bytes(data[j : j + width], "little") * scale % ell for j in tail), width)
        if steps is not None:
            factors = _pack(((r & mask) % ell for r in rows[k + 1 :]), width)
            steps.append((pivot_index - k, ell - scale, factors, packed))
        rows[k + 1 :] = [(r >> shift) + (r & mask) % ell * packed for r in rows[k + 1 :]]
    return det % ell


def _slot_bytes(ell: int, n: int) -> int:
    """Bytes per slot of ``_det_mod``'s packed rows: 2 bitlen(ell) + bitlen(n + 1) bits, rounded up."""
    return (2 * ell.bit_length() + (n + 1).bit_length() + 7) // 8


def _pack(values: Iterable[int], width: int) -> int:
    """sum v_i 2^(8 width i), each 0 <= v_i < 2^(8 width) one little-endian slot of ``width`` bytes."""
    return int.from_bytes(b"".join([v.to_bytes(width, "little") for v in values]), "little")


def _lifted_divisor(matrix: Sequence[Sequence[int]], steps: list, ell: int, cap: int) -> int:
    """A proven divisor D >= 1 of det(matrix), the denominator of B^-1 e_1; 1 if no candidate verifies.

    ``steps`` are those ``_det_mod(matrix, ell, steps)`` recorded for
    det B = det(matrix) not 0 mod ell, so B is invertible mod ell; each P_k
    is dropped from them once transposed. Dixon's lifting (Numer. Math. 40,
    1982): from r_0 = e_1, x_i = B^-1 r_i mod ell and
    r_(i+1) = (r_i - B x_i)/ell, exact since B x_i = r_i (mod ell). By
    induction B X_s = e_1 - ell^s r_s over Z for X_s = sum_(i<s) x_i ell^i,
    so B X_s = e_1 (mod ell^s).

    Each x_i replays the elimination on packed ints of its slot width. The
    forward pass swaps slots as the pivots did and adds f (ell - z_k) to the
    rows below, z_k = y_k / pivot_k, so slots grow as in ``_det_mod``. Back
    substitution is x_k = z_k + P_k . (x_(k+1), ..., x_(n-1)), taken by
    columns: the P_k are transposed once, and x_j times column j (slot k
    holding P_k's entry in column j) is added to a packed sum whose slot k
    stays below n ell^2.

    After each step the vector X_s mod ell^s is read as N/den (Wang's
    half-extended Euclid, numerators and denominator below
    sqrt(ell^s / 2), each entry's reconstruction starting from the
    denominator found so far). A candidate counts only if B N = den e_1
    holds exactly over Z; then N/den is x = B^-1 e_1, and D = den /
    gcd(den, N_1, ..., N_n) is its least common denominator, since the
    integers k with k x in Z^n form an ideal and D generates it. By Cramer's
    rule det B x = adj(B) e_1 is integral, so D | det B. Lifting stops once
    ell^s exceeds ``cap``, twice Hadamard's bound H, which bounds den^2 and
    every N_i^2 (N_i is a minor of B). Correctness never depends on the
    lifting succeeding.
    """
    n = len(matrix)
    width = _slot_bytes(ell, n)
    shift = 8 * width
    mask = (1 << shift) - 1
    # cols[j] gathers column j of the P_k, slot k for k < j; each P_k is
    # dropped from ``steps`` once appended
    cols = [bytearray() for _ in range(n)]
    for k in range(n):
        j, inverse, factors, packed = steps[k]
        steps[k] = j, inverse, factors
        data = packed.to_bytes(width * (n - k - 1), "little")
        for column, start in zip(cols[k + 1 :], range(0, len(data), width)):
            column += data[start : start + width]
    residual = [1] + [0] * (n - 1)
    lifted = [0] * n
    modulus = 1
    while modulus <= cap:
        y = _pack((r % ell for r in residual), width)
        z = []
        for j, inverse, factors in steps:
            if j:  # swap slots 0 and j
                low, high = y & mask, y >> shift * j & mask
                y += high - low + (low - high << shift * j)
            z.append((y & mask) * inverse % ell)
            y = (y >> shift) + (ell - z[-1]) * factors
        x, sums = [0] * n, 0  # slot i of sums: P_i . (x_(k+1), ..., x_(n-1))
        for k in range(n - 1, -1, -1):
            x[k] = (z[k] + (sums >> shift * k & mask)) % ell
            sums += x[k] * int.from_bytes(cols[k], "little")
        residual = [(r - sum(map(mul, row, x))) // ell for r, row in zip(residual, matrix)]
        lifted = [v + modulus * c for v, c in zip(lifted, x)]
        modulus *= ell
        half = modulus >> 1
        bound, den = isqrt(half), 1
        for v in lifted:  # r_i = s_i den v (mod modulus)
            r0, r1, s0, s1 = modulus, den * v % modulus, 0, 1
            while r1 >= bound:
                quotient = r0 // r1
                r0, r1, s0, s1 = r1, r0 - quotient * r1, s1, s0 - quotient * s1
            den *= abs(s1)
            if den >= bound:
                break
        numerators = [(den * v + half) % modulus - half for v in lifted]
        if max(den, *map(abs, numerators)) < bound and all(
            sum(map(mul, row, numerators)) == (den if i == 0 else 0) for i, row in enumerate(matrix)
        ):
            return den // gcd(den, *numerators)
    return 1


def integer_det(matrix: Sequence[Sequence[int]], square_bound: int | None = None) -> int:
    """Determinant of a square integer matrix, exact, from one elimination and a p-adic solve.

    A non-square or ragged matrix raises ValueError, a non-integer entry
    TypeError (``operator.index``). ``square_bound`` must be at least det^2;
    it defaults to Hadamard's bound H = prod_i sum_j m_ij^2. Each prime l
    comes from ``_crt_primes(1)``: it lies below the deterministic
    Miller-Rabin bound and is proven prime by ``pocklington_prime``.

    ``_det_mod`` gives det mod l_1. If that is 0, or if
    4 square_bound < l_1^2 so that l_1 alone decides, D = 1. Otherwise it
    records its steps, from which ``_lifted_divisor`` proves a divisor D of
    det. Then t = det/D has 4 t^2 <= 4 square_bound / D^2 and, 4 t^2 being
    an integer, at most its floor, the limit ``_crt_reconstruct`` is given.
    The residues of t are det mod l times D^-1. l_1's residue is reused (l_1
    does not divide D, as D | det), and a later prime dividing D has no
    inverse, so it is skipped. The result is D t.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError(f"not a square matrix: a row of {len(row)} entries among {n} rows")
        list(map(index, row))  # TypeError on a non-integer entry
    hadamard = prod(sum(map(mul, row, row)) for row in matrix)
    limit = 4 * (hadamard if square_bound is None else square_bound)
    primes = _crt_primes(1)
    first = next(primes)
    steps = [] if first * first <= limit else None
    det = _det_mod(matrix, first, steps)
    divisor = _lifted_divisor(matrix, steps, first, 2 * hadamard) if det and steps is not None else 1
    return divisor * _crt_reconstruct(
        lambda ell: (det if ell == first else _det_mod(matrix, ell)) * pow(divisor, -1, ell) % ell,
        chain([first], (ell for ell in primes if divisor % ell)),
        limit // divisor**2,
    )


def _fold(f: list, d: int) -> list:
    """f mod B_d = x^(d/2) + 1 for even d, x^d - 1 for odd d: deg B_d terms.

    B_d vanishes at every primitive d-th root of unity (for even d it is the
    product of the Phi_k over k | d, k not dividing d/2), so the fold keeps
    every f(zeta_d^j). As B_1 = x - 1 and B_2 = x + 1, at d <= 2 it is that value.
    """
    n, sign = (d // 2, -1) if d % 2 == 0 else (d, 1)
    out = [0] * n
    for k in range(0, len(f), n):
        s = sign ** (k // n)  # x^(k + i) = sign^(k/n) x^i
        for i, c in enumerate(f[k : k + n]):
            out[i] += s * c
    return out


def _relative_norm(f: list, d: int, r: int) -> list:
    """The norm of f(zeta_d) to Q(zeta_{d/r}), r^2 | d; f is folded mod B_d, the norm mod B_{d/r}.

    Since r^2 | d, (1 + d/r)^k = 1 + k d/r (mod d), so the maps x -> x^e,
    e = 1 + k d/r, 0 <= k < r, form the subgroup G of (Z/d)^* fixing zeta_d^r:
    Gal(Q(zeta_d)/Q(zeta_{d/r})). They are automorphisms of Z[x]/(B_d): for
    odd d, x^d - 1 divides x^(d e) - 1; for even d, d/r is even, so e is odd
    and (x^(d/2))^e = -1. The product P of the r conjugates of f, folded, is
    thus G-invariant, P = (1/r) sum_k P(x^(1 + k d/r)). At a primitive
    zeta = zeta_d, zeta^(d/r) is a primitive r-th root of unity, so
    (1/r) sum_k zeta^(k i d/r) = [r | i] and P(zeta) = h(zeta^r), h = P[::r].
    As zeta^r runs over the primitive (d/r)-th roots and h has
    deg B_d / r = deg B_{d/r} terms (d/r is even when d is), h is the norm,
    folded mod B_{d/r}.

    For r = 2 the conjugate is x -> -x, so with f = E(x^2) + x O(x^2),
    h = E(y)^2 - y O(y)^2: two squarings of half the length. For odd r each
    conjugate is an exponent permutation mod d, and every product is folded.
    """
    if r == 2:
        even, odd = f[::2], f[1::2]
        norm = _poly_mul(even, even) + [0] * len(f)
        for i, c in enumerate(_poly_mul(odd, odd)):
            norm[i + 1] -= c
        return _fold(norm, d // 2)
    norm = f
    for k in range(1, r):
        e = 1 + k * (d // r)
        conjugate = [0] * d
        for i, c in enumerate(f):
            conjugate[i * e % d] = c
        norm = _fold(_poly_mul(norm, _fold(conjugate, d)), d)
    return norm[::r]


def _unit_values_product(f: list, m: int, primes: list[int], ell: int) -> int:
    """prod f(zeta_m^j) over j in (Z/m)^*, mod a prime l = 1 (mod m) from ``_crt_primes``.

    m is odd, squarefree and at least 3 with prime factors ``primes``, and f
    is folded mod x^m - 1. omega of exact order m mod l is found on each call
    (``_least_witness``). The m values f(omega^j) come from one cyclic
    correlation (chirp-z, Bluestein 1970), by
    i j = C(i + j, 2) - C(i, 2) - C(j, 2) with C(k, 2) = k (k - 1)/2, which
    needs no square root of omega:
    f(omega^j) = omega^(-C(j, 2)) sum_i a_i b_(i + j) with
    a_i = f_i omega^(-C(i, 2)) and b_k = omega^(C(k, 2)). As m is odd,
    C(k + m, 2) = C(k, 2) + m (k + (m - 1)/2) = C(k, 2) (mod m), so b has
    period m, and the sums are the cyclic correlation of a (n = len(f) <= m
    terms) with b_0..b_(m-1): one ``_poly_mul`` of residues in [0, l), of a
    reversed by b, folded mod x^m - 1, read at the units j only. Both chirps
    are read off one table of the powers of omega.
    """
    g = _least_witness(ell, ell - 1, primes)
    omega = pow(g, (ell - 1) // m, ell)
    powers = [1] * m
    for e in range(1, m):
        powers[e] = powers[e - 1] * omega % ell
    n = len(f)
    a = [c * powers[-i * (i - 1) // 2 % m] % ell for i, c in zip(range(n - 1, -1, -1), reversed(f))]
    b = [powers[k * (k - 1) // 2 % m] for k in range(m)]
    corr = _poly_mul(a, b)
    corr += [0] * (2 * m - len(corr))
    # (a * b)_k holds the terms with i + j = k - n + 1, so the sum for
    # f(omega^j) is split over slots k = j + n - 1 (mod m) and k + m
    result = 1
    for j in range(1, m):
        if gcd(j, m) == 1:
            k = (j + n - 1) % m
            result = result * powers[-j * (j - 1) // 2 % m] % ell * (corr[k] + corr[k + m]) % ell
    return result


def primitive_root_product(d: int, weights: Sequence[int]) -> int:
    """prod W(zeta_d^j) over j in (Z/d)^*, where W = sum_i weights[i] x^i; exact.

    Phi_d is monic and its roots are the primitive d-th roots of unity, so
    this is Res(Phi_d, W), the norm N of W(zeta_d) from Q(zeta_d) to Q. As
    zeta_d^d = 1, W may have any length: it is folded to w_0..w_{d-1} first,
    and a folded weight that is not an integer raises TypeError.

    Descent. f is W folded mod B_d (``_fold``), a multiple of Phi_d, which
    is never formed. While some prime r has r^2 | d, f is replaced by its norm
    to Q(zeta_{d/r}), folded mod B_{d/r} (``_relative_norm``), and d by d/r;
    norms compose along the tower, so N is unchanged. Everything stays in Z
    and d ends at its radical. If that is 1 or 2, B_d = x - 1 or x + 1 and
    the one coefficient left is N: no prime is needed.

    Odd radical. For d = 2m, m is odd, so -zeta_m^j has exact order d for j
    in (Z/m)^*: these are the phi(d) primitive d-th roots, and N is
    prod_j g(zeta_m^j) for g(x) = f(-x). As (-x)^m = -x^m, f mod x^m + 1 with
    its odd terms negated is g mod x^m - 1 = B_m; f becomes g. For odd d, m = d.

    Residues. Take a prime l = 1 (mod d) and omega in F_l of exact order m.
    omega is a root of x^m - 1 = prod_{e | m} Phi_e, hence of some Phi_e with
    e | m; omega^e = 1 forces e = m, so zeta_m -> omega is a ring map
    Z[zeta_m] -> F_l. N = prod_j f(zeta_m^j) holds in Z[zeta_m], so
    N = prod_j f(omega^j) (mod l). ``_unit_values_product`` takes all these
    values from one correlation, a single ``_poly_mul`` of two residue lists
    of length at most m, where one dot product per unit would cost
    phi(m) len(f) products per prime. Every l lies below the
    deterministic Miller-Rabin bound and is proven prime by ``pocklington_prime``.

    Bound. It is proved for the original d and w_0..w_{d-1}, since N is the same
    integer. For d > 1 every unit j is nonzero mod d, where sum_i zeta_d^(ij)
    = 0, so subtracting one integer c from every w_i leaves each W(zeta_d^j)
    unchanged; c is the floor of the mean weight, or 0 when d = 1. Let
    v_j = sum_i (w_i - c) zeta_d^(ij) for j in Z/d and S = sum_i (w_i - c)^2.
    The orthogonality sum_j zeta_d^(j(i-k)) = d [i = k] gives Parseval's
    identity sum_j |v_j|^2 = d S. Over the phi = phi(d) units j, AM-GM gives
    N^2 = prod |v_j|^2 <= (sum |v_j|^2 / phi)^phi <= (d S / phi)^phi, so
    4 N^2 <= 4 (d S)^phi / phi^phi, and, 4 N^2 being an integer, also at most
    its floor, the limit ``_crt_reconstruct`` is given. A zero W has limit 0,
    so no prime is drawn for it.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    folded = [index(sum(weights[i::d])) for i in range(d)]
    factors = factorize(d).factors
    phi = prod((r - 1) * r ** (e - 1) for r, e in factors)
    shift = sum(folded) // d if d > 1 else 0
    limit = 4 * (d * sum((c - shift) ** 2 for c in folded)) ** phi // phi**phi

    f = _fold(folded, d)
    for r, e in factors:
        for _ in range(e - 1):
            f = _relative_norm(f, d, r)
            d //= r
    if d <= 2:
        return f[0]
    m = d // 2 if d % 2 == 0 else d
    if m < d:  # f(-x), at the primitive m-th roots
        f = [-c if i & 1 else c for i, c in enumerate(f)]
    odd = [r for r, _ in factors if r > 2]
    return _crt_reconstruct(lambda ell: _unit_values_product(f, m, odd, ell), _crt_primes(d), limit)
