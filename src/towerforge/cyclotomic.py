"""Cyclotomic polynomials and the two exact integer kernels built on them.

Polynomials are dense integer coefficient lists, index = degree. Both kernels
work modulo primes below the deterministic Miller-Rabin bound, each certified
by ``is_prime``, and end in one reconstruction, ``_crt_reconstruct``: Chinese
remaindering until the modulus exceeds twice a proven bound, then the
symmetric lift. ``integer_det`` (it serves the h^- determinant oracle)
eliminates over F_l with each row packed into one int, under Hadamard's bound
or a tighter one the caller proves. ``primitive_root_product`` is the norm of
W(zeta_d). It first descends the tower Q(zeta_d) > Q(zeta_{d/r}) > ... in
exact integers, one relative norm (a product of r Galois conjugates) per
repeated prime factor r, down to the squarefree level rad(d) (the field-norm
descent of Pornin and Prest, PKC 2019). There, it evaluates the descended
polynomial mod l at the phi(d) primitive d-th roots of unity only, one dot
product each, under a Parseval/AM-GM bound proved for the original W; at
rad(d) <= 2 the descent alone is exact and no prime is drawn. Neither kernel
uses anything but integers.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from itertools import count
from math import gcd, prod
from operator import mul

from .arith import _MR_BOUND, euler_phi, factorize, is_prime


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _poly_divmod_monic(num: list, den) -> tuple[list, list]:
    """Divide by a monic polynomial; exact over Z when num is integral."""
    num = list(num)
    dd = len(den) - 1
    terms = [(i, c) for i, c in enumerate(den[:dd]) if c]
    quo = [0] * max(0, len(num) - dd)
    for k in range(len(quo) - 1, -1, -1):
        c = num[k + dd]
        if c:
            quo[k] = c
            for i, t in terms:
                num[k + i] -= c * t
    return quo, _trim(num[:dd])


_cyclo_cache: dict[int, tuple[int, ...]] = {}


def cyclo_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree.

    Computed by recursively dividing x^n - 1 by the lower-index cyclotomic
    polynomials; results are memoized.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cached = _cyclo_cache.get(n)
    if cached is not None:
        return cached
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod_monic(num, cyclo_poly(d))
            assert not rem
    result = tuple(num)
    assert len(result) - 1 == euler_phi(n)
    _cyclo_cache[n] = result
    return result


_crt_prime_cache: dict[int, list[int]] = {}


def _crt_primes(d: int) -> Iterator[int]:
    """Primes l = 1 (mod d) below the deterministic Miller-Rabin bound, descending.

    The list is a pure function of d, so the primes found are memoized and a
    later walk certifies only the primes past the end of every earlier one.
    """
    primes = _crt_prime_cache.setdefault(d, [])
    for i in count():
        if i == len(primes):
            k = (primes[-1] - 1) // d - 1 if primes else (_MR_BOUND - 2) // d
            while k > 0 and not is_prime(k * d + 1):
                k -= 1
            if k <= 0:
                return
            primes.append(k * d + 1)
        yield primes[i]


def _crt_reconstruct(
    residue: Callable[[int], int], primes: Iterator[int], limit: int, scale: int = 1
) -> int:
    """The integer N with N = residue(l) (mod l) for every l drawn from ``primes``.

    The caller proves 4 N^2 scale <= limit. Residues are combined by the
    Chinese remainder theorem until the modulus M has M^2 scale > limit, so
    M > 2|N|, and N is the residue in (-M/2, M/2]. Both exact kernels end here.
    """
    modulus, value = 1, 0
    while modulus * modulus * scale <= limit:
        ell = next(primes)
        value += modulus * ((residue(ell) - value) * pow(modulus, -1, ell) % ell)
        modulus *= ell
    return value - modulus if 2 * value > modulus else value


def _det_mod(matrix: Sequence[Sequence[int]], ell: int) -> int:
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
    """
    n = len(matrix)
    width = (2 * ell.bit_length() + (n + 1).bit_length() + 7) // 8
    shift = 8 * width
    mask = (1 << shift) - 1

    def pack(values) -> int:
        return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")

    rows = [pack(x % ell for x in row) for row in matrix]
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
        packed = pack(
            int.from_bytes(data[j : j + width], "little") * scale % ell
            for j in range(width, len(data), width)
        )
        rows[k + 1 :] = [(r >> shift) + (r & mask) % ell * packed for r in rows[k + 1 :]]
    return det % ell


def integer_det(matrix: Sequence[Sequence[int]], square_bound: int | None = None) -> int:
    """Determinant of a square integer matrix, exact, from its residues mod primes.

    ``square_bound`` must be at least det^2; it defaults to Hadamard's bound
    prod_i sum_j m_ij^2. Each prime l comes from ``_crt_primes(1)``: it lies
    below the deterministic Miller-Rabin bound and is certified by
    ``is_prime``. ``_det_mod`` gives det mod l, and ``_crt_reconstruct`` lifts
    the residues once their modulus exceeds 2 sqrt(square_bound).
    """
    if square_bound is None:
        square_bound = prod(sum(x * x for x in row) for row in matrix)
    return _crt_reconstruct(lambda ell: _det_mod(matrix, ell), _crt_primes(1), 4 * square_bound)


def _relative_norm(f: list, d: int, r: int) -> list:
    """The norm of f(zeta_d) down to Q(zeta_{d/r}), as a polynomial in zeta_{d/r}; r^2 | d.

    f is reduced mod Phi_d and so is the result, mod Phi_{d/r}. Since r^2 | d,
    (1 + d/r)^k = 1 + k d/r (mod d), so the r maps x -> x^(1 + k d/r),
    0 <= k < r, are the subgroup of (Z/d)^* that fixes zeta_d^r: the Galois
    group of Q(zeta_d) over Q(zeta_{d/r}). Each conjugate is an exponent
    permutation mod d, reduced mod Phi_d, and their product is reduced mod Phi_d
    after each step. The norm lies in Z[zeta_d^r], and Phi_d(x) = Phi_{d/r}(x^r)
    has degree r phi(d/r), so the reduced product is h(x^r) with h reduced mod
    Phi_{d/r}: every r-th coefficient, and only those, may be nonzero.
    """
    phi = cyclo_poly(d)
    norm = f
    for k in range(1, r):
        e = 1 + k * (d // r)
        conjugate = [0] * d
        for i, c in enumerate(f):
            conjugate[i * e % d] = c
        conjugate = _poly_divmod_monic(conjugate, phi)[1]
        norm = _poly_divmod_monic(_poly_mul(norm, conjugate), phi)[1]
    assert not any(c for i, c in enumerate(norm) if i % r)
    return norm[::r]


def primitive_root_product(d: int, weights: Sequence[int]) -> int:
    """prod W(zeta_d^j) over j in (Z/d)^*, where W = sum_i weights[i] x^i; exact.

    Phi_d is monic and its roots are the primitive d-th roots of unity, so
    this is Res(Phi_d, W), the norm N of W(zeta_d) from Q(zeta_d) to Q. As
    zeta_d^d = 1, W may have any length: it is folded to w_0..w_{d-1} first.

    Descent. W is reduced mod Phi_d to f. While some prime r has r^2 | d, f is
    replaced by its norm to Q(zeta_{d/r}) (``_relative_norm``) and d by d/r;
    norms compose along the tower, so N is unchanged. Everything stays in Z
    and d ends at its radical. If that is 1 or 2, Q(zeta_d) = Q and N is the
    constant left: no prime is needed.

    Residues. Otherwise take a prime l = 1 (mod d) and omega in F_l of exact
    order d. omega is a root of x^d - 1 = prod_{e | d} Phi_e, hence of some
    Phi_e with e | d; omega^e = 1 forces e = d, so zeta_d -> omega is a ring
    map Z[zeta_d] -> F_l. N = prod_j f(zeta_d^j) holds in Z[zeta_d], so
    N = prod_j f(omega^j) (mod l). f has at most phi(d) terms, so each of the
    phi(d) values is one dot product of f with the powers omega^(ij), read as
    a strided slice of the table of omega^k repeated len(f) times: at most
    phi(d)^2 products per prime, against d times the sum of the prime factors
    for a transform of all d values, plus that transform's twiddles (cubic in
    a large prime factor). Every l lies below the deterministic Miller-Rabin
    bound and is certified by ``is_prime``.

    Bound. It is proved for the original d and folded W, since N is the same
    integer. For d > 1 every unit j is nonzero mod d, where sum_i zeta_d^(ij)
    = 0, so subtracting one integer c from every w_i leaves each W(zeta_d^j)
    unchanged; c is the floor of the mean weight, or 0 when d = 1. Let
    v_j = sum_i (w_i - c) zeta_d^(ij) for j in Z/d and S = sum_i (w_i - c)^2.
    The orthogonality sum_j zeta_d^(j(i-k)) = d [i = k] gives Parseval's
    identity sum_j |v_j|^2 = d S. Over the phi = phi(d) units j, AM-GM gives
    N^2 = prod |v_j|^2 <= (sum |v_j|^2 / phi)^phi <= (d S / phi)^phi, so
    4 N^2 phi^phi <= 4 (d S)^phi, the limit ``_crt_reconstruct`` is given. A
    zero W needs no prime at all.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    folded = [0] * d
    for i, c in enumerate(weights):
        folded[i % d] += c
    factors = factorize(d).factors
    phi = prod((r - 1) * r ** (e - 1) for r, e in factors)
    shift = sum(folded) // d if d > 1 else 0
    limit = 4 * (d * sum((c - shift) ** 2 for c in folded)) ** phi

    f = _poly_divmod_monic(folded, cyclo_poly(d))[1]
    for r, e in factors:
        for _ in range(e - 1):
            f = _relative_norm(f, d, r)
            d //= r
    if d <= 2:
        return f[0] if f else 0
    units = [j for j in range(d) if gcd(j, d) == 1]
    primes = [r for r, _ in factors]
    n = len(f)

    def residue(ell: int) -> int:
        g = 2  # g^((l-1)/d) has exact order d iff no g^((l-1)/r), r | d, is 1
        while any(pow(g, (ell - 1) // r, ell) == 1 for r in primes):
            g += 1
        omega = pow(g, (ell - 1) // d, ell)
        powers = [1] * d
        for k in range(1, d):
            powers[k] = powers[k - 1] * omega % ell
        powers *= n  # omega^k at every k < d n, since omega^d = 1
        result = 1
        for j in units:
            result = result * sum(map(mul, f, powers[: j * n : j])) % ell
        return result

    return _crt_reconstruct(residue, _crt_primes(d), limit, phi**phi)
