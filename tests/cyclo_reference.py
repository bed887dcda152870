"""Reference oracles for both exact kernels, the local ring and the h^- product route.

The cyclotomic polynomial Phi_n for every n, by exact monic long division, a
fraction-free Bareiss determinant, a Sylvester resultant evaluated with it,
a field-element class with Fraction coefficients, its norm, a brute-force
enumeration of the Dirichlet characters of prime-power modulus, and B(chi)
as an element of Q(zeta_d). The package computes determinants modulo primes
with ``integer_det`` and the orbit norms with ``primitive_root_product`` from
one list of generator powers instead; these slower, independent definitions
stay here so the tests can check those kernels and the h^- routes against
them. ``unit_values_product`` is the orbit-norm residue the package computed
before it took the chirp-z correlation: one dot product per unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import mul

from towerforge.arith import factorize
from towerforge.cyclotomic import _trim


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


def cyclo_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree.

    For a prime r not dividing k, x^r has order k exactly when x has order k
    or k r: r phi(k) distinct roots, so Phi_k(x^r) = Phi_k(x) Phi_{k r}(x).
    With s = n / rad n, Phi_n(x) = Phi_{rad n}(x^s): zeta^s has order rad n
    for each primitive n-th root zeta, and both sides are monic of degree
    phi(n). So Phi_n comes from Phi_1(x^s) = x^s - 1 by one exact division
    Phi_{k r}(x^s) = Phi_k(x^(r s)) / Phi_k(x^s) per prime r of n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    primes = factorize(n).primes
    s = n // prod(primes)
    poly = [-1] + [0] * (s - 1) + [1]
    for r in primes:
        stretched = [0 if i % r else poly[i // r] for i in range(r * len(poly) - r + 1)]
        poly = _poly_divmod_monic(stretched, poly)[0]
    return tuple(poly)


def poly_mul(a: list, b: list) -> list:
    """a * b term by term, for integer or Fraction coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def unit_values_product(f: list, d: int, ell: int) -> int:
    """prod f(omega^j) mod l over j in (Z/d)^*, omega of exact order d mod the prime l.

    Each of the phi(d) values is one dot product of f with the powers
    omega^(ij), read as a strided slice of the table of omega^k repeated
    len(f) times: phi(d) len(f) products per prime.
    """
    primes = [r for r, _ in factorize(d).factors]
    units = [j for j in range(d) if gcd(j, d) == 1]
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

    return residue(ell)


def bareiss_det(matrix: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    Every intermediate entry is a minor of the input, so the single division
    per step is exact and everything stays in Z.
    """
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def resultant(f: list[int] | tuple[int, ...], g: list[int] | tuple[int, ...]) -> int:
    """Resultant of two integer polynomials (Sylvester determinant).

    For monic f this equals the product of g over the roots of f, which is
    exactly the norm form needed here.
    """
    f = _trim(list(f))
    g = _trim(list(g))
    if not f or not g:
        return 0
    m = len(f) - 1
    n = len(g) - 1
    if n == 0:
        return g[0] ** m
    if m == 0:
        return f[0] ** n
    size = m + n
    rows: list[list[int]] = []
    frev = f[::-1]
    grev = g[::-1]
    for i in range(n):
        rows.append([0] * i + frev + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + grev + [0] * (size - n - 1 - i))
    return bareiss_det(rows)


class CycloElement:
    """Element of Q(zeta_n): a residue mod Phi_n(x) with Fraction coefficients.

    Immutable; the coefficient vector always has length phi(n). Since Phi_n is
    irreducible over Q the residue ring is a field, so every nonzero element
    is invertible.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs) -> None:
        phi = cyclo_poly(conductor)
        deg = len(phi) - 1
        c = [Fraction(x) for x in coeffs]
        if len(c) > deg:
            _, c = _poly_divmod_monic(c, phi)
        c += [Fraction(0)] * (deg - len(c))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, *_):
        raise AttributeError("CycloElement is immutable")

    @classmethod
    def zeta(cls, n: int) -> "CycloElement":
        """The distinguished root of unity zeta_n (the class of x)."""
        return cls(n, [0, 1])

    @classmethod
    def from_rational(cls, value, n: int) -> "CycloElement":
        return cls(n, [Fraction(value)])

    def _check_compatible(self, other: "CycloElement") -> None:
        if self.conductor != other.conductor:
            raise ValueError("conductor mismatch; lift explicitly first")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElement.from_rational(other, self.conductor)
        self._check_compatible(other)
        return CycloElement(self.conductor, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloElement(self.conductor, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, CycloElement) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + Fraction(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElement(self.conductor, [a * other for a in self.coeffs])
        self._check_compatible(other)
        prod = poly_mul(list(self.coeffs), list(other.coeffs))
        return CycloElement(self.conductor, prod)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CycloElement.from_rational(1, self.conductor)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloElement.from_rational(other, self.conductor)
        if not isinstance(other, CycloElement):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.conductor, self.coeffs))

    def __repr__(self) -> str:
        return f"CycloElement({self.conductor}, {[str(c) for c in self.coeffs]})"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def inverse(self) -> "CycloElement":
        """Multiplicative inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("zero element of a cyclotomic field")
        phi = [Fraction(c) for c in cyclo_poly(self.conductor)]
        r0, r1 = phi, _trim(list(self.coeffs))
        s0: list[Fraction] = []
        s1: list[Fraction] = [Fraction(1)]
        while len(r1) > 1:
            lead = r1[-1]
            monic_r1 = [c / lead for c in r1]
            q, r = _poly_divmod_monic(r0, monic_r1)
            q = [c / lead for c in q]
            r0, r1 = r1, _trim(r)
            qs = poly_mul(q, s1)
            new_s = [Fraction(0)] * max(len(s0), len(qs))
            for i, c in enumerate(s0):
                new_s[i] += c
            for i, c in enumerate(qs):
                new_s[i] -= c
            s0, s1 = s1, _trim(new_s)
        # r1 is a nonzero constant: gcd(self, Phi) up to scaling
        const = r1[0]
        return CycloElement(self.conductor, [c / const for c in s1])

    def lift_to(self, conductor: int) -> "CycloElement":
        """Image under zeta_n -> zeta_N^{N/n}; requires n | N."""
        n = self.conductor
        if conductor % n != 0:
            raise ValueError(f"{n} does not divide {conductor}")
        step = conductor // n
        lifted = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            lifted[i * step] = c
        return CycloElement(conductor, lifted)


def cyclo_norm(e: CycloElement) -> Fraction:
    """Product of all Galois conjugates of e, as an exact rational.

    Clears denominators, takes the resultant of the residue polynomial with
    Phi_n, and divides the scale factor back out.
    """
    if e.is_zero():
        return Fraction(0)
    scale = lcm(*(c.denominator for c in e.coeffs))
    ints = [int(c * scale) for c in e.coeffs]
    phi = cyclo_poly(e.conductor)
    deg = len(phi) - 1
    res = resultant(list(phi), ints)
    return Fraction(res, scale**deg)


def _order(g: int, q: int) -> int:
    """Multiplicative order of the unit g mod q, by repeated multiplication."""
    k, x = 1, g % q
    while x != 1:
        x = x * g % q
        k += 1
    return k


@dataclass(frozen=True)
class Character:
    """chi(a) = zeta_order^exponents[a] for each unit a mod ``modulus``."""

    modulus: int
    order: int
    exponents: dict[int, int]

    @property
    def is_odd(self) -> bool:
        return 2 * self.exponents[self.modulus - 1] == self.order

    def __pow__(self, t: int) -> "Character":
        """chi^t for t prime to the order, which keeps the order."""
        exponents = {a: k * t % self.order for a, k in self.exponents.items()}
        return Character(self.modulus, self.order, exponents)

    def weights(self) -> list[int]:
        """w_0..w_{d-1} of W = sum_a a x^k(a), so that W(zeta_d) = q B(chi)."""
        w = [0] * self.order
        for a, k in self.exponents.items():
            w[k] += a
        return w


def characters(p: int, m: int) -> list[Character]:
    """Every character of (Z/p^m)^*, p^m > 2, by brute force.

    The generators are the least unit of order phi(q) for odd p, and -1 and 5
    for p = 2; enumerating every product of their powers checks that they
    reach each unit exactly once. The character with images zeta_{s_i}^{k_i}
    on generators of orders s_i has the exponent sum x_i k_i e/s_i mod the
    group exponent e at a = prod g_i^{x_i}, and its order d is the least one
    that makes every exponent times d vanish mod e. The list is in
    lexicographic order of the images.
    """
    q = p**m
    units = [a for a in range(1, q) if a % p]
    if p == 2:
        gens = [q - 1, 5 % q]
    else:
        gens = [next(g for g in units if _order(g, q) == len(units))]
    orders = [_order(g, q) for g in gens]
    e = lcm(*orders)
    dlog = {}
    for xs in product(*map(range, orders)):
        dlog[prod(pow(g, x, q) for g, x in zip(gens, xs)) % q] = xs
    assert sorted(dlog) == units
    chars = []
    for images in product(*map(range, orders)):
        steps = [k * (e // s) for k, s in zip(images, orders)]
        big = {a: sum(x * step for x, step in zip(xs, steps)) % e for a, xs in dlog.items()}
        d = e // gcd(e, *big.values())
        chars.append(Character(q, d, {a: k * d // e for a, k in big.items()}))
    return chars


def gen_bernoulli_b1(chi: Character) -> CycloElement:
    """B(chi) = (1/q) sum_{a unit mod q} chi(a) a, as an element of Q(zeta_ord(chi)).

    For prime-power modulus this equals the value attached to the primitive
    character inducing chi, because the single ramified prime always divides
    the conductor of a nontrivial chi.
    """
    return CycloElement(chi.order, [Fraction(c, chi.modulus) for c in chi.weights()])
