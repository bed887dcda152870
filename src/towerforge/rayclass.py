"""Order bookkeeping for ray class groups.

For a modulus built from num_primes distinct primes of residue norm q, each
raised to the k-th power, the residue unit group has order
(q^{k-1}(q-1))^num_primes by the Chinese Remainder Theorem, and the four-term
exact sequence

    1 -> units/units_congruent_1 -> (O/m)^* -> Cl^m -> Cl -> 1

links the ray class order to the ordinary class order. Only orders and the
identity are verified here; no unit group of a large field is ever computed.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import FactoredInteger, factorize, is_prime_power


class _RayModulusFields(NamedTuple):
    residue_norm: int
    k: int
    num_primes: int


class RayModulus(_RayModulusFields):
    """num_primes distinct primes of residue norm q, each to the k-th power."""

    __slots__ = ()

    def __new__(cls, residue_norm: int, k: int, num_primes: int) -> RayModulus:
        if is_prime_power(residue_norm) is None:
            raise ValueError(f"residue norm {residue_norm} is not a prime power")
        if k < 1 or num_primes < 1:
            raise ValueError("k and num_primes must be >= 1")
        return super().__new__(cls, residue_norm, k, num_primes)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace certifies too


class _RayOrderFields(NamedTuple):
    unit_index: int
    residue_unit_order: int
    class_order: int
    ray_class_order: int


class RayOrderIdentity(_RayOrderFields):
    """The four orders in the exact sequence, in the order they appear."""

    __slots__ = ()

    def __new__(
        cls, unit_index: int, residue_unit_order: int, class_order: int, ray_class_order: int
    ) -> RayOrderIdentity:
        if min(unit_index, residue_unit_order, class_order, ray_class_order) < 1:
            raise ValueError("all orders must be positive")
        return super().__new__(cls, unit_index, residue_unit_order, class_order, ray_class_order)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace certifies too


class RayUnitProduct(NamedTuple):
    """Residue unit order of a full modulus, with its residue-characteristic part."""

    value: FactoredInteger
    p_part: int


def local_unit_order(q: int, k: int) -> int:
    """|(O/P^k)^*| = q^{k-1}(q-1) for a prime P of residue norm q."""
    if is_prime_power(q) is None:
        raise ValueError(f"residue norm {q} is not a prime power")
    if k < 1:
        raise ValueError("k must be >= 1")
    return q ** (k - 1) * (q - 1)


def ray_numerator(modulus: RayModulus) -> RayUnitProduct:
    """Residue unit order of the whole modulus: (q^{k-1}(q-1))^num_primes.

    The p_part q^{num_primes*(k-1)} is the piece whose survival in the ray
    class quotient the divisibility argument turns on.
    """
    q, k, h = modulus.residue_norm, modulus.k, modulus.num_primes
    value = local_unit_order(q, k) ** h
    return RayUnitProduct(factorize(value), q ** (h * (k - 1)))


def check_ray_identity(identity: RayOrderIdentity) -> bool:
    """Exactness check: |Cl^m| * |units/units_1| = |(O/m)^*| * |Cl|."""
    return (
        identity.ray_class_order * identity.unit_index
        == identity.residue_unit_order * identity.class_order
    )
