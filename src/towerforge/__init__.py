"""Exact-arithmetic verification of infinite class field tower criteria.

The package recomputes, from first principles, every quantity entering the
two sufficient conditions for a prime-power cyclotomic field to sit under an
infinite tower: relative class numbers (two independent methods),
multiplicative orders, regular-prime tests, signatures, ray class order
identities, local Kummer invariants, and the Golod-Shafarevich obstruction.
"""

from .arith import (
    FactoredInteger,
    euler_phi,
    factorize,
    is_prime,
    is_prime_power,
    mult_order,
)
from .bernoulli import is_regular_prime
from .characters import (
    RelClassNumber,
    hminus_determinant,
    hminus_product,
    relative_class_number,
)
from .criteria import (
    Conclusion,
    ConditionIVerdict,
    ConditionIIVerdict,
    CriterionReport,
    TowerCandidate,
    check_condition_I,
    check_condition_II,
    gl_order,
    gs_forces_infinite,
    gs_margin,
    min_rank_l,
    signature_of_L,
    verify_candidate,
)
from .cyclotomic import cyclo_poly, integer_det, primitive_root_product
from .errors import (
    BudgetExceededError,
    CacheMismatchError,
    CofactorError,
    FactorizationError,
    IntegralityError,
    PrecisionError,
    TowerforgeError,
)
from .local import (
    AT_CAP,
    KummerClass,
    LocalCycloElement,
    check_kummer_class_invariance,
    divide_by_pi,
    kappa,
    kappa_cap,
    kummer_class,
    pi_valuation,
)
from .pipeline import (
    CacheEntry,
    HminusCache,
    SearchResult,
    TableRow,
    cached_relative_class_number,
    emit_report,
    reproduce_table,
    search_candidates,
)
from .rayclass import (
    RayModulus,
    RayOrderIdentity,
    RayUnitProduct,
    check_ray_identity,
    local_unit_order,
    ray_numerator,
)

__version__ = "0.1.0"
