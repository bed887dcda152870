"""Record the reference values the benchmark checks answers against.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json. Every h^- comes from the half-system
determinant oracle, which never touches a character, for conductors up to
REFERENCE_ORACLE_BOUND (1024 costs about 40 s; 2048 would take a quarter of
an hour), and must equal the product formula. Above the bound the product
formula alone is recorded, marked as such.

Factorizations, multiplicative orders and Bernoulli numerators get a second
opinion from sympy, which this script needs and the benchmark does not.
Candidate rows are recomputed from their defining formulas and must equal
what the package reports. Any disagreement stops the script.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.set_int_max_str_digits(0)

from worker import MR_BOUND, PAPER_ROWS, REGULAR_BELOW, candidate_row, crosscheck_family, primes_below, sweep_family  # noqa: E402

from towerforge.arith import FactoredInteger, factorize  # noqa: E402
from towerforge.bernoulli import is_regular_prime  # noqa: E402
from towerforge.characters import hminus_determinant, hminus_product  # noqa: E402
from towerforge.criteria import TowerCandidate, verify_candidate  # noqa: E402
from towerforge.errors import FactorizationError  # noqa: E402
from towerforge.pipeline import TableRow  # noqa: E402

try:
    import sympy
except ImportError:
    sys.exit("make_reference.py needs sympy for its second opinion")

REFERENCE_ORACLE_BOUND = 1024


def irregular_primes(limit: int) -> list[int]:
    """Kummer's criterion on sympy's Bernoulli numbers; must match the package."""
    found = []
    for p in primes_below(limit):
        irregular = any(sympy.bernoulli(k).p % p == 0 for k in range(2, p - 2, 2))
        if irregular == is_regular_prime(p):
            raise SystemExit(f"regularity of {p}: sympy and the package disagree")
        if irregular:
            found.append(p)
    return found


def main() -> int:
    irregular = irregular_primes(REGULAR_BELOW)
    hminus, candidates = {}, {}
    for p, m in sorted(set(sweep_family()) | set(crosscheck_family()), key=lambda pm: pm[0] ** pm[1]):
        q = p**m
        value = hminus_product(p, m)
        if q <= REFERENCE_ORACLE_BOUND:
            if hminus_determinant(p, m, bound=REFERENCE_ORACLE_BOUND) != value:
                raise SystemExit(f"h^-({q}): the two routes disagree")
            source = f"determinant oracle (bound {REFERENCE_ORACLE_BOUND}), equal to the product formula"
        else:
            source = "product formula only (above the oracle bound)"
        try:
            factors = list(factorize(value).factors)
            by_package = True
        except FactorizationError:
            factors, by_package = None, False
        if factors is None and q <= 512:  # larger ones leave 89+ digit composites
            factors = sorted(sympy.factorint(value).items())
            if max(p_ for p_, _ in factors) >= MR_BOUND:
                factors = None
        if factors is not None and by_package and dict(factors) != sympy.factorint(value):
            raise SystemExit(f"h^-({q}): factorizations disagree")
        hminus[str(q)] = {
            "p": p, "m": m, "value": value, "factors": factors,
            "factored_by_package": by_package, "source": source,
        }
        print(f"{q:5d} {'factored' if factors else 'unfactored':10s} {source}", flush=True)
        if factors is None:
            continue
        h_minus = FactoredInteger(value, tuple(tuple(f) for f in factors))
        rows = []
        for h, _ in factors:
            if h == p:
                continue
            row = candidate_row(p, m, h, int(sympy.n_order(p, h)), irregular)
            package = TableRow.from_report(verify_candidate(TowerCandidate.build(p, m, h, h_minus))).as_dict()
            if row != package:
                raise SystemExit(f"row ({p}, {m}, {h}): formula {row} != package {package}")
            rows.append(row)
        if rows:
            candidates[str(q)] = rows

    for q, primes in PAPER_ROWS.items():
        assert [p for p, _ in hminus[str(q)]["factors"]] == list(primes), q

    reference = {
        "about": (
            "h^- of every conductor the benchmark sees. 'source' says how each value was "
            "obtained; factorizations agree with sympy.factorint, and candidate rows were "
            "recomputed from their formulas with sympy.n_order and match the package. "
            "factors is null where h^- has a prime factor above 3.3e24 or a cofactor "
            "nobody here could split."
        ),
        "hminus": hminus,
        "candidates": candidates,
        "irregular_below_500": irregular,
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
