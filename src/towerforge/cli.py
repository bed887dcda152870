"""towerforge command line interface.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 budget exceeded.
``hminus``, ``verify`` and ``search`` admit (p, m, --budget) through the one
check ``arith.admit_conductor``, in its order; its ValueError exits 2 and its
BudgetExceededError exits 3. ``regular`` refuses a p that is not prime (exit
2), then a prime p above its --budget (exit 3), before any tangent number.
The h^- cache path defaults to ./hminus-cache.jsonl and can be overridden via
the TOWERFORGE_CACHE environment variable.

Each subcommand imports the package modules it runs when it runs, so a
process compiles only what its one command uses: ``order`` loads ``arith``
alone, ``regular`` adds ``bernoulli``, and only ``kappa`` loads ``local``.
Module top keeps ``argparse``, which every run needs, and ``errors``, whose
classes ``main`` catches. The imports read the modules' current attributes,
so a function rebound on its module is the one each command calls.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .errors import (
    BudgetExceededError,
    CacheMismatchError,
    CofactorError,
    PrecisionError,
    TowerforgeError,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3


def _cache_from_env():
    from .pipeline import DEFAULT_CACHE_NAME, HminusCache

    return HminusCache(os.environ.get("TOWERFORGE_CACHE", DEFAULT_CACHE_NAME))


def _cmd_hminus(args) -> int:
    from .arith import admit_conductor
    from .characters import hminus_determinant
    from .pipeline import cached_relative_class_number

    conductor = admit_conductor(args.p, args.m, args.budget)
    value = cached_relative_class_number(
        args.p, args.m, _cache_from_env(), verify=args.verify_cache
    )
    factored = str(value)
    if factored != str(value.value):
        print(f"h-(Q(zeta_{conductor})) = {value.value} = {factored}")
    else:
        print(f"h-(Q(zeta_{conductor})) = {value.value}")
    if args.oracle:
        oracle = hminus_determinant(args.p, args.m)
        if oracle != value.value:
            print(f"oracle mismatch: determinant got {oracle}", file=sys.stderr)
            return EXIT_VERIFICATION
        print(f"determinant oracle agrees: {oracle}")
    return EXIT_OK


def _cmd_order(args) -> int:
    from .arith import mult_order

    print(mult_order(args.base, args.mod))
    return EXIT_OK


def _cmd_regular(args) -> int:
    from .arith import is_prime
    from .bernoulli import is_regular_prime

    if not is_prime(args.p):
        raise ValueError(f"{args.p} is not prime")
    if args.p > args.budget:
        raise BudgetExceededError(f"prime {args.p} exceeds budget {args.budget}")
    verdict = "regular" if is_regular_prime(args.p) else "irregular"
    print(f"{args.p} is {verdict}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .arith import admit_conductor
    from .criteria import Conclusion, TowerCandidate, verify_candidate
    from .pipeline import TableRow, cached_relative_class_number, emit_report

    admit_conductor(args.p, args.m, args.budget)
    h_minus = cached_relative_class_number(args.p, args.m, _cache_from_env())
    candidate = TowerCandidate.build(args.p, args.m, args.h, h_minus)
    report = verify_candidate(candidate)
    row = TableRow.from_report(report)
    if args.json:
        import json

        payload = dict(row.as_dict(), regular=report.regular_p)
        print(json.dumps(payload, indent=2))
    else:
        print(emit_report([row], "text"), end="")
    return EXIT_OK if report.conclusion is Conclusion.BOTH else EXIT_VERIFICATION


def _cmd_kappa(args) -> int:
    from .local import LocalCycloElement, check_kappa_domain, kappa, kappa_precision

    try:
        coeffs = [int(part) for part in args.elem.split(",")]
    except ValueError:
        raise ValueError(f"--elem must be comma-separated integers, got {args.elem!r}")
    check_kappa_domain(args.p, args.m, args.lmax)
    element = LocalCycloElement(args.p, args.m, kappa_precision(args.p, args.m, args.lmax), coeffs)
    print(kappa(element, args.lmax))
    return EXIT_OK


def _cmd_reproduce_table(args) -> int:
    from .criteria import Conclusion
    from .pipeline import emit_report, reproduce_table

    rows = reproduce_table(_cache_from_env())
    print(emit_report(rows, args.format), end="" if args.format != "json" else "\n")
    all_pass = all(row.conclusion == Conclusion.BOTH.value for row in rows)
    return EXIT_OK if all_pass else EXIT_VERIFICATION


def _cmd_search(args) -> int:
    from .pipeline import TableRow, emit_report, search_candidates

    result = search_candidates(
        args.p,
        args.m_from,
        args.m_to,
        conductor_budget=args.budget,
        cache=_cache_from_env(),
    )
    rows = [TableRow.from_report(report) for report in result.reports]
    print(emit_report(rows, args.format), end="" if args.format != "json" else "\n")
    for conductor, reason in result.skipped:
        print(f"skipped conductor {conductor}: {reason}", file=sys.stderr)
    return EXIT_BUDGET if result.budget_exceeded else EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="towerforge",
        description="Exact verification of infinite class field tower criteria "
        "over prime-power cyclotomic fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hminus = sub.add_parser("hminus", help="relative class number of conductor p^m")
    p_hminus.add_argument("--p", type=int, required=True)
    p_hminus.add_argument("--m", type=int, required=True)
    p_hminus.add_argument("--oracle", action="store_true", help="cross-check with the determinant oracle")
    p_hminus.add_argument("--verify-cache", action="store_true", help="recompute even when cached")
    p_hminus.add_argument("--budget", type=int, default=2048, help="largest conductor to attempt")
    p_hminus.set_defaults(func=_cmd_hminus)

    p_order = sub.add_parser("order", help="multiplicative order of base mod N")
    p_order.add_argument("--base", type=int, required=True)
    p_order.add_argument("--mod", type=int, required=True)
    p_order.set_defaults(func=_cmd_order)

    p_regular = sub.add_parser("regular", help="regular-prime test")
    p_regular.add_argument("--p", type=int, required=True)
    p_regular.add_argument("--budget", type=int, default=2048, help="largest p to attempt")
    p_regular.set_defaults(func=_cmd_regular)

    p_verify = sub.add_parser("verify", help="evaluate both tower conditions for (p, m, h)")
    p_verify.add_argument("--p", type=int, required=True)
    p_verify.add_argument("--m", type=int, required=True)
    p_verify.add_argument("--h", type=int, required=True)
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--budget", type=int, default=2048, help="largest conductor to attempt")
    p_verify.set_defaults(func=_cmd_verify)

    p_kappa = sub.add_parser("kappa", help="p-th power congruence depth of a local unit")
    p_kappa.add_argument("--p", type=int, required=True)
    p_kappa.add_argument("--m", type=int, required=True)
    p_kappa.add_argument("--elem", type=str, required=True, help="comma-separated coefficients")
    p_kappa.add_argument("--lmax", type=int, required=True)
    p_kappa.set_defaults(func=_cmd_kappa)

    p_table = sub.add_parser("reproduce-table", help="recompute the three verification rows")
    p_table.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p_table.set_defaults(func=_cmd_reproduce_table)

    p_search = sub.add_parser("search", help="sweep conductors and rank candidate degrees")
    p_search.add_argument("--p", type=int, required=True)
    p_search.add_argument("--m-from", type=int, required=True)
    p_search.add_argument("--m-to", type=int, required=True)
    p_search.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p_search.add_argument("--budget", type=int, default=2048)
    p_search.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, PrecisionError, CofactorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CacheMismatchError as exc:
        print(f"cache mismatch: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except TowerforgeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
