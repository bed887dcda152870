"""One benchmark pass of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED MODE WORKDIR

MODE is ``setup`` (import and prepare only), ``pass`` (also run and check
the operations) or ``trace`` (a pass with every layer wrapped by tracer.py).
The worker changes into WORKDIR, so anything the program writes lands there,
and prints one JSON object on its last stdout line.

Nothing from ``towerforge`` is imported before the set-up clock starts, and
before it the worker imports only modules the package does not, so
``setup_s`` is a cold import of the package plus the workload's preparation.
Operations reach the package through module attributes at call time, so the
wrappers tracer.py installs after set-up see every call.
"""

from __future__ import annotations

import os
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Paper rows: conductor -> prime factors of h^-. The largest prime factor is
# the extension degree for which the paper concludes both-branches-pass.
PAPER_ROWS = {128: (17, 21121), 81: (2593,), 125: (2801, 20602801)}
BOTH = "both-branches-pass"

# (3, 2) instances cost from 2 ms to 1.7 s each, so a family drawn per seed
# would move wall_s between seeds by more than any bound could absorb; the
# family is drawn once from this seed and --seed only permutes it.
KUMMER_FAMILY_SEED = 20260810
# (p, m), precision, instances: the shape of acceptance criterion 6(d),
# with the expensive (3, 2) ring cut to 6 instances, one of each (v, cofactor count).
KUMMER_PLAN = (((2, 1), 8, 200), ((2, 2), 8, 150), ((3, 1), 6, 120), ((3, 2), 4, 6))

QUERY_COUNTS = {"verify": 300, "hminus": 200, "order": 310}
ORDER_MODULUS_MAX = 10**15
REGULAR_BELOW = 500
ORACLE_BOUND = 512
MR_BOUND = 3_317_044_064_679_887_385_961_981  # bases up to 41 decide primality below this


def primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n) if sieve[i]]


def sweep_family() -> list[tuple[int, int]]:
    """(p, m) of the sweep: p=2 m<=11, p=3 m<=6, p=5 m<=4, p=7 m<=3, minus conductor 2."""
    return [(p, m) for p, top in ((2, 11), (3, 6), (5, 4), (7, 3)) for m in range(1, top + 1) if p**m > 2]


def crosscheck_family() -> list[tuple[int, int]]:
    """Every prime-power conductor in [3, 200], plus 243, 256, 343 and 512."""
    family = []
    for p in primes_below(200):
        m = 1
        while p**m <= 200:
            if p**m >= 3:
                family.append((p, m))
            m += 1
    return family + [(3, 5), (2, 8), (7, 3), (2, 9)]


class Op:
    """One operation: ``run()`` is timed; ``check(value, ref)`` runs afterwards.

    ``check`` returns None for a correct answer, else ``(error_class, detail,
    wrong)``, where ``wrong`` marks an incorrect answer as opposed to work the
    program declined (a skip).
    """

    __slots__ = ("label", "run", "check")

    def __init__(self, label: str, run, check) -> None:
        self.label = label
        self.run = run
        self.check = check


def _wrong(detail: str) -> tuple[str, str, bool]:
    return ("wrong-answer", detail, True)


def _factor_string(factors) -> str:
    return " * ".join(str(p) if e == 1 else f"{p}^{e}" for p, e in factors) or "1"


def _is_prime(k: int) -> bool:
    """Deterministic Miller-Rabin for k < 3.3e24, independent of the package under test."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if k < 2:
        return False
    for b in bases:
        if k % b == 0:
            return k == b
    d, s = k - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, k)
        if x in (1, k - 1):
            continue
        for _ in range(s - 1):
            x = x * x % k
            if x == k - 1:
                break
        else:
            return False
    return True


def _prime_divisors(n: int) -> set[int]:
    """Distinct prime divisors of 1 <= n < 3.3e24 by trial division and Pollard rho."""
    from math import gcd

    found = set()
    for d in range(2, 1000):
        while n % d == 0:
            found.add(d)
            n //= d
    stack = [n] if n > 1 else []
    while stack:
        k = stack.pop()
        if _is_prime(k):
            found.add(k)
            continue
        for c in range(1, 100):
            x = y = 2
            g = 1
            while g == 1:
                x = (x * x + c) % k
                y = (y * y + c) % k
                y = (y * y + c) % k
                g = gcd(abs(x - y), k)
            if g != k:
                break
        else:
            raise ArithmeticError(f"Pollard rho found no factor of {k}")
        stack += [g, k // g]
    return found


# ---------------------------------------------------------------- sweep


def _skip_class(reason: str) -> str:
    for needle, name in (
        ("primality", "FactorizationError/primality-bound"),
        ("rho", "FactorizationError/rho-budget"),
        ("conductor", "BudgetExceededError/conductor-budget"),
    ):
        if needle in reason:
            return name
    return "skipped"


def candidate_row(p: int, m: int, h: int, f: int, irregular) -> dict:
    """A verify row from its defining formulas, given f = ord_h(p)."""
    phi = p ** (m - 1) * (p - 1)
    margin = f * f - 4 * f - 2 * h * phi
    cond_i = p not in irregular and margin >= 0
    bound = 2 * p**m * (p - 1) + 4
    cond_ii = h >= bound
    conclusion = {
        (True, True): BOTH,
        (True, False): "only-I",
        (False, True): "only-II",
        (False, False): "fail",
    }[(cond_i, cond_ii)]
    return {
        "p": p, "conductor": p**m, "h": h, "f": f, "cond_I": cond_i, "margin_I": margin,
        "cond_II": cond_ii, "bound_II": bound, "conclusion": conclusion,
    }


def _check_unrecorded_row(p: int, m: int, row: dict, irregular) -> str | None:
    """Check a row the reference does not record, without the package's arithmetic."""
    h = row["h"]
    if not h < MR_BOUND or not _is_prime(h):
        return f"reported degree {h} is not a certified prime"
    order = h - 1
    for r in _prime_divisors(h - 1):
        while order % r == 0 and pow(p, order // r, h) == 1:
            order //= r
    if row != candidate_row(p, m, h, order, irregular):
        return f"row for h = {h} differs from its formulas"
    return None


def _check_sweep(p: int, m: int, result, ref: dict):
    from towerforge.pipeline import TableRow

    q = p**m
    value = ref["hminus"][str(q)]["value"]
    rows = [TableRow.from_report(report).as_dict() for report in result.reports]
    for report in result.reports:
        if report.candidate.h_minus.value != value:
            return _wrong(f"h^-({q}) = {report.candidate.h_minus.value}, reference {value}")
    # Rows are compared with the reference where it records them (conductors
    # whose h^- factors below the certification bound); any other row must
    # name a prime divisor of h^- and match its formulas.
    known = str(q) in ref["candidates"]
    expected = {row["h"]: row for row in ref["candidates"].get(str(q), [])}
    for row in rows:
        if value % row["h"] or (known and row != expected.get(row["h"])):
            return _wrong(f"row for h = {row['h']} differs from the reference")
        if not known:
            problem = _check_unrecorded_row(p, m, row, ref["irregular_below_500"])
            if problem:
                return _wrong(problem)
    if q in PAPER_ROWS:
        top = [row for row in rows if row["h"] == PAPER_ROWS[q][-1]]
        if not top or top[0]["conclusion"] != BOTH or str(result.reports[0].candidate.h_minus) != _factor_string(
            (h, 1) for h in PAPER_ROWS[q]
        ):
            return _wrong(f"paper row {q} is not reproduced")
    declined = [reason for _, reason in result.skipped if "equals the ramified prime" not in reason and "degree-equals-p" not in reason]
    if declined:
        return (_skip_class(declined[0]), declined[0][:160], False)
    if known and {row["h"] for row in rows} != set(expected):
        return _wrong(f"reported degrees {sorted(r['h'] for r in rows)}, expected {sorted(expected)}")
    return None


def prepare_sweep(seed: int, workdir: Path) -> list[Op]:
    from towerforge import pipeline

    cache = pipeline.HminusCache(workdir / "sweep-cache.jsonl")
    family = sweep_family()
    random.Random(seed).shuffle(family)
    return [
        Op(
            f"sweep conductor {p**m}",
            lambda p=p, m=m: pipeline.search_candidates(p, m, m, cache=cache),
            lambda value, ref, p=p, m=m: _check_sweep(p, m, value, ref),
        )
        for p, m in family
    ]


# ---------------------------------------------------------------- crosscheck


def _check_crosscheck(p: int, m: int, value, ref: dict):
    q = p**m
    product, determinant = value
    if product != determinant:
        return _wrong(f"h^-({q}): product {product} != determinant {determinant}")
    if product != ref["hminus"][str(q)]["value"]:
        return _wrong(f"h^-({q}) = {product} differs from the reference")
    if q in PAPER_ROWS:
        paper = 1
        for factor in PAPER_ROWS[q]:
            paper *= factor
        if product != paper:
            return _wrong(f"paper row {q}: h^- = {product}, expected {paper}")
    return None


def prepare_crosscheck(seed: int, workdir: Path) -> list[Op]:
    from towerforge import characters

    family = crosscheck_family()
    random.Random(seed).shuffle(family)
    return [
        Op(
            f"crosscheck conductor {p**m}",
            lambda p=p, m=m: (
                characters.hminus_product(p, m),
                characters.hminus_determinant(p, m, bound=ORACLE_BOUND),
            ),
            lambda value, ref, p=p, m=m: _check_crosscheck(p, m, value, ref),
        )
        for p, m in family
    ]


# ---------------------------------------------------------------- kummer


def kummer_family() -> list[tuple]:
    """Fixed instances (p, m, precision, unit, v, cofactor units), units as coefficient lists.

    An element of Z_p[zeta] is a unit iff its coefficient sum is prime to p
    (zeta = 1 mod pi). The valuation v and the cofactor count cycle through
    {0, 1, 2} x {1, 2}, so every ring gets the same mix.
    """
    rng = random.Random(KUMMER_FAMILY_SEED)
    family = []
    for (p, m), precision, count in KUMMER_PLAN:
        e = p ** (m - 1) * (p - 1)

        def unit():
            while True:
                coeffs = [rng.randrange(p**precision) for _ in range(e)]
                if sum(coeffs) % p:
                    return coeffs

        for i in range(count):
            cofactors = [unit() for _ in range(1 + (i // 3) % 2)]
            family.append((p, m, precision, unit(), i % 3, cofactors))
    return family


def _run_kummer(local, p, m, precision, unit, v, cofactors) -> bool:
    element = local.LocalCycloElement
    target = element(p, m, precision, unit) * element.pi(p, m, precision) ** v
    powers = [element(p, m, precision, c) ** p for c in cofactors]
    return local.check_kummer_class_invariance(target, powers)


def prepare_kummer(seed: int, workdir: Path) -> list[Op]:
    from towerforge import local

    family = kummer_family()
    order = list(range(len(family)))
    random.Random(seed).shuffle(order)
    return [
        Op(
            f"kummer ({family[i][0]},{family[i][1]}) instance {i}",
            lambda args=family[i]: _run_kummer(local, *args),
            lambda value, ref: None if value is True else _wrong(f"invariance returned {value!r}"),
        )
        for i in order
    ]


# ---------------------------------------------------------------- queries


def _check_query(kind: str, args: tuple, value, ref: dict):
    code, out = value
    if kind == "order":
        base, mod = args
        k = int(out) if out.strip().isdigit() else 0
        if code != 0 or k < 1 or pow(base, k, mod) != 1 or any(pow(base, k // r, mod) == 1 for r in _prime_divisors(k)):
            return _wrong(f"output {out!r} (exit {code}) is not the order")
        return None
    want = 0
    if kind == "regular":
        (p,) = args
        expected = f"{p} is {'irregular' if p in ref['irregular_below_500'] else 'regular'}\n"
    elif kind == "hminus":
        p, m = args
        entry = ref["hminus"][str(p**m)]
        factored = _factor_string(entry["factors"])
        expected = f"h-(Q(zeta_{p**m})) = {entry['value']}"
        expected += ("" if factored == str(entry["value"]) else f" = {factored}") + "\n"
    else:
        import json

        p, m, row = args
        expected = json.dumps(dict(row, regular=p not in ref["irregular_below_500"]), indent=2) + "\n"
        want = 0 if row["conclusion"] == BOTH else 1
    if code != want or out != expected:
        return _wrong(f"output {out!r} (exit {code}), expected {expected!r} (exit {want})")
    return None


def _cli_call(cli, argv: list[str]) -> tuple[int, str]:
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def load_reference() -> dict:
    import json

    with REFERENCE.open(encoding="utf-8") as handle:
        return json.load(handle)


def _prefill_cache(path: Path, entries: list[tuple[int, dict]]) -> None:
    """Write the reference h^- values through the package's own cache API."""
    from towerforge.arith import FactoredInteger
    from towerforge.pipeline import CacheEntry, HminusCache

    cache = HminusCache(path)
    for conductor, entry in entries:
        value = FactoredInteger(entry["value"], tuple((p, e) for p, e in entry["factors"]))
        cache.store(CacheEntry(conductor, value, "2026-01-01T00:00:00+00:00", "reference"))


def prepare_queries(seed: int, workdir: Path) -> list[Op]:
    from math import gcd

    from towerforge import cli

    ref = load_reference()
    # Only conductors the package factors by itself, so every query is a
    # cache hit today and stays answerable if the cache goes away.
    own = [(int(q), e) for q, e in ref["hminus"].items() if e["factored_by_package"]]
    cache_path = workdir / "queries-cache.jsonl"
    _prefill_cache(cache_path, own)
    os.environ["TOWERFORGE_CACHE"] = str(cache_path)

    rows = [(e["p"], e["m"], row) for q, e in own for row in ref["candidates"].get(str(q), [])]
    paper = [r for r in rows if PAPER_ROWS.get(r[2]["conductor"], (0,))[-1] == r[2]["h"]]
    rng = random.Random(seed)
    queries = [("verify", r) for r in paper]
    queries += [("verify", rng.choice(rows)) for _ in range(QUERY_COUNTS["verify"] - len(paper))]
    queries += [("hminus", (e["p"], e["m"])) for _, e in (rng.choice(own) for _ in range(QUERY_COUNTS["hminus"]))]
    for _ in range(QUERY_COUNTS["order"]):
        mod = rng.randrange(3, ORDER_MODULUS_MAX)
        base = rng.randrange(2, mod)
        while gcd(base, mod) != 1:
            base = rng.randrange(2, mod)
        queries.append(("order", (base, mod)))
    # every prime below the limit twice: the Bernoulli table grows to the
    # same size in every run, whatever the order
    queries += [("regular", (p,)) for p in primes_below(REGULAR_BELOW) for _ in range(2)]
    rng.shuffle(queries)

    ops = []
    for kind, args in queries:
        if kind == "verify":
            argv = ["verify", "--p", str(args[0]), "--m", str(args[1]), "--h", str(args[2]["h"]), "--json"]
        elif kind == "hminus":
            argv = ["hminus", "--p", str(args[0]), "--m", str(args[1])]
        elif kind == "order":
            argv = ["order", "--base", str(args[0]), "--mod", str(args[1])]
        else:
            argv = ["regular", "--p", str(args[0])]
        ops.append(
            Op(
                " ".join(argv),
                lambda argv=argv: _cli_call(cli, argv),
                lambda value, ref, kind=kind, args=args: _check_query(kind, args, value, ref),
            )
        )
    return ops


PREPARE = {
    "sweep": prepare_sweep,
    "crosscheck": prepare_crosscheck,
    "kummer": prepare_kummer,
    "queries": prepare_queries,
}


def main(argv: list[str]) -> int:
    workload, seed, mode, workdir = argv[0], int(argv[1]), argv[2], Path(argv[3])
    sys.path.insert(0, str(HERE.parent / "src"))
    os.chdir(workdir)

    start = time.perf_counter()
    import towerforge.cli  # noqa: F401  (the whole package, as a CLI start loads it)

    ops = PREPARE[workload](seed, workdir)
    result: dict = {"setup_s": time.perf_counter() - start}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        outcomes = []
        op_s = []
        clock = time.perf_counter
        start = clock()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(index)
            op_start = clock()
            try:
                outcomes.append((True, op.run()))
            except Exception as exc:  # a failed operation is a result to count, not a harness error
                outcomes.append((False, exc))
            op_s.append(clock() - op_start)
            if tracer is not None:
                tracer.end_op()
        result["wall_s"] = clock() - start
        result["op_s"] = op_s
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        ref = load_reference()
        failures = []
        for op, (ok, value) in zip(ops, outcomes):
            error = op.check(value, ref) if ok else (type(value).__name__, str(value)[:160], False)
            if error is not None:
                failures.append({"op": op.label, "error": error[0], "detail": error[1], "wrong": error[2]})
        result["attempted"] = len(ops)
        result["failures"] = failures
        if tracer is not None:
            result["trace"] = tracer.report(result["wall_s"])

    import json

    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
