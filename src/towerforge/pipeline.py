"""End-to-end runs: the three-row verification table, candidate search, reports.

Recomputed relative class numbers flow through an append-only JSONL cache
(one object per line: conductor, factored value, method, timestamp). The
cache only ever accelerates; any consumer that recomputes and disagrees with
a cached line fails hard rather than trusting it.
"""

from __future__ import annotations

import json
import os
import time
from functools import lru_cache
from io import StringIO
from math import prod
from typing import TYPE_CHECKING, NamedTuple

from .arith import FactoredInteger, admit_conductor, check_exponent, conductor_label, is_prime_power
# at module level on purpose: deferring it moves its compile into the first h^- computation
from .characters import relative_class_number
from .criteria import Conclusion, CriterionReport, TowerCandidate, verify_candidate
from .errors import BudgetExceededError, CacheMismatchError, FactorizationError

if TYPE_CHECKING:
    from pathlib import Path

DEFAULT_CACHE_NAME = "hminus-cache.jsonl"

# the three conductors whose verification table the CLI reproduces end to end
TABLE_CASES = ((2, 7), (3, 4), (5, 3))

# cached conductors are prime powers in [3, cap]; the cap, far above any
# computable h^-, is checked before factoring and bounds the Hadamard limit
_MAX_CACHED_CONDUCTOR = 2**20


def _check_cacheable(
    conductor: int, factors: tuple[tuple[int, int], ...], computed_at: str, method: str
) -> None:
    """Raise ValueError unless h^-(conductor) = prod p^e may be cached.

    Both ``HminusCache.store`` and ``CacheEntry.from_json_line`` call this,
    so the cache never holds a line that a load would reject. Every number
    must be an int (a JSON integer; not a bool) and both texts str: a load
    takes a line as written, never coerces it.
    """
    numbers = (conductor, *(n for pair in factors for n in pair))
    if any(type(n) is not int for n in numbers) or any(type(t) is not str for t in (computed_at, method)):
        raise ValueError(f"cache entry for conductor {conductor!r} is not integers and strings")
    if not 3 <= conductor <= _MAX_CACHED_CONDUCTOR or is_prime_power(conductor) is None:
        raise ValueError(f"conductor {conductor} is not a prime power in [3, {_MAX_CACHED_CONDUCTOR}]")
    # Hadamard: h^- = w |det| / (2q)^n for the n x n half-system matrix with
    # entries in (-q, q), so h^- <= w (n/4)^(n/2), where w <= 2q and
    # n = phi(q)/2 <= q // 2 (the bound does not fall as an integer n >= 1
    # grows). Compared in bits, so no power is formed:
    # log2 h^- >= sum e (bit_length(p) - 1), and twice log2 of the bound
    # is below 2 bit_length(2q) + n (bit_length(n) - 2).
    n = conductor // 2
    limit = 2 * (2 * conductor).bit_length() + n * (n.bit_length() - 2)
    bits = 0
    for p, e in factors:
        bits += e * (p.bit_length() - 1)
        if p < 2 or e < 1 or 2 * bits > limit:
            raise ValueError(f"h_minus factors out of range for conductor {conductor}")


class CacheEntry(NamedTuple):
    conductor: int
    h_minus: FactoredInteger
    computed_at: str
    method: str

    def to_json_line(self) -> str:
        payload = {
            "conductor": self.conductor,
            "h_minus": [list(pair) for pair in self.h_minus.factors],
            "method": self.method,
            "computed_at": self.computed_at,
        }
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    @lru_cache(maxsize=1024)
    def from_json_line(cls, line: str) -> "CacheEntry":
        """Parse and check one line; memoized on its text (a raise is not)."""
        payload = json.loads(line)
        conductor, computed_at, method = payload["conductor"], payload["computed_at"], payload["method"]
        factors = tuple((p, e) for p, e in payload["h_minus"])
        _check_cacheable(conductor, factors, computed_at, method)
        return cls(conductor, FactoredInteger(prod(p**e for p, e in factors), factors), computed_at, method)


class HminusCache:
    """Append-only JSONL cache of factored relative class numbers.

    Later lines win on re-read. A torn line (an append still in flight, or
    one cut short by a crash) is tolerated; any other malformed line is an
    error. A torn line is the trailing line, or a line that opens a JSON
    object and does not decode: ``store`` starts a fresh line after a torn
    tail, so the remains of a crashed append never swallow a new entry.
    Stores hold an exclusive POSIX advisory lock (``fcntl.flock``) from the
    tail check through the write, so none sees another's line half written.
    """

    def __init__(self, path: str | Path) -> None:
        from pathlib import Path  # here, not at import: it loads urllib.parse and ipaddress

        self.path = Path(path)

    def load(self) -> dict[int, CacheEntry]:
        try:
            # records end in "\n" only; str.splitlines also breaks at \f, U+2028, ...
            lines = self.path.read_bytes().decode("utf-8").removesuffix("\n").split("\n")
        except FileNotFoundError:
            return {}
        except (OSError, UnicodeDecodeError) as exc:  # a decode error has no strerror
            raise ValueError(f"cannot use cache {self.path}: {getattr(exc, 'strerror', exc)}") from exc
        entries: dict[int, CacheEntry] = {}
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                entry = CacheEntry.from_json_line(line)
            # a line that decodes to the wrong shape raises TypeError ([1], "x",
            # a non-list h_minus) or ValueError (a field of the wrong type);
            # json.JSONDecodeError is a ValueError
            except (KeyError, TypeError, ValueError) as exc:
                torn = isinstance(exc, json.JSONDecodeError) and line.startswith("{")
                if torn or i == len(lines) - 1:
                    continue
                raise ValueError(f"malformed cache line {i + 1} in {self.path}")
            entries[entry.conductor] = entry
        return entries

    def lookup(self, conductor: int) -> CacheEntry | None:
        return self.load().get(conductor)

    def store(self, entry: CacheEntry) -> None:
        import fcntl  # POSIX only; imported here, as pathlib is

        _check_cacheable(entry.conductor, entry.h_minus.factors, entry.computed_at, entry.method)
        line = entry.to_json_line().encode("utf-8") + b"\n"
        try:
            with self.path.open("a+b") as handle:
                fcntl.flock(handle, fcntl.LOCK_EX)  # closing flushes the line, then unlocks
                size = handle.seek(0, os.SEEK_END)
                if size:
                    handle.seek(size - 1)
                    if handle.read(1) != b"\n":
                        line = b"\n" + line
                handle.write(line)
        except OSError as exc:
            raise ValueError(f"cannot use cache {self.path}: {exc.strerror}") from exc


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def cached_relative_class_number(
    p: int,
    m: int,
    cache: HminusCache | None = None,
    *,
    verify: bool = False,
) -> FactoredInteger:
    """h^- through the cache; verify=True recomputes and cross-checks regardless.

    p and m are validated before the lookup, so a cached conductor answers
    exactly the (p, m) that would compute it.
    """
    conductor = admit_conductor(p, m)
    entry = cache.lookup(conductor) if cache is not None else None
    if entry is not None and not verify:
        return entry.h_minus
    fresh = relative_class_number(p, m)
    if entry is not None and entry.h_minus != fresh:
        raise CacheMismatchError(
            f"conductor {conductor}: cached {entry.h_minus.value} = {entry.h_minus}, "
            f"recomputed {fresh.value} = {fresh}"
        )
    if entry is None and cache is not None:
        cache.store(CacheEntry(conductor, fresh, _now(), "product-formula"))
    return fresh


# report columns, in TableRow's field order
_COLUMNS = ("p", "conductor", "h", "f", "cond_I", "margin_I", "cond_II", "bound_II", "conclusion")


class TableRow(NamedTuple):
    """One verification row, flattened for serialization."""

    p: int
    conductor: int
    h: int
    f: int
    cond_i: bool
    margin_i: int
    cond_ii: bool
    bound_ii: int
    conclusion: str

    @classmethod
    def from_report(cls, report: CriterionReport) -> "TableRow":
        c = report.candidate
        return cls(
            p=c.p,
            conductor=c.p**c.m,
            h=c.h,
            f=c.f,
            cond_i=report.cond_i,
            margin_i=report.margin_i,
            cond_ii=report.cond_ii,
            bound_ii=report.bound_ii,
            conclusion=report.conclusion.value,
        )

    def as_dict(self) -> dict:
        return dict(zip(_COLUMNS, self))


def reproduce_table(cache: HminusCache | None = None) -> list[TableRow]:
    """Recompute the three verification rows from scratch.

    For each conductor the relative class number is recomputed, its largest
    prime factor is taken as the extension degree h (the factor that clears
    the degree bound most easily), and both conditions are evaluated. Cached
    values, if present, are cross-checked and any disagreement is fatal.
    """
    rows = []
    for p, m in TABLE_CASES:
        h_minus = cached_relative_class_number(p, m, cache, verify=True)
        h = max(h_minus.primes)
        candidate = TowerCandidate.build(p, m, h, h_minus)
        rows.append(TableRow.from_report(verify_candidate(candidate)))
    return rows


_CONCLUSION_RANK = {c: i for i, c in enumerate(Conclusion)}


class SearchResult(NamedTuple):
    reports: tuple[CriterionReport, ...]
    skipped: tuple[tuple[int | str, str], ...]
    budget_exceeded: bool


def search_candidates(
    p: int,
    m_from: int,
    m_to: int,
    *,
    conductor_budget: int = 2048,
    cache: HminusCache | None = None,
) -> SearchResult:
    """Sweep conductors p^m, m_from <= m <= m_to, and rank every prime degree.

    p must be prime, m_from >= 1 and m_to >= m_from, checked in that order
    (ValueError otherwise, before any conductor is formed). Each p^m is then
    admitted by ``arith.admit_conductor``, and conductor 2 is passed over
    (h^- = 1, no candidate degrees). The sweep stops at the first conductor
    over budget, flagged once for the rest of the range and named by
    ``conductor_label``. Factorizations that exhaust their iteration budget
    are flagged and skipped. The remaining reports are sorted best first
    (conclusion rank, then condition-I margin descending).
    """
    check_exponent(p, m_from)
    if m_to < m_from:
        raise ValueError(f"m_to must be >= m_from, got {m_to} < {m_from}")
    reports: list[CriterionReport] = []
    skipped: list[tuple[int | str, str]] = []
    budget_exceeded = False
    for m in range(m_from, m_to + 1):
        try:
            conductor = admit_conductor(p, m, conductor_budget)
        except ValueError:  # p is prime and m >= 1, so this is p^m = 2: h^- = 1
            continue
        except BudgetExceededError:
            # every later p^m is larger still: one entry names the whole range
            ms = f"{m}..{m_to}" if m < m_to else f"{m}"
            reason = f"conductor budget {conductor_budget} exceeded for m = {ms}"
            skipped.append((conductor_label(p, m), reason))
            budget_exceeded = True
            break
        try:
            h_minus = cached_relative_class_number(p, m, cache)
        except FactorizationError as exc:
            skipped.append((conductor, f"factorization budget exhausted: {exc}"))
            budget_exceeded = True
            continue
        for h in h_minus.primes:
            if h == p:
                skipped.append((conductor, f"degree {h} equals the ramified prime"))
                continue
            candidate = TowerCandidate.build(p, m, h, h_minus)
            reports.append(verify_candidate(candidate))
    reports.sort(key=lambda r: (_CONCLUSION_RANK[r.conclusion], -r.margin_i))
    return SearchResult(tuple(reports), tuple(skipped), budget_exceeded)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "pass" if value else "fail"
    return str(value)


def emit_report(rows: list[TableRow], fmt: str) -> str:
    """Serialize rows deterministically; fmt is one of json, csv, text.

    Field order is fixed and no timestamps enter the payload, so identical
    rows always produce identical bytes.
    """
    if fmt == "json":
        return json.dumps([row.as_dict() for row in rows], indent=2)
    if fmt == "csv":
        out = StringIO()
        out.write(",".join(_COLUMNS) + "\n")
        for row in rows:
            out.write(",".join(_cell(v) for v in row.as_dict().values()) + "\n")
        return out.getvalue()
    if fmt == "text":
        table = [_COLUMNS] + [tuple(_cell(v) for v in row.as_dict().values()) for row in rows]
        widths = [max(len(line[i]) for line in table) for i in range(len(_COLUMNS))]
        lines = ["  ".join(cell.rjust(w) for cell, w in zip(line, widths)) for line in table]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format: {fmt!r}")
