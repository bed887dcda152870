"""Cache, table reproduction, candidate search, and report serialization."""

import json
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest
from test_cli import cli_env

from towerforge import pipeline
from towerforge.arith import FactoredInteger, factorize, is_prime_power
from towerforge.criteria import Conclusion, TowerCandidate, verify_candidate
from towerforge.errors import CacheMismatchError
from towerforge.pipeline import (
    CacheEntry,
    HminusCache,
    SearchResult,
    TableRow,
    cached_relative_class_number,
    emit_report,
    reproduce_table,
    search_candidates,
)


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"

_TABLE_ROWS = (
    (2, 128, 21121, 10560, 108767872, 260),
    (3, 81, 2593, 648, 137268, 328),
    (5, 125, 20602801, 10301400, 106114680194200, 1004),
)

GOLDEN_TABLE_STDOUT = {
    "text": (
        b"p  conductor         h         f  cond_I         margin_I  cond_II  bound_II          conclusion\n"
        b"2        128     21121     10560    pass        108767872     pass       260  both-branches-pass\n"
        b"3         81      2593       648    pass           137268     pass       328  both-branches-pass\n"
        b"5        125  20602801  10301400    pass  106114680194200     pass      1004  both-branches-pass\n"
    ),
    "csv": (
        b"p,conductor,h,f,cond_I,margin_I,cond_II,bound_II,conclusion\n"
        b"2,128,21121,10560,pass,108767872,pass,260,both-branches-pass\n"
        b"3,81,2593,648,pass,137268,pass,328,both-branches-pass\n"
        b"5,125,20602801,10301400,pass,106114680194200,pass,1004,both-branches-pass\n"
    ),
    "json": b"[\n"
    + b",\n".join(
        b'  {\n    "p": %d,\n    "conductor": %d,\n    "h": %d,\n    "f": %d,\n'
        b'    "cond_I": true,\n    "margin_I": %d,\n    "cond_II": true,\n    "bound_II": %d,\n'
        b'    "conclusion": "both-branches-pass"\n  }' % row
        for row in _TABLE_ROWS
    )
    + b"\n]\n",
}


@pytest.fixture
def cache(tmp_path):
    return HminusCache(tmp_path / "cache.jsonl")


class TestCache:
    def test_round_trip(self, cache):
        entry = CacheEntry(128, factorize(359057), "2026-01-01T00:00:00+00:00", "product-formula")
        cache.store(entry)
        assert cache.lookup(128) == entry

    def test_later_lines_win(self, cache):
        old = CacheEntry(81, factorize(2593), "t0", "product-formula")
        new = CacheEntry(81, factorize(2593), "t1", "product-formula")
        cache.store(old)
        cache.store(new)
        assert cache.lookup(81).computed_at == "t1"

    def test_missing_file(self, cache):
        assert cache.lookup(128) is None

    def test_torn_trailing_line_tolerated(self, cache):
        cache.store(CacheEntry(128, factorize(359057), "t", "product-formula"))
        with cache.path.open("a") as handle:
            handle.write('{"conductor": 81, "h_minus": [[25')
        assert cache.lookup(128) is not None
        assert cache.lookup(81) is None

    def test_store_after_torn_append_starts_a_fresh_line(self, cache):
        first = CacheEntry(128, factorize(359057), "t0", "product-formula")
        cache.store(first)
        cut = CacheEntry(81, factorize(2593), "t1", "product-formula").to_json_line()
        with cache.path.open("a") as handle:
            handle.write(cut[: len(cut) // 2])  # an append cut short by a crash
        second = CacheEntry(125, factorize(57708445601), "t2", "product-formula")
        third = CacheEntry(81, factorize(2593), "t3", "product-formula")
        cache.store(second)
        cache.store(third)
        assert cache.load() == {128: first, 125: second, 81: third}

    def test_malformed_interior_line_raises(self, cache):
        cache.path.write_text('not json\n{"conductor": 1}\n')
        with pytest.raises(ValueError):
            cache.load()

    def test_a_form_feed_does_not_split_a_line(self, cache):
        # records end in "\n" only; str.splitlines also breaks at \f, so line 2
        # was named malformed for the remains of line 1
        entries = [
            CacheEntry(128, factorize(359057), "t0", "product-formula"),
            CacheEntry(125, factorize(57708445601), "t1", "product-formula"),
        ]
        torn = '{"conductor": 81,\f"h_minus": [[25'
        cache.path.write_text("\n".join([torn, *(e.to_json_line() for e in entries)]) + "\n")
        assert cache.load() == {128: entries[0], 125: entries[1]}

    @pytest.mark.parametrize("line", ["\fnot an entry", "\u2028[1]", "\x1c{}"])
    def test_a_line_holding_a_line_break_of_str_is_named_as_one(self, cache, line):
        valid = CacheEntry(4, factorize(1), "t", "product-formula").to_json_line()
        cache.path.write_text(f"{line}\n{valid}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^malformed cache line 1 in"):
            cache.load()

    @pytest.mark.parametrize(
        "line",
        [
            '[1]',
            '"x"',
            '{"conductor":4,"h_minus":5,"method":"product-formula","computed_at":"t"}',
            '{"conductor":1e400,"h_minus":[],"method":"product-formula","computed_at":"t"}',
            # each of these was coerced by int() or str() and loaded
            '{"conductor":7.9,"h_minus":[[2.5,1.0]],"method":"product-formula","computed_at":"t"}',
            '{"conductor":"8","h_minus":[],"method":"product-formula","computed_at":"t"}',
            '{"conductor":23,"h_minus":[["3","1"]],"method":"product-formula","computed_at":"t"}',
            '{"conductor":23,"h_minus":[[3,true]],"method":"product-formula","computed_at":"t"}',
            '{"conductor":8,"h_minus":[],"method":1,"computed_at":"t"}',
            '{"conductor":8,"h_minus":[],"method":"product-formula","computed_at":null}',
        ],
        ids=[
            "list",
            "string",
            "non-list-factors",
            "infinite-conductor",
            "float-fields",
            "string-conductor",
            "string-factors",
            "bool-exponent",
            "number-method",
            "null-timestamp",
        ],
    )
    def test_interior_line_of_the_wrong_shape_raises(self, cache, line):
        valid = CacheEntry(4, factorize(1), "t", "product-formula").to_json_line()
        cache.path.write_text(f"{line}\n{valid}\n")
        with pytest.raises(ValueError, match="malformed cache line 1 in"):
            cache.load()

    @pytest.mark.parametrize(
        "conductor,factors",
        [(4, [[2, 10**7]]), (2048, [[2, 5000]]), (4, [[0, -1]])],
        ids=["2^(10^7)", "above-2048-bound", "zero-prime"],
    )
    def test_line_above_the_hadamard_bound_raises(self, cache, conductor, factors):
        line = json.dumps(
            {"conductor": conductor, "h_minus": factors, "method": "product-formula", "computed_at": "t"}
        )
        valid = CacheEntry(4, factorize(1), "t", "product-formula").to_json_line()
        cache.path.write_text(f"{line}\n{valid}\n")
        with pytest.raises(ValueError, match="malformed cache line 1 in"):
            cache.load()

    @pytest.mark.parametrize(
        "conductor,factors",
        [
            (10**12, [[2, 10**12]]),
            (2**40, [[2, 10**12]]),
            (2**20 + 7, [[2, 10**12]]),
            (6, []),
            (2, []),
            (1, []),
            (-9, []),
        ],
        ids=["10^12", "2^40", "above-cap-prime", "not-a-prime-power", "two", "one", "negative"],
    )
    def test_line_with_an_invalid_conductor_raises_before_factoring(
        self, cache, monkeypatch, conductor, factors
    ):
        line = json.dumps(
            {"conductor": conductor, "h_minus": factors, "method": "product-formula", "computed_at": "t"}
        )
        valid = CacheEntry(4, factorize(1), "t", "product-formula").to_json_line()
        cache.path.write_text(f"{line}\n{valid}\n")
        factored = []
        monkeypatch.setattr(
            pipeline, "is_prime_power", lambda n: factored.append(n) or is_prime_power(n)
        )
        with pytest.raises(ValueError, match="malformed cache line 1 in"):
            cache.load()
        # the cap is compared before anything is factored
        assert factored == ([conductor] if 3 <= conductor <= 2**20 else [])

    @pytest.mark.parametrize(
        "entry",
        [
            CacheEntry(6, FactoredInteger(1, ()), "t", "product-formula"),
            CacheEntry(2**21, FactoredInteger(1, ()), "t", "product-formula"),
            CacheEntry(4, FactoredInteger(2**100, ((2, 100),)), "t", "product-formula"),
            CacheEntry(23, FactoredInteger(3, ((3, True),)), "t", "product-formula"),
        ],
        ids=["not-a-prime-power", "above-cap", "above-hadamard-bound", "bool-exponent"],
    )
    def test_store_refuses_a_line_load_would_reject(self, cache, entry):
        cache.store(CacheEntry(4, factorize(1), "t", "product-formula"))
        before = cache.path.read_bytes()
        with pytest.raises(ValueError):
            cache.store(entry)
        assert cache.path.read_bytes() == before

    def test_every_factored_reference_value_loads(self, cache):
        entries = {
            int(q): CacheEntry(int(q), FactoredInteger(row["value"], tuple(map(tuple, row["factors"]))), "t", "m")
            for q, row in json.loads(REFERENCE.read_text())["hminus"].items()
            if row["factors"] is not None
        }
        assert len(entries) == 59
        for entry in entries.values():
            cache.store(entry)
        assert cache.load() == entries

    def test_concurrent_appends_from_four_processes(self, cache):
        # the 800 smallest cacheable conductors: prime powers in [3, 2^20]
        conductors = list(islice((q for q in range(3, 2**20) if is_prime_power(q)), 800))
        script = (
            "import sys\n"
            "from towerforge.arith import FactoredInteger\n"
            "from towerforge.pipeline import CacheEntry, HminusCache\n"
            "cache = HminusCache(sys.argv[1])\n"
            "conductors = [int(q) for q in sys.argv[2].split(',')]\n"
            "sys.stdin.read()  # wait until every process has started\n"
            "for q in conductors:\n"
            "    cache.store(CacheEntry(q, FactoredInteger(1, ()), 't', 'product-formula'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(cache.path), ",".join(map(str, conductors[i::4]))],
                stdin=subprocess.PIPE,
                env=env,
            )
            for i in range(4)
        ]
        try:
            for worker in workers:
                worker.stdin.close()
            codes = [worker.wait(timeout=60) for worker in workers]
        finally:
            for worker in workers:
                worker.kill()
        assert codes == [0] * 4
        assert sorted(cache.load()) == conductors
        raw = cache.path.read_bytes()
        assert raw.endswith(b"\n") and raw.count(b"\n") == 800
        assert all(raw.split(b"\n")[:-1])

    def test_accelerator_path(self, cache):
        value = cached_relative_class_number(2, 7, cache)
        assert value.value == 359057
        assert cache.lookup(128).h_minus == value
        # a second call is served from the cache (same object content)
        assert cached_relative_class_number(2, 7, cache) == value

    def test_non_prime_p_is_rejected_before_the_lookup(self, cache):
        cache.store(CacheEntry(4, factorize(1), "t", "product-formula"))
        with pytest.raises(ValueError, match="4 is not prime"):
            cached_relative_class_number(4, 1, cache)
        assert cached_relative_class_number(2, 2, cache).value == 1

    def test_poisoned_cache_detected_in_verify_mode(self, cache):
        poisoned = FactoredInteger(359063, ((359063, 1),))
        cache.store(CacheEntry(128, poisoned, "t", "product-formula"))
        # accelerator mode trusts the cache by design
        assert cached_relative_class_number(2, 7, cache).value == 359063
        with pytest.raises(CacheMismatchError):
            cached_relative_class_number(2, 7, cache, verify=True)


class TestReproduceTable:
    def test_rows(self):
        rows = reproduce_table()
        assert [(r.p, r.conductor, r.h, r.f) for r in rows] == [
            (2, 128, 21121, 10560),
            (3, 81, 2593, 648),
            (5, 125, 20602801, 10301400),
        ]
        assert all(r.conclusion == Conclusion.BOTH.value for r in rows)
        assert [r.bound_ii for r in rows] == [260, 328, 1004]

    def test_deterministic_and_idempotent(self, cache):
        first = reproduce_table(cache)
        second = reproduce_table(cache)
        assert first == second == reproduce_table()

    def test_cache_mismatch_is_fatal(self, cache):
        poisoned = FactoredInteger(17, ((17, 1),))
        cache.store(CacheEntry(128, poisoned, "t", "product-formula"))
        with pytest.raises(CacheMismatchError):
            reproduce_table(cache)


class TestGoldenPin:
    """Every verdict of the reference table, and the CLI's table bytes, pinned as they stand."""

    def test_every_reference_row(self):
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        conclusions = []
        for conductor, rows in reference["candidates"].items():
            entry = reference["hminus"][conductor]
            h_minus = FactoredInteger(entry["value"], tuple(map(tuple, entry["factors"])))
            for row in rows:
                candidate = TowerCandidate.build(entry["p"], entry["m"], row["h"], h_minus)
                assert TableRow.from_report(verify_candidate(candidate)).as_dict() == row
                conclusions.append(row["conclusion"])
        assert [conclusions.count(c.value) for c in Conclusion] == [43, 14, 11, 72]

    @pytest.mark.parametrize("fmt", sorted(GOLDEN_TABLE_STDOUT))
    def test_reproduce_table_stdout_bytes(self, tmp_path, fmt):
        result = subprocess.run(
            [sys.executable, "-m", "towerforge.cli", "reproduce-table", "--format", fmt],
            capture_output=True,
            env=cli_env(tmp_path),
            cwd=tmp_path,
        )
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == GOLDEN_TABLE_STDOUT[fmt]


class TestSearch:
    def test_conductor_128_contains_pass_and_fail(self):
        result = search_candidates(2, 7, 7)
        by_h = {r.candidate.h: r for r in result.reports}
        assert set(by_h) == {17, 21121}
        assert by_h[21121].conclusion is Conclusion.BOTH
        assert by_h[17].conclusion is Conclusion.FAIL
        # f(2 mod 17) = 8: condition I margin 8^2 - 32 - 2*17*64 < 0, bound 260 unmet
        assert by_h[17].candidate.f == 8
        assert by_h[17].margin_i == 64 - 32 - 2176
        assert not result.budget_exceeded
        # the passing row sorts first
        assert result.reports[0].candidate.h == 21121

    def test_trivial_ranges_empty(self):
        assert search_candidates(3, 1, 2).reports == ()
        assert search_candidates(2, 1, 2).reports == ()

    def test_reversed_range_is_refused_after_p_and_m_from(self):
        with pytest.raises(ValueError, match=r"^m_to must be >= m_from, got 1 < 3$"):
            search_candidates(2, 3, 1)
        with pytest.raises(ValueError, match="^4 is not prime$"):
            search_candidates(4, 3, 1)
        with pytest.raises(ValueError, match="^m must be >= 1$"):
            search_candidates(2, 0, -1)
        assert search_candidates(2, 3, 3).reports == ()  # a one-m range is not reversed

    def test_degree_equal_to_the_ramified_prime_is_skipped(self):
        # 37 is irregular and divides h^-(37) = 37
        assert search_candidates(37, 1, 1) == SearchResult(
            (), ((37, "degree 37 equals the ramified prime"),), False
        )

    def test_budget_flagged(self):
        result = search_candidates(2, 7, 12, conductor_budget=128)
        assert result.budget_exceeded
        assert result.skipped == ((256, "conductor budget 128 exceeded for m = 8..12"),)
        assert {r.candidate.h for r in result.reports} == {17, 21121}

    def test_uses_cache(self, cache):
        search_candidates(2, 7, 7, cache=cache)
        assert cache.lookup(128) is not None

    def test_table_conductors_pass_exactly_the_winning_degrees(self):
        expected = {(2, 7): {21121}, (3, 4): {2593}, (5, 3): {20602801}}
        for (p, m), winners in expected.items():
            result = search_candidates(p, m, m)
            passes = {
                r.candidate.h
                for r in result.reports
                if r.conclusion is Conclusion.BOTH
            }
            assert passes == winners
        # the conductor-125 cofactor clears only the degree bound
        result = search_candidates(5, 3, 3)
        by_h = {r.candidate.h: r.conclusion for r in result.reports}
        assert by_h[2801] is Conclusion.ONLY_II


ROWS = [
    TableRow(2, 128, 21121, 10560, True, 108767872, True, 260, "both-branches-pass"),
    TableRow(3, 81, 2593, 648, True, 137268, True, 328, "both-branches-pass"),
]

GOLDEN_CSV = (
    "p,conductor,h,f,cond_I,margin_I,cond_II,bound_II,conclusion\n"
    "2,128,21121,10560,pass,108767872,pass,260,both-branches-pass\n"
    "3,81,2593,648,pass,137268,pass,328,both-branches-pass\n"
)

GOLDEN_TEXT = (
    "p  conductor      h      f  cond_I   margin_I  cond_II  bound_II          conclusion\n"
    "2        128  21121  10560    pass  108767872     pass       260  both-branches-pass\n"
    "3         81   2593    648    pass     137268     pass       328  both-branches-pass\n"
)


class TestEmitReport:
    def test_empty_json(self):
        assert emit_report([], "json") == "[]"

    def test_json_round_trip(self):
        payload = json.loads(emit_report(ROWS, "json"))
        assert payload[0]["h"] == 21121
        assert payload[0]["cond_I"] is True
        assert list(payload[0].keys()) == [
            "p",
            "conductor",
            "h",
            "f",
            "cond_I",
            "margin_I",
            "cond_II",
            "bound_II",
            "conclusion",
        ]

    def test_csv_golden(self):
        assert emit_report(ROWS, "csv") == GOLDEN_CSV

    def test_text_golden(self):
        assert emit_report(ROWS, "text") == GOLDEN_TEXT

    def test_deterministic_bytes(self):
        for fmt in ("json", "csv", "text"):
            assert emit_report(ROWS, fmt) == emit_report(ROWS, fmt)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(ROWS, "yaml")

    def test_row_from_report_consistency(self):
        result = search_candidates(2, 7, 7)
        row = TableRow.from_report(result.reports[0])
        assert row.h == result.reports[0].candidate.h
        assert row.conclusion == result.reports[0].conclusion.value
