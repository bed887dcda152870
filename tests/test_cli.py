"""End-to-end CLI runs via subprocess: outputs, exit codes, cache env var."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def cli_env(tmp_path, cache_name="cache.jsonl"):
    """The caller's environment with this tree's absolute ``src`` first on
    PYTHONPATH, so the child imports this ``towerforge`` from any cwd."""
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    pythonpath = os.pathsep.join([str(SRC), *filter(None, inherited)])
    return dict(
        os.environ, PYTHONPATH=pythonpath, TOWERFORGE_CACHE=str(tmp_path / cache_name)
    )


def run_cli(args, tmp_path, cache_name="cache.jsonl"):
    return subprocess.run(
        [sys.executable, "-m", "towerforge.cli", *args],
        capture_output=True,
        text=True,
        env=cli_env(tmp_path, cache_name),
        cwd=tmp_path,
    )


class TestHminus:
    def test_basic(self, tmp_path):
        result = run_cli(["hminus", "--p", "2", "--m", "7"], tmp_path)
        assert result.returncode == 0
        assert result.stdout == "h-(Q(zeta_128)) = 359057 = 17 * 21121\n"

    def test_oracle_agreement(self, tmp_path):
        result = run_cli(["hminus", "--p", "3", "--m", "4", "--oracle"], tmp_path)
        assert result.returncode == 0
        assert "determinant oracle agrees: 2593" in result.stdout

    def test_budget(self, tmp_path):
        result = run_cli(["hminus", "--p", "2", "--m", "12"], tmp_path)
        assert result.returncode == 3

    def test_cache_env_respected(self, tmp_path):
        run_cli(["hminus", "--p", "2", "--m", "2"], tmp_path, cache_name="env-cache.jsonl")
        assert (tmp_path / "env-cache.jsonl").exists()
        entry = json.loads((tmp_path / "env-cache.jsonl").read_text().splitlines()[0])
        assert entry["conductor"] == 4
        assert entry["h_minus"] == []

    def test_oracle_catches_poisoned_cache(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(
            '{"conductor":81,"h_minus":[[7,1]],"method":"product-formula","computed_at":"t"}\n'
        )
        result = run_cli(["hminus", "--p", "3", "--m", "4", "--oracle"], tmp_path)
        assert result.returncode == 1
        assert "oracle mismatch" in result.stderr

    def test_verify_cache_detects_poison(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(
            '{"conductor":81,"h_minus":[[7,1]],"method":"product-formula","computed_at":"t"}\n'
        )
        ok = run_cli(["hminus", "--p", "3", "--m", "4"], tmp_path)
        assert ok.returncode == 0 and "= 7\n" in ok.stdout  # accelerator trusts
        bad = run_cli(["hminus", "--p", "3", "--m", "4", "--verify-cache"], tmp_path)
        assert bad.returncode == 1
        assert "cache mismatch" in bad.stderr

    def test_bad_input(self, tmp_path):
        result = run_cli(["hminus", "--p", "6", "--m", "1"], tmp_path)
        assert result.returncode == 2

    def test_cache_line_of_the_wrong_shape_exits_2(self, tmp_path):
        (tmp_path / "cache.jsonl").write_text(
            '[1]\n{"conductor":4,"h_minus":[],"method":"product-formula","computed_at":"t"}\n'
        )
        result = run_cli(["hminus", "--p", "2", "--m", "2"], tmp_path)
        assert result.returncode == 2
        assert "malformed cache line 1" in result.stderr
        assert "Traceback" not in result.stderr

    def test_cache_line_above_the_hadamard_bound_exits_2(self, tmp_path):
        (tmp_path / "cache.jsonl").write_text(
            '{"conductor":4,"h_minus":[[2,10000000]],"method":"product-formula","computed_at":"t"}\n'
            '{"conductor":4,"h_minus":[],"method":"product-formula","computed_at":"t"}\n'
        )
        result = run_cli(["hminus", "--p", "2", "--m", "2"], tmp_path)
        assert result.returncode == 2
        assert "malformed cache line 1" in result.stderr
        assert "Traceback" not in result.stderr

    def test_cache_line_with_an_unchecked_conductor_exits_2(self, tmp_path):
        # the conductor is checked before the Hadamard limit it sets, so
        # 2^(10^12) is never formed
        (tmp_path / "cache.jsonl").write_text(
            '{"conductor":1000000000000,"h_minus":[[2,1000000000000]],"method":"product-formula","computed_at":"t"}\n'
            '{"conductor":4,"h_minus":[],"method":"product-formula","computed_at":"t"}\n'
        )
        result = run_cli(["hminus", "--p", "2", "--m", "2"], tmp_path)
        assert result.returncode == 2
        assert "malformed cache line 1" in result.stderr
        assert "Traceback" not in result.stderr

    def test_non_prime_p_exits_2_whether_or_not_its_conductor_is_cached(self, tmp_path):
        empty = run_cli(["hminus", "--p", "4", "--m", "1"], tmp_path)
        assert run_cli(["hminus", "--p", "2", "--m", "2"], tmp_path).returncode == 0
        assert json.loads((tmp_path / "cache.jsonl").read_text())["conductor"] == 4
        cached = run_cli(["hminus", "--p", "4", "--m", "1"], tmp_path)
        for result in (empty, cached):
            assert result.returncode == 2
            assert result.stdout == ""
            assert result.stderr == "error: 4 is not prime\n"


    def test_non_prime_p_exits_2_before_the_budget_is_compared(self, tmp_path):
        result = run_cli(["hminus", "--p", "4", "--m", "10"], tmp_path)
        assert result.returncode == 2
        assert result.stderr == "error: 4 is not prime\n"


class TestOrderRegular:
    def test_order(self, tmp_path):
        result = run_cli(["order", "--base", "2", "--mod", "21121"], tmp_path)
        assert result.returncode == 0
        assert result.stdout == "10560\n"

    def test_order_non_unit(self, tmp_path):
        result = run_cli(["order", "--base", "6", "--mod", "21"], tmp_path)
        assert result.returncode == 2

    def test_regular(self, tmp_path):
        result = run_cli(["regular", "--p", "5"], tmp_path)
        assert result.returncode == 0
        assert result.stdout == "5 is regular\n"
        result = run_cli(["regular", "--p", "37"], tmp_path)
        assert result.stdout == "37 is irregular\n"

    def test_regular_composite(self, tmp_path):
        assert run_cli(["regular", "--p", "9"], tmp_path).returncode == 2

    def test_regular_above_budget_exits_3(self, tmp_path):
        result = run_cli(["regular", "--p", "6007"], tmp_path)
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr == "budget exceeded: prime 6007 exceeds budget 2048\n"
        result = run_cli(["regular", "--p", "37", "--budget", "37"], tmp_path)
        assert (result.returncode, result.stdout) == (0, "37 is irregular\n")
        result = run_cli(["regular", "--p", "37", "--budget", "36"], tmp_path)
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr == "budget exceeded: prime 37 exceeds budget 36\n"
        # a p that is not prime is bad input whatever the budget
        result = run_cli(["regular", "--p", "9", "--budget", "5"], tmp_path)
        assert (result.returncode, result.stderr) == (2, "error: 9 is not prime\n")


class TestVerify:
    def test_passing_candidate(self, tmp_path):
        result = run_cli(["verify", "--p", "2", "--m", "7", "--h", "21121"], tmp_path)
        assert result.returncode == 0
        assert "both-branches-pass" in result.stdout

    def test_json_output(self, tmp_path):
        result = run_cli(["verify", "--p", "2", "--m", "7", "--h", "21121", "--json"], tmp_path)
        payload = json.loads(result.stdout)
        assert payload["f"] == 10560
        assert payload["regular"] is True
        assert payload["conclusion"] == "both-branches-pass"

    def test_failing_candidate(self, tmp_path):
        result = run_cli(["verify", "--p", "2", "--m", "7", "--h", "17"], tmp_path)
        assert result.returncode == 1
        assert "fail" in result.stdout

    def test_composite_h(self, tmp_path):
        result = run_cli(["verify", "--p", "2", "--m", "7", "--h", "15"], tmp_path)
        assert result.returncode == 2

    def test_non_divisor_h(self, tmp_path):
        result = run_cli(["verify", "--p", "2", "--m", "7", "--h", "13"], tmp_path)
        assert result.returncode == 2

    def test_budget_exceeded_before_any_h_minus_is_computed(self, tmp_path):
        result = run_cli(["verify", "--p", "2", "--m", "20", "--h", "3"], tmp_path)
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == "budget exceeded: conductor 1048576 exceeds budget 2048\n"
        assert not (tmp_path / "cache.jsonl").exists()

    def test_non_prime_p_exits_2_before_the_budget_is_compared(self, tmp_path):
        result = run_cli(["verify", "--p", "4", "--m", "10", "--h", "3"], tmp_path)
        assert result.returncode == 2
        assert result.stderr == "error: 4 is not prime\n"


class TestKappa:
    def test_one_plus_pi(self, tmp_path):
        result = run_cli(
            ["kappa", "--p", "3", "--m", "1", "--elem", "2,-1", "--lmax", "3"], tmp_path
        )
        assert result.returncode == 0
        assert result.stdout == "1\n"

    def test_trivial_unit(self, tmp_path):
        result = run_cli(["kappa", "--p", "2", "--m", "2", "--elem", "1", "--lmax", "4"], tmp_path)
        assert result.stdout == "4\n"

    def test_non_unit_rejected(self, tmp_path):
        result = run_cli(
            ["kappa", "--p", "3", "--m", "1", "--elem", "1,-1", "--lmax", "3"], tmp_path
        )
        assert result.returncode == 2

    def test_malformed_elem(self, tmp_path):
        result = run_cli(
            ["kappa", "--p", "3", "--m", "1", "--elem", "1;2", "--lmax", "3"], tmp_path
        )
        assert result.returncode == 2


class TestReproduceTable:
    def test_text(self, tmp_path):
        result = run_cli(["reproduce-table"], tmp_path)
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 4  # header + three rows
        assert lines[1].split() == [
            "2", "128", "21121", "10560", "pass", "108767872", "pass", "260", "both-branches-pass",
        ]
        assert "328" in lines[2] and "1004" in lines[3]

    def test_json(self, tmp_path):
        result = run_cli(["reproduce-table", "--format", "json"], tmp_path)
        rows = json.loads(result.stdout)
        assert [r["conductor"] for r in rows] == [128, 81, 125]
        assert all(r["conclusion"] == "both-branches-pass" for r in rows)

    def test_csv(self, tmp_path):
        result = run_cli(["reproduce-table", "--format", "csv"], tmp_path)
        lines = result.stdout.splitlines()
        assert lines[0] == "p,conductor,h,f,cond_I,margin_I,cond_II,bound_II,conclusion"
        assert lines[3].startswith("5,125,20602801,10301400,pass,")

    def test_determinism(self, tmp_path):
        first = run_cli(["reproduce-table", "--format", "json"], tmp_path)
        second = run_cli(["reproduce-table", "--format", "json"], tmp_path)
        assert first.returncode == 0 and second.returncode == 0
        assert len(json.loads(first.stdout)) == 3
        assert first.stdout == second.stdout


class TestSearch:
    def test_search_rows(self, tmp_path):
        result = run_cli(
            ["search", "--p", "2", "--m-from", "1", "--m-to", "7", "--format", "csv"], tmp_path
        )
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        # header + the conductor-128 pass + two failing h = 17 rows, one of
        # which comes from h^-(conductor 64) = 17
        assert len(lines) == 4
        assert lines[1].split(",")[:3] == ["2", "128", "21121"]
        assert {tuple(line.split(",")[:3]) for line in lines[2:]} == {
            ("2", "64", "17"),
            ("2", "128", "17"),
        }

    def test_rows_are_ranked_by_conclusion_then_by_margin_descending(self, tmp_path):
        argv = ["search", "--p", "2", "--m-from", "1", "--m-to", "9", "--format", "json"]
        result = run_cli(argv, tmp_path)
        assert result.returncode == 3  # 512 is skipped
        rows = json.loads(result.stdout)
        order = ["both-branches-pass", "only-I", "only-II", "fail"]
        keys = [(order.index(row["conclusion"]), -row["margin_I"]) for row in rows]
        assert keys == sorted(keys)
        assert {row["conclusion"] for row in rows} == {"both-branches-pass", "fail"}
        assert [row["conductor"] for row in rows] == [256, 128, 256, 64, 128, 256]

    def test_search_budget_exit(self, tmp_path):
        result = run_cli(
            ["search", "--p", "2", "--m-from", "7", "--m-to", "12", "--budget", "128"], tmp_path
        )
        assert result.returncode == 3
        assert "skipped conductor 256" in result.stderr

    def test_conductor_2_is_passed_over_before_the_budget_is_compared(self, tmp_path):
        result = run_cli(
            ["search", "--p", "2", "--m-from", "1", "--m-to", "3", "--budget", "1"], tmp_path
        )
        assert result.returncode == 3
        assert result.stderr == "skipped conductor 4: conductor budget 1 exceeded for m = 2..3\n"

    def test_search_stops_at_the_first_conductor_over_budget(self, tmp_path):
        # without the stop, every p^m up to 2^300000 would be formed and listed
        argv = ["search", "--p", "2", "--m-from", "12", "--m-to", "300000"]
        result = subprocess.run(
            [sys.executable, "-m", "towerforge.cli", *argv],
            capture_output=True,
            text=True,
            env=cli_env(tmp_path),
            cwd=tmp_path,
            timeout=10,
        )
        assert result.returncode == 3
        assert result.stderr == (
            "skipped conductor 4096: conductor budget 2048 exceeded for m = 12..300000\n"
        )

    def test_search_empty(self, tmp_path):
        result = run_cli(["search", "--p", "3", "--m-from", "1", "--m-to", "2"], tmp_path)
        assert result.returncode == 0

    @pytest.mark.parametrize(
        "p, stdout",
        [
            (37, "p  conductor  h  f  cond_I  margin_I  cond_II  bound_II  conclusion\n"),
            (
                59,
                " p  conductor    h    f  cond_I  margin_I  cond_II  bound_II  conclusion\n"
                "59         59  233  232    fail     25868     fail      6848        fail\n"
                "59         59    3    2    fail      -352     fail      6848        fail\n",
            ),
        ],
    )
    def test_degree_equal_to_the_ramified_prime_is_skipped(self, tmp_path, p, stdout):
        result = run_cli(["search", "--p", str(p), "--m-from", "1", "--m-to", "1"], tmp_path)
        assert (result.returncode, result.stdout, result.stderr) == (
            0,
            stdout,
            f"skipped conductor {p}: degree {p} equals the ramified prime\n",
        )

    @pytest.mark.parametrize("p, m_from, m_to", [(4, 6, 7), (1, 1, 3)])
    def test_non_prime_p_exits_2(self, tmp_path, p, m_from, m_to):
        result = run_cli(
            ["search", "--p", str(p), "--m-from", str(m_from), "--m-to", str(m_to)], tmp_path
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {p} is not prime\n"

    @pytest.mark.parametrize("p, m_from, m_to", [(2, 0, 3), (3, -2, 1)])
    def test_m_below_1_exits_2_before_any_conductor_is_formed(self, tmp_path, p, m_from, m_to):
        result = run_cli(
            ["search", "--p", str(p), "--m-from", str(m_from), "--m-to", str(m_to)], tmp_path
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: m must be >= 1\n"

    @pytest.mark.parametrize(
        "p, m_from, m_to, stderr",
        [
            (2, 3, 1, "error: m_to must be >= m_from, got 1 < 3\n"),
            (5, 2, -4, "error: m_to must be >= m_from, got -4 < 2\n"),
            # the earlier refusals come first
            (4, 3, 1, "error: 4 is not prime\n"),
            (2, 0, -1, "error: m must be >= 1\n"),
        ],
    )
    def test_reversed_range_exits_2(self, tmp_path, p, m_from, m_to, stderr):
        result = run_cli(
            ["search", "--p", str(p), "--m-from", str(m_from), "--m-to", str(m_to)], tmp_path
        )
        assert (result.returncode, result.stdout, result.stderr) == (2, "", stderr)
        assert not (tmp_path / "cache.jsonl").exists()

    def test_cofactor_too_long_to_print_is_skipped(self, tmp_path):
        # h^-(16384) leaves a cofactor of more than 4,300 digits
        result = run_cli(
            ["search", "--p", "2", "--m-from", "14", "--m-to", "14", "--budget", "20000"], tmp_path
        )
        assert result.returncode == 3
        assert result.stderr == (
            "skipped conductor 16384: factorization budget exhausted: "
            "cofactor of 15774 bits exceeds the deterministic primality bound\n"
        )



def _missing_directory(tmp_path):
    return "missing/cache.jsonl"


def _a_directory(tmp_path):
    (tmp_path / "dir").mkdir()
    return "dir"


def _not_utf8(tmp_path):
    (tmp_path / "cache.jsonl").write_bytes(b'{"conductor":4,\xff\n')
    return "cache.jsonl"


class TestUnusableCachePath:
    """A cache path that cannot be read or appended to is bad input: exit 2,
    one line naming the path, no traceback."""

    @pytest.mark.parametrize("damage", [_missing_directory, _a_directory, _not_utf8])
    @pytest.mark.parametrize(
        "args",
        [["hminus", "--p", "3", "--m", "2"], ["search", "--p", "3", "--m-from", "1", "--m-to", "3"]],
        ids=["hminus", "search"],
    )
    def test_exits_2_naming_the_path(self, tmp_path, args, damage):
        cache_name = damage(tmp_path)
        result = run_cli(args, tmp_path, cache_name)
        cache = tmp_path / cache_name
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: cannot use cache {cache}: ")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr

@pytest.fixture
def cli(monkeypatch):
    """This tree's ``towerforge.cli``, imported into this process from any cwd."""
    monkeypatch.syspath_prepend(str(SRC))
    from towerforge import cli

    return cli


def run_in_process(cli, args, capsys):
    """One ``cli.main`` call in this process: (exit code, stdout, stderr)."""
    try:
        code = cli.main(args)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestConductorTooLongToPrint:
    """A conductor over budget is compared by bit length, and named as p^m
    where its decimal form has more digits than int-to-str converts."""

    @pytest.mark.parametrize("command", [["hminus"], ["verify", "--h", "3"]])
    def test_named_as_a_power(self, tmp_path, command):
        result = run_cli([*command, "--p", "2", "--m", "15000"], tmp_path)
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == "budget exceeded: conductor 2^15000 exceeds budget 2048\n"

    def test_printable_conductor_keeps_its_decimal_form(self, tmp_path):
        result = run_cli(["hminus", "--p", "2", "--m", "14000"], tmp_path)
        assert result.returncode == 3
        assert result.stderr == f"budget exceeded: conductor {2**14000} exceeds budget 2048\n"

    def test_search_names_the_skipped_conductor_as_a_power(self, tmp_path):
        result = run_cli(["search", "--p", "2", "--m-from", "15000", "--m-to", "15001"], tmp_path)
        assert result.returncode == 3
        assert result.stderr == (
            "skipped conductor 2^15000: conductor budget 2048 exceeded for m = 15000..15001\n"
        )

    def test_far_over_budget_is_refused_without_being_formed(self, tmp_path):
        # 2^(10^10) alone would take 1.25 GB; the child may map at most 1 GB
        pytest.importorskip("resource")
        result = subprocess.run(
            [sys.executable, "-m", "towerforge.cli", "hminus", "--p", "2", "--m", "10000000000"],
            capture_output=True,
            text=True,
            env=cli_env(tmp_path),
            cwd=tmp_path,
            timeout=20,
            preexec_fn=_cap_address_space,
        )
        assert result.returncode == 3
        assert result.stderr == "budget exceeded: conductor 2^10000000000 exceeds budget 2048\n"


NOT_PRIME_4 = (2, "error: 4 is not prime\n")
M_BELOW_1 = (2, "error: m must be >= 1\n")
NO_ODD_CHARACTERS = (2, "error: conductor 2 has no odd characters; h^- is trivially 1\n")


def over_budget(conductor, budget, m):
    """(exit code, stderr) of hminus and verify, then of search --m-from m --m-to m."""
    return (
        (3, f"budget exceeded: conductor {conductor} exceeds budget {budget}\n"),
        (3, f"skipped conductor {conductor}: conductor budget {budget} exceeded for m = {m}\n"),
    )


# (p, m, --budget, (exit code, stderr) of hminus and verify, and of search)
ADMISSION_REFUSALS = [
    (4, 2, None, NOT_PRIME_4, NOT_PRIME_4),
    (1, 2, None, (2, "error: 1 is not prime\n"), (2, "error: 1 is not prime\n")),
    (4, 15000, None, NOT_PRIME_4, NOT_PRIME_4),
    (6, 0, 1, (2, "error: 6 is not prime\n"), (2, "error: 6 is not prime\n")),
    (3, 0, None, M_BELOW_1, M_BELOW_1),
    (3, -2, None, M_BELOW_1, M_BELOW_1),
    (2, 0, 1, M_BELOW_1, M_BELOW_1),
    (2, 1, None, NO_ODD_CHARACTERS, (0, "")),
    (2, 1, 1, NO_ODD_CHARACTERS, (0, "")),
    (2, 1, 128, NO_ODD_CHARACTERS, (0, "")),
    (3, 1, 1, *over_budget(3, 1, 1)),
    (2, 2, 3, *over_budget(4, 3, 2)),
    (3, 5, 128, *over_budget(243, 128, 5)),
    (2, 8, 128, *over_budget(256, 128, 8)),
    (2, 14000, None, *over_budget(2**14000, 2048, 14000)),
    (2, 15000, None, *over_budget("2^15000", 2048, 15000)),
]


@pytest.mark.parametrize("command", ["hminus", "verify", "search"])
@pytest.mark.parametrize("p, m, budget, refusal, search_refusal", ADMISSION_REFUSALS)
def test_admission_refusals(
    cli, tmp_path, capsys, monkeypatch, command, p, m, budget, refusal, search_refusal
):
    """Every command admits (p, m, --budget) in one order, and names the first failure."""
    cache = tmp_path / "cache.jsonl"
    monkeypatch.setenv("TOWERFORGE_CACHE", str(cache))
    argv = {
        "hminus": ["hminus", "--p", str(p), "--m", str(m)],
        "verify": ["verify", "--p", str(p), "--m", str(m), "--h", "3"],
        "search": ["search", "--p", str(p), "--m-from", str(m), "--m-to", str(m)],
    }[command]
    if budget is not None:
        argv += ["--budget", str(budget)]
    code, out, err = run_in_process(cli, argv, capsys)
    assert (code, err) == (search_refusal if command == "search" else refusal)
    if command != "search":
        assert out == ""
    assert not cache.exists()


# kappa over its whole domain: per (p, m, --elem), the outcome at --lmax = 0,
# 1, ..., kappa_cap(p, m) + 1. A number is kappa on stdout (exit 0); a letter
# is one error line on stderr (exit 2): M names the malformed --elem, the rest
# are in KAPPA_ERRORS. Every non-unit, zero and multiples of p^precision
# included, reads U at every valid --lmax, whatever precision the CLI builds at.
KAPPA_GRID = """
2 1 1              L 1 2 L
2 1 -1             L 1 1 L
2 1 5              L 1 2 L
2 1 1,1            L U U L
2 1 2,1            L 1 2 L
2 1 1,-1           L U U L
2 1 2              L U U L
2 1 4              L U U L
2 1 8              L U U L
2 1 0              L U U L
2 1 1,2,3,4,5,6,7  L U U L
2 1 x              M M M M
2 1 1,,2           M M M M
2 2 1              L 1 2 3 4 L
2 2 -1             L 1 2 3 4 L
2 2 5              L 1 2 3 4 L
2 2 1,1            L U U U U L
2 2 2,1            L 1 1 1 1 L
2 2 1,-1           L U U U U L
2 2 2              L U U U U L
2 2 4              L U U U U L
2 2 8              L U U U U L
2 2 0              L U U U U L
2 2 1,2,3,4,5,6,7  L U U U U L
2 2 x              M M M M M M
2 2 1,,2           M M M M M M
3 1 1              L 1 2 3 L
3 1 -1             L 1 2 3 L
3 1 5              L 1 2 2 L
3 1 1,1            L 1 1 1 L
3 1 2,1            L U U U L
3 1 1,-1           L U U U L
3 1 3              L U U U L
3 1 9              L U U U L
3 1 27             L U U U L
3 1 0              L U U U L
3 1 1,2,3,4,5,6,7  L 1 1 1 L
3 1 x              M M M M M
3 1 1,,2           M M M M M
3 2 1              L 1 2 3 4 5 6 7 8 L
3 2 -1             L 1 2 3 4 5 6 7 8 L
3 2 5              L 1 2 3 4 5 6 7 8 L
3 2 1,1            L 1 1 1 1 1 1 1 1 L
3 2 2,1            L U U U U U U U U L
3 2 1,-1           L U U U U U U U U L
3 2 3              L U U U U U U U U L
3 2 9              L U U U U U U U U L
3 2 27             L U U U U U U U U L
3 2 0              L U U U U U U U U L
3 2 1,2,3,4,5,6,7  L 1 1 1 1 1 1 1 1 L
3 2 x              M M M M M M M M M M
3 2 1,,2           M M M M M M M M M M
"""
KAPPA_ERRORS = {
    "L": "l_max must be in [1, min(p^m, 8)]",
    "U": "kappa is defined for units only",
    "D": "exhaustive kappa search is limited to p in (2, 3), m in (1, 2)",
}


def kappa_outcome(elem, letter):
    """(exit code, stdout, stderr) of ``kappa`` that KAPPA_GRID writes as letter."""
    if letter.isdigit():
        return 0, f"{letter}\n", ""
    if letter == "M":
        return 2, "", f"error: --elem must be comma-separated integers, got {elem!r}\n"
    return 2, "", f"error: {KAPPA_ERRORS[letter]}\n"


class TestKappaDomain:
    def test_every_point_of_the_domain(self, cli, capsys):
        expected, got = [], []
        for line in KAPPA_GRID.strip().splitlines():
            p, m, elem, *letters = line.split()
            for l_max, letter in enumerate(letters):
                argv = ["kappa", "--p", p, "--m", m, "--elem", elem, "--lmax", str(l_max)]
                expected.append((argv, kappa_outcome(elem, letter)))
                got.append((argv, run_in_process(cli, argv, capsys)))
        assert got == expected

    @pytest.mark.parametrize("p, m", [(5, 1), (2, 3), (3, 0), (4, 1), (2, 10**9)])
    def test_outside_the_domain_every_well_formed_elem_is_refused(self, cli, capsys, p, m):
        for elem, letter in (("1", "D"), ("0", "D"), ("2,1", "D"), (str(p), "D"), ("x", "M")):
            for l_max in (0, 1, 3, 9):
                argv = ["kappa", "--p", str(p), "--m", str(m), "--elem", elem, "--lmax", str(l_max)]
                assert run_in_process(cli, argv, capsys) == kappa_outcome(elem, letter), argv

    def test_domain_is_checked_before_the_ring_is_built(self, cli, capsys, monkeypatch):
        from towerforge import local

        built = []
        ring = local._local_ring
        monkeypatch.setattr(local, "_local_ring", lambda p, m: built.append((p, m)) or ring(p, m))
        for args in (
            ["--p", "2", "--m", "16", "--elem", "1", "--lmax", "3"],
            ["--p", "3", "--m", "1", "--elem", "2,-1", "--lmax", "10000000"],
        ):
            code, out, err = run_in_process(cli, ["kappa", *args], capsys)
            assert (code, out) == (2, "")
            assert err.startswith("error: ")
        assert built == []
        args = ["kappa", "--p", "3", "--m", "1", "--elem", "2,-1", "--lmax", "3"]
        assert run_in_process(cli, args, capsys) == (0, "1\n", "")
        assert set(built) == {(3, 1)}


def test_regular_refuses_over_budget_before_any_tangent_number(cli, capsys, monkeypatch):
    from towerforge import bernoulli

    def no_table(n):
        raise AssertionError(f"tangent table to {n} built")

    monkeypatch.setattr(bernoulli, "_tangent_numbers", no_table)
    for p in ("6007", "20011", "2053"):
        code, out, err = run_in_process(cli, ["regular", "--p", p], capsys)
        assert (code, out, err) == (3, "", f"budget exceeded: prime {p} exceeds budget 2048\n")
    assert run_in_process(cli, ["regular", "--p", "6009"], capsys) == (2, "", "error: 6009 is not prime\n")


def test_any_other_towerforge_error_exits_1_as_a_verification_failure(cli, tmp_path, capsys, monkeypatch):
    from towerforge import pipeline
    from towerforge.errors import IntegralityError

    def not_integral(p, m):
        raise IntegralityError(f"h^- of conductor {p**m} has a denominator")

    cache = tmp_path / "cache.jsonl"
    cache.write_text("")
    monkeypatch.setenv("TOWERFORGE_CACHE", str(cache))
    monkeypatch.setattr(pipeline, "relative_class_number", not_integral)
    code, out, err = run_in_process(cli, ["hminus", "--p", "2", "--m", "3"], capsys)
    assert (code, out, err) == (1, "", "verification failure: h^- of conductor 8 has a denominator\n")


class TestInProcessReuse:
    """Repeated ``main`` calls in one process share the parser and the parsed
    cache lines; each call must still answer as a fresh process would."""

    SEQUENCE = [
        ["hminus", "--p", "2", "--m", "7", "--verify-cache"],
        ["hminus", "--p", "2", "--m", "7"],
        ["hminus", "--p", "3", "--m", "4", "--oracle"],
        ["hminus", "--p", "3", "--m", "4"],
        ["order", "--base", "2", "--mod", "21121"],
        ["regular", "--p", "37"],
        ["regular", "--p", "5"],
        ["verify", "--p", "2", "--m", "7", "--h", "21121", "--json"],
        ["verify", "--p", "2", "--m", "7", "--h", "17"],
        ["order", "--base", "2"],
        ["verify", "--p", "3", "--m", "4", "--h", "2593", "--json"],
        ["kappa", "--p", "3", "--m", "1", "--elem", "1;2", "--lmax", "3"],
        ["regular", "--p", "59"],
    ]

    def test_sequence_matches_fresh_processes(self, cli, tmp_path, capsys, monkeypatch):
        fresh_dir = tmp_path / "fresh"
        fresh_dir.mkdir()
        fresh = [run_cli(args, fresh_dir) for args in self.SEQUENCE]
        monkeypatch.setenv("TOWERFORGE_CACHE", str(tmp_path / "in-process.jsonl"))
        reused = [run_in_process(cli, args, capsys) for args in self.SEQUENCE]
        assert [(r.returncode, r.stdout, r.stderr) for r in fresh] == reused
        assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 2, 0]

    def test_bad_argv_raises_system_exit_then_the_next_call_works(self, cli, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["order", "--base", "2"])
        assert exc.value.code == 2
        assert cli.main(["order", "--base", "2", "--mod", "21121"]) == 0
        assert capsys.readouterr().out == "10560\n"

    def test_line_appended_by_store_is_seen(self, cli, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        monkeypatch.setenv("TOWERFORGE_CACHE", str(cache))
        assert run_in_process(cli, ["hminus", "--p", "3", "--m", "1"], capsys)[0] == 0
        assert len(cache.read_text().splitlines()) == 1
        assert run_in_process(cli, ["hminus", "--p", "3", "--m", "1"], capsys)[0] == 0
        assert run_in_process(cli, ["hminus", "--p", "5", "--m", "1"], capsys)[0] == 0
        assert run_in_process(cli, ["hminus", "--p", "5", "--m", "1"], capsys)[0] == 0
        # each conductor was computed and stored once, then served from the file
        conductors = [json.loads(line)["conductor"] for line in cache.read_text().splitlines()]
        assert conductors == [3, 5]

    def test_rewritten_line_for_the_same_conductor_is_seen(self, cli, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        monkeypatch.setenv("TOWERFORGE_CACHE", str(cache))
        line = '{{"conductor":81,"h_minus":[[{},1]],"method":"product-formula","computed_at":"t"}}\n'
        cache.write_text(line.format(7))
        assert run_in_process(cli, ["hminus", "--p", "3", "--m", "4"], capsys)[1] == "h-(Q(zeta_81)) = 7\n"
        cache.write_text(line.format(2593))
        assert run_in_process(cli, ["hminus", "--p", "3", "--m", "4"], capsys)[1] == "h-(Q(zeta_81)) = 2593\n"
        cache.write_text(line.format(7))
        assert run_in_process(cli, ["hminus", "--p", "3", "--m", "4"], capsys)[1] == "h-(Q(zeta_81)) = 7\n"

    def test_malformed_interior_line_raises_on_every_load(self, cli, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        monkeypatch.setenv("TOWERFORGE_CACHE", str(cache))
        cache.write_text(
            '{"conductor":6,"h_minus":[],"method":"product-formula","computed_at":"t"}\n'
            '{"conductor":81,"h_minus":[[2593,1]],"method":"product-formula","computed_at":"t"}\n'
        )
        for _ in range(3):
            code, out, err = run_in_process(cli, ["hminus", "--p", "3", "--m", "4"], capsys)
            assert (code, out) == (2, "")
            assert "malformed cache line 1" in err


class TestHarness:
    def test_child_imports_this_tree(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-c", "import towerforge; print(towerforge.__file__)"],
            capture_output=True,
            text=True,
            env=cli_env(tmp_path),
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        origin = Path(result.stdout.strip()).resolve()
        assert origin.is_relative_to(SRC.resolve() / "towerforge")


class TestHelp:
    def test_no_command(self, tmp_path):
        result = run_cli([], tmp_path)
        assert result.returncode == 2

    def test_help(self, tmp_path):
        result = run_cli(["--help"], tmp_path)
        assert result.returncode == 0
        assert "towerforge" in result.stdout
