"""Property test: any argv exits 0-3 with no traceback, in process (needs hypothesis)."""

import os
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from towerforge import cli  # noqa: E402

# each subcommand's flags; the switches take no value
COMMAND_FLAGS = {
    "hminus": ("--p", "--m", "--oracle", "--verify-cache", "--budget"),
    "order": ("--base", "--mod"),
    "regular": ("--p", "--budget"),
    "verify": ("--p", "--m", "--h", "--json", "--budget"),
    "kappa": ("--p", "--m", "--elem", "--lmax"),
    "reproduce-table": ("--format",),
    "search": ("--p", "--m-from", "--m-to", "--format", "--budget"),
}
SWITCHES = ("--oracle", "--verify-cache", "--json")
JUNK = st.text(max_size=5)
# integers stay small: with p, m <= 12 and --budget <= 12 (2048 when not
# given) every conductor is at most 2048, and no order modulus or degree h
# asks rho to factor anything large
USUAL = {
    "--elem": st.sampled_from(("1,2", "3,0,-1", "1")),
    "--format": st.sampled_from(("json", "csv", "text")),
}
INTEGER = st.integers(-3, 12).map(str)
OTHER = st.sampled_from(("json", "1,2", "1.5", "0x5", "", "-1", "--")) | JUNK
FLAGS = sorted({*sum(COMMAND_FLAGS.values(), ()), "--help"})


@st.composite
def argvs(draw):
    """A subcommand, most of its flags with well-formed values, and sometimes a stray token.

    Each choice takes the usual branch four times in five and junk otherwise,
    so that about one argv in five gets past the parser.
    """

    def mostly(usual, rare):
        return draw(usual if draw(st.integers(0, 4)) else rare)

    argv = [mostly(st.sampled_from(sorted(COMMAND_FLAGS)), JUNK)]
    for flag in COMMAND_FLAGS.get(argv[0], ()):
        if draw(st.integers(0, 4)):
            argv.append(flag)
            if flag not in SWITCHES:
                argv.append(mostly(USUAL.get(flag, INTEGER), OTHER))
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        argv.insert(draw(st.integers(0, len(argv))), mostly(st.sampled_from(FLAGS), OTHER))
    return argv


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(argvs())
def test_any_argv_exits_0_to_3_without_a_traceback(tmp_path_factory, argv):
    cache = tmp_path_factory.getbasetemp() / "fuzz-cache.jsonl"
    out, err = StringIO(), StringIO()
    with mock.patch.dict(os.environ, {"TOWERFORGE_CACHE": str(cache)}):
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: --help exits 0, a usage error 2
                assert exc.code in (0, 2), (argv, exc.code)
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
