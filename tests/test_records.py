"""The package's immutable records, and what a cold ``import towerforge.cli`` loads."""

import pickle
import re
import subprocess
import sys

import pytest
from test_cli import cli_env

from towerforge.arith import FactoredInteger, factorize
from towerforge.criteria import TowerCandidate, verify_candidate
from towerforge.local import KummerClass, LocalCycloElement
from towerforge.pipeline import CacheEntry, SearchResult, TableRow, _now


def _records():
    h_minus = factorize(359057)
    report = verify_candidate(TowerCandidate.build(2, 7, 21121, h_minus))
    return [
        h_minus,
        report.candidate,
        report,
        KummerClass(0, 3),
        LocalCycloElement(3, 2, 5, [1, 2, 3, 4, 5, 7]),
        CacheEntry(128, h_minus, "2026-01-01T00:00:00+00:00", "product-formula"),
        TableRow.from_report(report),
        SearchResult((report,), ((256, "conductor budget 128 exceeded for m = 8"),), True),
    ]


RECORDS = _records()
by_name = pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)


def test_eight_distinct_records():
    assert len({type(record) for record in RECORDS}) == 8


class TestRecordContract:
    @by_name
    def test_fields_are_read_only_and_no_attribute_can_be_added(self, record):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.note = "x"

    @by_name
    def test_equal_fields_give_equal_records_and_hashes(self, record):
        clone = type(record)(*record)
        assert clone == record and hash(clone) == hash(record)
        assert clone is not record

    @by_name
    def test_repr_names_every_field(self, record):
        fields = ", ".join(f"{field}={getattr(record, field)!r}" for field in record._fields)
        assert repr(record) == f"{type(record).__name__}({fields})"

    @by_name
    def test_pickle_round_trip(self, record):
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record and type(clone) is type(record)

    def test_exact_repr_and_tuple_behaviour(self):
        twelve = factorize(12)
        assert repr(twelve) == "FactoredInteger(value=12, factors=((2, 2), (3, 1)))"
        assert str(twelve) == "2^2 * 3"
        value, factors = twelve
        assert (value, factors) == twelve == (12, ((2, 2), (3, 1)))
        assert repr(KummerClass(1, None)) == "KummerClass(v_mod_p=1, kappa=None)"
        element = LocalCycloElement(3, 1, 2, [10, 20])
        assert repr(element) == "LocalCycloElement(p=3, m=1, precision=2, coeffs=(1, 2))"
        p, m, precision, coeffs = element
        assert (p, m, precision, coeffs) == element == (3, 1, 2, (1, 2))


class TestCertifiedConstruction:
    """The checks run on every construction, in their order, with their messages."""

    @pytest.mark.parametrize(
        "value, factors, message",
        [
            (0, ((4, 0),), "value must be positive"),
            (4, ((4, 0),), "exponent of 4 must be >= 1"),
            (20, ((5, 1), (4, 1)), "factors must be sorted by strictly increasing prime"),
            (4, ((4, 1),), "listed factor 4 is not prime"),
            (6, ((2, 1),), "factors recompose to 2, not 6"),
        ],
    )
    def test_factored_integer(self, value, factors, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FactoredInteger(value, factors)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FactoredInteger(value=value, factors=factors)

    def test_replace_certifies_too(self):
        assert factorize(12)._replace(factors=((2, 2), (3, 1))) == factorize(12)
        with pytest.raises(ValueError, match="^factors recompose to 12, not 13$"):
            factorize(12)._replace(value=13)

    def test_keyword_construction(self):
        assert FactoredInteger(value=12, factors=((2, 2), (3, 1))) == factorize(12)

    def test_local_element_replace_normalises_too(self):
        element = LocalCycloElement(3, 1, 2, [1, 2])
        assert element._replace(coeffs=(10, 20)) == element  # mod p^N = 9
        assert element._replace(coeffs=[0, 0, 1]) == LocalCycloElement(3, 1, 2, [-1, -1])  # mod Phi_3
        with pytest.raises(ValueError, match="^precision must be >= 1$"):
            element._replace(precision=0)


def test_cache_timestamp_format():
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", _now())


def _fresh(tmp_path, flags, code):
    """stdout of ``code`` run in a fresh interpreter with these flags, which must exit 0 silently."""
    result = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        env=cli_env(tmp_path),
        cwd=tmp_path,
    )
    assert (result.returncode, result.stderr) == (0, "")
    return result.stdout


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_cli_import_leaves_heavy_stdlib_modules_out(tmp_path, flags):
    # pathlib (it loads urllib.parse and ipaddress) is checked under -S only,
    # as site may preload it
    heavy = ("dataclasses", "inspect", "fractions", "decimal", "datetime")
    heavy += ("pathlib",) if flags else ()
    code = f"import sys, towerforge.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    assert _fresh(tmp_path, flags, code) == "[]\n"


LOADED = "{m for m in sys.modules if m.split('.')[0] == 'towerforge'}"


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_cli_import_loads_only_errors_from_the_package(tmp_path, flags):
    # each subcommand imports its modules when it runs; json and typing are
    # checked under -S only, as site may preload them
    code = f"import sys, towerforge.cli; print(sorted({LOADED}))\n"
    code += "print(sorted({'json', 'typing'} & set(sys.modules)))"
    package, stdlib = _fresh(tmp_path, flags, code).splitlines()
    assert package == "['towerforge', 'towerforge.cli', 'towerforge.errors']"
    assert stdlib == "[]" or not flags


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_each_subcommand_adds_only_the_modules_it_runs(tmp_path, flags):
    code = (
        "import contextlib, io, sys\n"
        "from towerforge.cli import main\n"
        "def loaded():\n"
        f"    return {LOADED}\n"
        "seen = loaded()\n"
        "for argv in (['order', '--base', '3', '--mod', '1000003'], ['regular', '--p', '37']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "    print(argv[0], sorted(loaded() - seen))\n"
        "    seen = loaded()\n"
    )
    assert _fresh(tmp_path, flags, code) == "order ['towerforge.arith']\nregular ['towerforge.bernoulli']\n"
