"""The package root holds only ``__version__``; every name imports from its defining module."""

import importlib
import subprocess
import sys

import pytest
from test_cli import cli_env

# public names by defining module; each has that one import path
PUBLIC_NAMES = {
    "arith": ["FactoredInteger", "euler_phi", "factorize", "is_prime", "is_prime_power", "mult_order"],
    "bernoulli": ["is_regular_prime"],
    "characters": ["hminus_determinant", "hminus_product", "relative_class_number"],
    "criteria": [
        "Conclusion",
        "ConditionIVerdict",
        "ConditionIIVerdict",
        "CriterionReport",
        "TowerCandidate",
        "check_condition_I",
        "check_condition_II",
        "gs_forces_infinite",
        "gs_margin",
        "verify_candidate",
    ],
    "cyclotomic": ["integer_det", "primitive_root_product"],
    "errors": [
        "BudgetExceededError",
        "CacheMismatchError",
        "CofactorError",
        "FactorizationError",
        "IntegralityError",
        "PrecisionError",
        "TowerforgeError",
    ],
    "local": [
        "AT_CAP",
        "KummerClass",
        "LocalCycloElement",
        "check_kummer_class_invariance",
        "divide_by_pi",
        "kappa",
        "kappa_cap",
        "kummer_class",
        "pi_valuation",
    ],
    "pipeline": [
        "CacheEntry",
        "HminusCache",
        "SearchResult",
        "TableRow",
        "cached_relative_class_number",
        "emit_report",
        "reproduce_table",
        "search_candidates",
    ],
}


def test_forty_six_names():
    assert sum(len(names) for names in PUBLIC_NAMES.values()) == 46


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_each_name_imports_from_its_defining_module(module):
    defining = importlib.import_module(f"towerforge.{module}")
    for name in PUBLIC_NAMES[module]:
        assert getattr(defining, name).__module__ == defining.__name__, name


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_root_exposes_only_the_version_and_loads_no_module(tmp_path, flags):
    code = (
        "import sys, towerforge; "
        "print([n for n in dir(towerforge) if not n.startswith('_')], towerforge.__version__, "
        "sorted(m for m in sys.modules if m.startswith('towerforge.')))"
    )
    result = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        env=cli_env(tmp_path),
        cwd=tmp_path,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[] 0.1.0 []\n", "")
