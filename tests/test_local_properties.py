"""Property test: table kappa equals the exhaustive enumerator (needs hypothesis)."""

import local_reference
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from towerforge.local import LocalCycloElement, kappa, kappa_cap, pi_valuation  # noqa: E402


@st.composite
def units_and_levels(draw):
    p, m = draw(st.sampled_from(((2, 1), (2, 2), (3, 1), (3, 2))))
    e = LocalCycloElement.pi(p, m, 1).e
    l_max = draw(st.integers(1, kappa_cap(p, m)))
    precision = draw(st.integers(-(-(l_max + e) // e), 5))
    coeffs = st.lists(st.integers(0, p**precision - 1), min_size=e, max_size=e)
    unit = LocalCycloElement(p, m, precision, draw(coeffs))
    hypothesis.assume(is_unit(unit))
    if draw(st.booleans()):
        # a unit times a p-th power of a unit: kappa is then often deep
        gamma = LocalCycloElement(p, m, precision, draw(coeffs))
        hypothesis.assume(is_unit(gamma))
        unit = unit * gamma**p
    return unit, l_max


def is_unit(x):
    return not x.is_zero() and pi_valuation(x) == 0


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(units_and_levels())
def test_table_kappa_matches_the_enumerator(case):
    x, l_max = case
    assert kappa(x, l_max) == local_reference.kappa(x, l_max)
