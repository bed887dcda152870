"""Property test: a damaged cache file loads or is refused by name (needs hypothesis)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from towerforge.arith import factorize  # noqa: E402
from towerforge.pipeline import CacheEntry, HminusCache  # noqa: E402

VALID = b"".join(
    CacheEntry(conductor, factorize(h_minus), "2026-01-01T00:00:00+00:00", "product-formula")
    .to_json_line()
    .encode()
    + b"\n"
    for conductor, h_minus in ((4, 1), (81, 2593), (128, 359057), (125, 57708445601))
)


@st.composite
def damaged(draw):
    offset = draw(st.integers(0, len(VALID) - 1))
    if draw(st.booleans()):
        return VALID[:offset]
    return VALID[:offset] + bytes([draw(st.integers(0, 255))]) + VALID[offset + 1 :]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(damaged())
def test_damaged_file_loads_or_raises_value_error_naming_it(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "damaged-cache.jsonl"
    path.write_bytes(data)
    try:
        entries = HminusCache(path).load()
    except ValueError as exc:
        assert str(path) in str(exc)
    else:
        assert all(isinstance(entry, CacheEntry) for entry in entries.values())
