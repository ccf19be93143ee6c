import hashlib

import pytest
from hypothesis import given, strategies as st

from riordan.algebra import R
from riordan.arrays import LowerTriMatrix
from riordan.bfile import (
    BFile,
    CacheMiss,
    MalformedLine,
    NetworkUnavailable,
    bfile_url,
    fetch_bfile,
    parse_bfile,
    render_bfile,
)
from riordan.oeis import (
    FIXTURES,
    SymbolicEntries,
    TriangleFixture,
    check_sequence,
    check_triangle,
)

from process import fresh_interpreter

# Byte-stability pins: regenerate deliberately if fixture data ever changes.
FIXTURE_CHECKSUMS = {
    "A001147": "94196c371000c102d51b58fe7d5e7e3c80f246f3e33c87d3b3520ec810c25839",
    "A001263": "42c4f882d44657c33094fb07d257ce339f02b950939969f779c16217ab9ca2bc",
    "A007318": "fb3d4635b5ae293c5e9ce80c998f452578639e64f0a466aab4dd8db742231666",
    "A008292": "5c489a167552f37f9ce4c805918ecdc81961f3f0a656f7cdccdab7fc6862c0e1",
    "A013609": "708c08b2e8eb2c56ff26b038273ebb8491aee46de4278b65586b5f361b249b1c",
    "A019538": "dab90688a5aadbd5e07fe5eee74dcd8e00e08259889cafc0c0f3fdffeea9e6fe",
    "A033282": "ba54d7b1a2d896e3c2e79857cc4437bae2ea2180d707ba894c35959868bf918f",
    "A038207": "d7411f67752f16036929422c3eadc5a6c0799dd3f35a46a2a84e2f665d2fe2ad",
    "A055151": "1dc875671e5d83d0991c29d6a64efdb3d73f329bbdcafa349da5e94da775ac00",
    "A074909": "0c8f925dcb9fc8e7050c7794f7bf4d74229a1e176b99d5d62180cf4bf00ee5ee",
    "A101280": "81b536b7b2b3125355216d972916f2a8f0fa1949df2f107d82150b418eca3fa1",
    "A135278": "e3645f58ec663a59e2013fae39932c2f2087f7d18e56e02ae157bdaf30e17254",
}


def canonical(fx: TriangleFixture) -> str:
    return "|".join(
        [
            fx.anumber,
            str(fx.offset),
            "by-rows",  # every fixture is read by rows; the pinned digests include it
            ",".join(map(str, fx.row_lengths)),
            ",".join(map(str, fx.values)),
        ]
    )


def test_fixture_checksums_are_stable():
    assert set(FIXTURES) == set(FIXTURE_CHECKSUMS)
    for anumber, fx in FIXTURES.items():
        digest = hashlib.sha256(canonical(fx).encode()).hexdigest()
        assert digest == FIXTURE_CHECKSUMS[anumber], anumber


def test_fixtures_have_enough_rows():
    for fx in FIXTURES.values():
        assert len(fx.row_lengths) >= 8, fx.anumber


def test_parse_bfile_examples():
    assert parse_bfile("0 1\n1 2\n2 4").entries == ((0, 1), (1, 2), (2, 4))
    assert parse_bfile("# comment\n5 120").entries == ((5, 120),)
    assert parse_bfile("0 1\n\n  \n1 5").entries == ((0, 1), (1, 5))

    with pytest.raises(MalformedLine) as err:
        parse_bfile("0 1\nx 2")
    assert err.value.line_number == 2

    with pytest.raises(MalformedLine):
        parse_bfile("0 1 9")
    with pytest.raises(MalformedLine):
        parse_bfile("3 1\n2 5")  # indices must increase


@given(
    st.lists(st.tuples(st.integers(0, 50), st.integers(-10**12, 10**12)), max_size=12).map(
        lambda pairs: tuple(sorted({i: v for i, v in pairs}.items()))
    )
)
def test_bfile_render_parse_round_trip(entries):
    bfile = BFile(entries)
    assert parse_bfile(render_bfile(bfile)) == bfile


def test_check_triangle_alignment_and_mismatch():
    good = LowerTriMatrix([[1], [2, 1], [3, 3, 1]])
    report = check_triangle(good, FIXTURES["A135278"])
    assert report.ok and report.entries_matched == 6 and report.rows_compared == 3

    bad = LowerTriMatrix([[1], [2, 1], [3, 4, 1]])
    report = check_triangle(bad, FIXTURES["A135278"])
    assert not report.ok
    assert report.mismatch == (2, 1, 4, 3)
    assert "row 2" in report.message()


def test_check_triangle_ragged_rows_demand_zero_tails():
    padded = [[1], [1, 0], [1, 1, 0], [1, 3, 0, 0], [1, 6, 2, 0, 0]]
    assert check_triangle(padded, FIXTURES["A055151"]).ok
    dirty = [[1], [1, 7]]
    assert not check_triangle(dirty, FIXTURES["A055151"]).ok


def test_check_triangle_reports_an_entry_absent_from_a_short_row():
    # The short row's entries are compared first: the absent entry is
    # reported after a matching prefix, and a wrong entry before it.
    report = check_triangle([[1], [1]], FIXTURES["A007318"])
    assert report.mismatch == (1, 1, "absent", 1) and report.rows_compared == 2 and report.entries_matched == 2
    assert report.message() == "A007318: mismatch at row 1, column 1: got absent, want 1"
    report = check_triangle([[1], [5]], FIXTURES["A007318"])
    assert report.mismatch == (1, 0, 5, 1) and report.entries_matched == 1
    assert report.message() == "A007318: mismatch at row 1, column 0: got 5, want 1"


def test_check_triangle_rejects_symbolic_entries():
    with pytest.raises(SymbolicEntries):
        check_triangle([[1], [R, 1]], FIXTURES["A007318"])


def test_check_sequence():
    fx = FIXTURES["A001147"]
    assert check_sequence([1, 1, 3, 15], fx).ok
    assert not check_sequence([1, 2], fx).ok


def test_fixture_shape_validation():
    with pytest.raises(ValueError):
        TriangleFixture("A0", "bad", 0, (2,), (1,))
    with pytest.raises(ValueError):
        TriangleFixture("A0", "empty", 0, (), ())


def test_bfile_url_and_anumber_normalization():
    assert bfile_url("A45", base_url="https://example.org") == "https://example.org/A000045/b000045.txt"
    with pytest.raises(ValueError):
        bfile_url("X123")


def test_fetch_bfile_cache_flow(tmp_path):
    source = tmp_path / "remote" / "A000045"
    source.mkdir(parents=True)
    (source / "b000045.txt").write_text("# fib\n0 0\n1 1\n2 1\n3 2\n")
    base = f"file://{tmp_path}/remote"
    cache = tmp_path / "cache"

    bfile = fetch_bfile("A000045", cache, base_url=base)
    assert bfile.values == (0, 1, 1, 2)
    assert (cache / "A000045.txt").exists()

    # second call is served from the cache: the source can disappear
    (source / "b000045.txt").unlink()
    again = fetch_bfile("A000045", cache, base_url=base)
    assert again == bfile

    with pytest.raises(CacheMiss):
        fetch_bfile("A000099", cache, offline=True)
    with pytest.raises(NetworkUnavailable):
        fetch_bfile("A000099", cache, base_url=base)


def test_cli_import_leaves_the_network_stack_unloaded():
    code = "import sys, riordan.cli; print('urllib.request' in sys.modules)"
    assert fresh_interpreter(code) == ["False"]
