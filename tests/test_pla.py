"""Table parser and writer."""

import warnings

import pytest

from qsynth.errors import BadCube, ConflictingRows, MalformedDirective
from qsynth.pla import PlaTable, parse_pla, write_pla

from conftest import BENCH_DIR

BASIC = """\
.i 2
.o 1
.p 2
01 1
1- 1
.e
"""


def test_parse_basic():
    table = parse_pla(BASIC)
    assert table.n == 2
    assert table.m == 1
    assert table.declared_products == 2
    assert table.rows == (("01", "1"), ("1-", "1"))


def test_dash_synonyms():
    a = parse_pla(".i 3\n.o 1\n1~0 1\n")
    b = parse_pla(".i 3\n.o 1\n120 1\n")
    c = parse_pla(".i 3\n.o 1\n1-0 1\n")
    assert a.rows == b.rows == c.rows == (("1-0", "1"),)


def test_cube_token_forms():
    contiguous = parse_pla(".i 2\n.o 2\n0110\n")
    spaced = parse_pla(".i 2\n.o 2\n01 10\n")
    grouped = parse_pla(".i 2\n.o 2\n0 1 1 0\n")
    assert contiguous.rows == spaced.rows == grouped.rows == (("01", "10"),)


def test_comments_and_blank_lines():
    table = parse_pla(".i 1\n.o 1\n# comment\n\n0 1  # trailing\n")
    assert table.rows == (("0", "1"),)


def test_type_tag_and_end():
    table = parse_pla(".i 1\n.o 1\n.type fr\n0 1\n.e\n1 0\n")
    assert table.type_tag == "fr"
    assert len(table.rows) == 1  # nothing after .e counts


def test_ilb_ob_skipped():
    table = parse_pla(".i 2\n.o 1\n.ilb a b\n.ob f\n11 1\n")
    assert table.rows == (("11", "1"),)


def test_product_count_mismatch_warns():
    with pytest.warns(UserWarning, match=r"\.p declares 5"):
        table = parse_pla(".i 1\n.o 1\n.p 5\n0 1\n")
    assert len(table.rows) == 1


def test_unknown_directive_warns():
    with pytest.warns(UserWarning, match="unknown directive"):
        parse_pla(".i 1\n.o 1\n.phase whatever\n0 1\n")


def test_crlf_accepted():
    table = parse_pla(".i 1\r\n.o 1\r\n0 1\r\n")
    assert table.rows == (("0", "1"),)


@pytest.mark.parametrize("text", [
    "0 1\n",                      # cube before declarations
    ".i x\n.o 1\n",               # non-numeric width
    ".i 1\n0 1\n",                # missing .o
    ".i 1\n.o 1\n0 1\n.i 2\n",    # width change after cubes
])
def test_malformed_directives(text):
    with pytest.raises(MalformedDirective):
        parse_pla(text)


@pytest.mark.parametrize("text", [
    ".i 2\n.o 1\n011 1\n",        # too wide
    ".i 2\n.o 1\n0x 1\n",         # bad symbol
    ".i 2\n.o 2\n01 1- -\n",      # unsplittable tokens
])
def test_bad_cubes(text):
    with pytest.raises(BadCube):
        parse_pla(text)


def test_conflicting_rows():
    with pytest.raises(ConflictingRows):
        parse_pla(".i 2\n.o 1\n00 1\n00 0\n")


def test_conflict_needs_fully_specified_inputs():
    # dashed rows may overlap specified ones; semantics are the synthesizer's
    table = parse_pla(".i 2\n.o 1\n00 1\n0- 0\n")
    assert len(table.rows) == 2


def test_duplicate_rows_allowed():
    table = parse_pla(".i 2\n.o 1\n00 1\n00 1\n")
    assert len(table.rows) == 2


def test_output_dash_kept():
    table = parse_pla(".i 1\n.o 3\n0 1-0\n")
    assert table.rows == (("0", "1-0"),)


def test_write_round_trip():
    table = parse_pla(BASIC)
    text = write_pla(table)
    again = parse_pla(text)
    assert again.rows == table.rows
    assert write_pla(again) == text


def test_write_round_trip_synthesized():
    table = PlaTable(n=3, m=2, rows=(("0-1", "10"), ("110", "0-")))
    text = write_pla(table)
    assert parse_pla(text).rows == table.rows
    assert write_pla(parse_pla(text)) == text


@pytest.mark.parametrize("name", sorted(p.name for p in BENCH_DIR.glob("*.pla")))
def test_corpus_round_trip(name):
    text = (BENCH_DIR / name).read_text()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = parse_pla(text)
    assert write_pla(table) == text


@pytest.mark.parametrize("n, m, row", [
    (3, 1, ("01", "1")),
    (2, 2, ("01", "1")),
], ids=["input", "output"])
def test_table_rows_match_widths(n, m, row):
    with pytest.raises(BadCube, match="does not match"):
        PlaTable(n=n, m=m, rows=(row,))
