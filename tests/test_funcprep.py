"""Classical preprocessing: expansion, embeddings, normalization."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsynth.errors import (
    AllZero,
    EmptyInput,
    NotInjective,
    NotPowerOfTwo,
    NotSquare,
    SizeLimitExceeded,
    WidthMismatch,
)
from qsynth.funcprep import (
    TruthTable,
    assign_dont_cares,
    expand,
    make_one_to_one,
    make_onto,
    normalize,
    normalize_pmf,
    prepare_bijection,
    to_truth_table,
)
from qsynth.pla import PlaTable, parse_pla

from conftest import bench_path


def pla(n, m, rows):
    return PlaTable(n=n, m=m, rows=tuple(rows))


# ---------------------------------------------------------------------------
# expand / assign_dont_cares
# ---------------------------------------------------------------------------

def test_expand_single_dash():
    out = expand(pla(3, 2, [("1-1", "10")]))
    assert out.rows == (("101", "10"), ("111", "10"))


def test_expand_all_dashes():
    out = expand(pla(2, 1, [("--", "1")]))
    assert out.rows == (("00", "1"), ("01", "1"), ("10", "1"), ("11", "1"))


def test_expand_no_dashes_is_identity():
    table = pla(2, 1, [("01", "1"), ("10", "0")])
    assert expand(table).rows == table.rows


def test_expand_row_cap(monkeypatch):
    monkeypatch.setenv("QSYNTH_MAX_ROWS", "1000")
    cube = ("-" * 12, "1")
    with pytest.raises(SizeLimitExceeded):
        expand(pla(12, 1, [cube]))


def test_expand_row_cap_env(monkeypatch):
    monkeypatch.setenv("QSYNTH_MAX_ROWS", "8")
    with pytest.raises(SizeLimitExceeded):
        expand(pla(4, 1, [("----", "1")]))
    monkeypatch.setenv("QSYNTH_MAX_ROWS", "16")
    assert len(expand(pla(4, 1, [("----", "1")])).rows) == 16


def test_assign_dont_cares():
    out = assign_dont_cares(pla(1, 3, [("0", "1-0")]))
    assert out.rows == (("0", "100"),)


def test_assign_identity_when_clean():
    table = pla(1, 2, [("0", "10")])
    assert assign_dont_cares(table).rows == table.rows


def test_expand_then_assign_composite():
    out = assign_dont_cares(expand(pla(3, 2, [("-0-", "1-")])))
    assert len(out.rows) == 4
    assert all(set(ins) <= {"0", "1"} for ins, _ in out.rows)
    assert all(outs == "10" for _, outs in out.rows)


def test_to_truth_table():
    tt = to_truth_table(pla(2, 2, [("01", "10"), ("11", "01")]))
    assert tt.entries == {0b01: 0b10, 0b11: 0b01}
    assert not tt.complete


def test_truth_table_entries_read_only():
    # the table checked at construction stays the table: address 5 does not
    # fit in n = 2 bits, and an edit of the dict passed in does not reach it
    given = {1: 4}
    t = TruthTable(2, 3, given)
    with pytest.raises(TypeError):
        t.entries[5] = 4
    given[1] = 99
    assert t.entries == {1: 4}


# ---------------------------------------------------------------------------
# make_one_to_one
# ---------------------------------------------------------------------------

def test_one_to_one_injective_square_identity():
    table = TruthTable(n=2, m=2, entries={0: 3, 1: 2, 2: 0})
    rtt = make_one_to_one(table)
    assert (rtt.v, rtt.w) == (0, 0)
    assert rtt.table is table


def test_one_to_one_duplicate_pair():
    table = TruthTable(n=2, m=2, entries={0: 0, 1: 0, 2: 1})
    rtt = make_one_to_one(table)
    assert (rtt.v, rtt.w) == (1, 1)
    assert rtt.table.n == rtt.table.m == 3
    # the two 0-outputs pick up garbage values 0 and 1 in row order
    assert rtt.table.entries[rtt.input_map[0]] == 0b000
    assert rtt.table.entries[rtt.input_map[1]] == 0b001
    outputs = list(rtt.table.entries.values())
    assert len(set(outputs)) == len(outputs)


def test_one_to_one_garbage_order_of_appearance():
    table = TruthTable(n=3, m=2, entries={5: 2, 1: 2, 3: 2})
    rtt = make_one_to_one(table)
    assert rtt.v == 2  # three duplicates
    got = [rtt.table.entries[rtt.input_map[x]] & 0b11 for x in (1, 3, 5)]
    assert got == [0, 1, 2]  # ascending input order


def test_one_to_one_injective_padding():
    # more output bits than input bits: zero-pad inputs to square
    table = TruthTable(n=2, m=4, entries={0: 3, 1: 9, 2: 14, 3: 5})
    rtt = make_one_to_one(table)
    assert (rtt.v, rtt.w) == (0, 2)
    assert rtt.table.n == 4
    assert rtt.table.entries[rtt.input_map[2]] == 14
    assert rtt.input_map[2] == 2 << 2


def test_one_to_one_widths_squar5():
    table = parse_pla(bench_path("squar5.pla").read_text())
    rtt = make_one_to_one(to_truth_table(table))
    assert rtt.n_dup == 2
    assert (rtt.v, rtt.w) == (1, 4)
    assert rtt.table.n == 9


def test_one_to_one_widths_z5xp1():
    table = parse_pla(bench_path("Z5xp1.pla").read_text())
    rtt = make_one_to_one(to_truth_table(table))
    assert (rtt.v, rtt.w) == (0, 3)
    assert rtt.table.n == 10


def test_one_to_one_preserves_function(rng):
    for _ in range(30):
        n = rng.randint(2, 5)
        m = rng.randint(1, 5)
        entries = {x: rng.randrange(1 << m) for x in range(1 << n)
                   if rng.random() < 0.8}
        if not entries:
            continue
        rtt = make_one_to_one(TruthTable(n=n, m=m, entries=entries))
        width = rtt.table.n
        assert width == rtt.table.m
        shift = width - m
        for x, y in entries.items():
            assert rtt.table.entries[rtt.input_map[x]] >> shift == y
        values = list(rtt.table.entries.values())
        assert len(set(values)) == len(values)


def reference_one_to_one(table):
    """The embedding with separate injective and duplicate branches, kept as
    the reference: (entries, v, w, n_dup, input_map)."""
    n, m = table.n, table.m
    inputs = sorted(table.entries)
    multiplicity = {}
    for x in inputs:
        y = table.entries[x]
        multiplicity[y] = multiplicity.get(y, 0) + 1
    n_dup = max(multiplicity.values(), default=0)

    if n_dup <= 1:
        if n == m:
            return dict(table.entries), 0, 0, n_dup, {x: x for x in inputs}
        w = max(0, m - n)
        width = max(n + w, m)
        entries = {x << w: y << (width - m) for x, y in table.entries.items()}
        return entries, 0, w, n_dup, {x: x << w for x in inputs}

    v = max(1, math.ceil(math.log2(n_dup)))
    w = max(0, v + m - n)
    width = max(n + w, m + v)
    counters = {}
    entries = {}
    input_map = {}
    for x in inputs:
        y = table.entries[x]
        k = counters.get(y, 0)
        counters[y] = k + 1
        if multiplicity[y] > 1:
            ancilla = k % (1 << w) if w else 0
        else:
            ancilla = 0
        new_x = (x << w) | ancilla
        input_map[x] = new_x
        entries[new_x] = (y << (width - m)) | k
    return entries, v, w, n_dup, input_map


@st.composite
def small_tables(draw):
    n = draw(st.integers(0, 5))
    m = draw(st.integers(0, 5))
    outputs = st.integers(0, (1 << m) - 1)
    entries = draw(st.dictionaries(st.integers(0, (1 << n) - 1), outputs,
                                   max_size=1 << n))
    return TruthTable(n=n, m=m, entries=entries)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(table=small_tables())
def test_one_to_one_matches_reference(table):
    rtt = make_one_to_one(table)
    got = (rtt.table.entries, rtt.v, rtt.w, rtt.n_dup, rtt.input_map)
    assert got == reference_one_to_one(table)


# ---------------------------------------------------------------------------
# make_onto
# ---------------------------------------------------------------------------

def test_onto_bijective_identity():
    table = TruthTable(n=2, m=2, entries={0: 2, 1: 3, 2: 0, 3: 1})
    assert make_onto(table, strategy="hamming_min").entries == table.entries


def test_onto_hamming_prefers_close_values():
    # domain 001 free; range {110, 011} unused; 011 is Hamming-1 away
    table = TruthTable(n=3, m=3, entries={
        0: 0, 2: 1, 3: 2, 4: 4, 5: 5, 6: 7})
    out = make_onto(table, strategy="hamming_min")
    assert out.entries[0b001] == 0b011
    assert out.entries[0b111] == 0b110


def test_onto_random_fill_pairs_ascending():
    table = TruthTable(n=2, m=2, entries={1: 2, 3: 0})
    out = make_onto(table, strategy="random_fill")
    # unassigned domain 0,2 pair with unused range 1,3 in order
    assert out.entries[0] == 1
    assert out.entries[2] == 3


def test_onto_requires_injective():
    with pytest.raises(NotInjective):
        make_onto(TruthTable(n=2, m=2, entries={0: 1, 1: 1}), strategy="random_fill")


def test_onto_requires_square():
    with pytest.raises(NotSquare):
        make_onto(TruthTable(n=2, m=3, entries={0: 1}), strategy="random_fill")


def test_onto_row_cap(monkeypatch):
    monkeypatch.setenv("QSYNTH_MAX_ROWS", "4")
    with pytest.raises(SizeLimitExceeded):
        make_onto(TruthTable(n=3, m=3, entries={0: 1}), strategy="random_fill")


@pytest.mark.parametrize("strategy", ["random_fill", "hamming_min"])
def test_onto_completes_bijection(rng, strategy):
    for _ in range(20):
        n = rng.randint(1, 5)
        picks = rng.sample(range(1 << n), rng.randint(0, 1 << n))
        values = rng.sample(range(1 << n), len(picks))
        table = TruthTable(n=n, m=n, entries=dict(zip(picks, values)))
        out = make_onto(table, strategy=strategy)
        assert sorted(out.entries) == list(range(1 << n))
        assert sorted(out.entries.values()) == list(range(1 << n))
        for x, y in table.entries.items():
            assert out.entries[x] == y


def test_prepare_bijection_pipeline():
    table = parse_pla(bench_path("squar5.pla").read_text())
    bijection, rtt = prepare_bijection(table)
    assert bijection.n == bijection.m == 9
    assert sorted(bijection.entries.values()) == list(range(512))
    for x in range(32):
        emb = rtt.input_map[x]
        assert bijection.entries[emb] >> 1 == (x * x) % 256


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_factor_warns_and_aliases():
    with pytest.warns(UserWarning, match="2\\*pi"):
        out = normalize([1, 2, 4], "factor")
    assert out.aliased
    assert out.f_norm == pytest.approx(2.0 * math.pi / 4)
    assert out.values[0] == pytest.approx(math.pi / 2)
    assert out.values[2] == 0.0  # the aliased maximum


def test_factor_strict_halfopen():
    out = normalize([1, 2, 4], "factor", strict_halfopen=True)
    assert not out.aliased
    assert out.values[2] == pytest.approx(8.0 * math.pi / 5)
    assert all(0.0 <= v < 2.0 * math.pi for v in out.values)


def test_factor_all_zero():
    with pytest.raises(AllZero):
        normalize([0, 0], "factor")


def test_fixedpoint01():
    out = normalize(["101", "000", "111"], "fixedpoint01")
    assert out.values == (0.625, 0.0, 0.875)
    assert all(0.0 <= v < 1.0 for v in out.values)


def test_fixedpoint04():
    out = normalize(["101", "011"], "fixedpoint04")
    assert out.values == (2.5, 1.5)
    assert all(0.0 <= v < 4.0 for v in out.values)


def test_floatlike_split():
    out = normalize(["00110"], "floatlike")
    # two leading zeros shift out: S = 0.11000 read in [0,4) = 3.0, E = 2
    assert out.exponents == (2,)
    assert out.significands == (3.0,)
    assert out.values == (3.0,)
    assert out.reconstruct(0) == 0.75
    assert normalize(["00110"], "fixedpoint04").values[0] == 0.75


def test_floatlike_zero_word_sentinel():
    out = normalize(["000", "100"], "floatlike")
    assert out.exponents[0] == 3  # width marks the zero word
    assert out.values[0] == 0.0
    assert out.reconstruct(0) == 0.0
    assert out.z_max == 3


def test_floatlike_hidden_bit():
    plain = normalize(["0101"], "floatlike")
    hidden = normalize(["0101"], "floatlike", hidden_bit=True)
    assert plain.values[0] == pytest.approx(2.5)
    assert hidden.values[0] == pytest.approx(0.5)
    assert hidden.reconstruct(0) == plain.reconstruct(0)


def test_floatlike_significand_range(rng):
    words = [rng.randrange(1, 1 << 6) for _ in range(50)]
    out = normalize(words, "floatlike", width=6)
    for s, e in zip(out.significands, out.exponents):
        assert 2.0 <= s < 4.0
        assert 0 <= e < 6
    # reconstruction matches the plain fixed-point reading word by word
    fixed = normalize(words, "fixedpoint04", width=6)
    for j in range(len(words)):
        assert out.reconstruct(j) == fixed.values[j]


def test_normalize_input_validation():
    with pytest.raises(EmptyInput):
        normalize([], "fixedpoint01")
    with pytest.raises(WidthMismatch):
        normalize(["10", "110"], "fixedpoint01")
    with pytest.raises(WidthMismatch):
        normalize([5], "fixedpoint01")  # integer words need a width
    with pytest.raises(WidthMismatch):
        normalize([5], "fixedpoint01", width=2)
    with pytest.raises(ValueError):
        normalize([3], "no_such_scheme", width=4)


# ---------------------------------------------------------------------------
# PMFs
# ---------------------------------------------------------------------------

def test_normalize_pmf_probability_mode():
    pmf = normalize_pmf([1, 3], mode="probability")
    assert pmf.probs == (0.25, 0.75)


def test_normalize_pmf_amplitude_mode():
    pmf = normalize_pmf([1, 1], mode="amplitude")
    assert pmf.probs == (0.5, 0.5)
    skew = normalize_pmf([1, 2], mode="amplitude")
    assert skew.probs[1] == pytest.approx(0.8)


def test_normalize_pmf_power_of_two():
    with pytest.raises(NotPowerOfTwo):
        normalize_pmf([1, 1, 1], mode="probability")


def test_normalize_pmf_rejects_negative_and_zero_sum():
    with pytest.raises(ValueError):
        normalize_pmf([1, -1], mode="probability")
    with pytest.raises(AllZero):
        normalize_pmf([0, 0], mode="probability")


@pytest.mark.parametrize("mode", ["probability", "amplitude"])
@pytest.mark.parametrize("height", [math.nan, math.inf])
def test_normalize_pmf_rejects_non_finite(mode, height):
    with pytest.raises(ValueError, match="finite"):
        normalize_pmf([1.0, height], mode=mode)


@pytest.mark.parametrize("mode, heights", [
    ("probability", [1e308, 1e308]),  # the exact sum is past the float range
    ("amplitude", [1e200, 1.0]),      # the square is
])
def test_normalize_pmf_rejects_overflowing_total(mode, heights):
    with pytest.raises(ValueError, match="overflows"):
        normalize_pmf(heights, mode=mode)


@pytest.mark.parametrize("mode, heights", [
    ("probability", [1e308, 7e307]),
    ("amplitude", [1e154, 3e153, 1.0, 0.0]),
])
def test_normalize_pmf_large_heights_in_range(mode, heights):
    # no rescaling: each probability is its weight over the exact sum
    weights = [h * h for h in heights] if mode == "amplitude" else heights
    total = math.fsum(weights)
    assert normalize_pmf(heights, mode=mode).probs == tuple(w / total for w in weights)
