"""Turning raw cube lists into synthesizable functions and distributions.

The synthesis methods downstream want one of three shapes:

* a completely specified truth table (dash-free, every minterm listed),
* a square bijective table (for reversible synthesis), or
* a list of rotation angles / a probability mass function (for encodings).

This module provides the lossless steps between a parsed table and those
shapes: dash expansion, don't-care assignment, one-to-one embedding with
garbage/ancilla columns, completion to a bijection, and the word and
distribution normalizations.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import warnings
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import (
    AllZero,
    ConflictingRows,
    EmptyInput,
    NotInjective,
    NotPowerOfTwo,
    NotSquare,
    SizeLimitExceeded,
    WidthMismatch,
)
from .pla import PlaTable

DEFAULT_MAX_ROWS = 1 << 22
TWO_PI = 2.0 * math.pi


def row_cap() -> int:
    """The hard cap on materialized table rows (env QSYNTH_MAX_ROWS overrides)."""
    raw = os.environ.get("QSYNTH_MAX_ROWS")
    if raw is None:
        return DEFAULT_MAX_ROWS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"QSYNTH_MAX_ROWS must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError("QSYNTH_MAX_ROWS must be positive")
    return value


# ---------------------------------------------------------------------------
# truth tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruthTable:
    """A (possibly partial) function from n-bit words to m-bit words.

    Words are plain integers; column j of a width-k field is bit (k-1-j),
    i.e. the leftmost character of the written form is the most significant
    bit.  ``entries`` maps defined input words to output words: a
    read-only view of a copy, so the table checked here stays the table.
    """

    n: int
    m: int
    entries: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        for x, y in self.entries.items():
            if not 0 <= x < (1 << self.n):
                raise WidthMismatch(f"input {x} does not fit in {self.n} bits")
            if not 0 <= y < (1 << self.m):
                raise WidthMismatch(f"output {y} does not fit in {self.m} bits")

    @property
    def complete(self) -> bool:
        return len(self.entries) == (1 << self.n)

    @property
    def injective(self) -> bool:
        values = self.entries.values()
        return len(set(values)) == len(self.entries)

    def as_list(self) -> list[int]:
        """Outputs indexed by input word; the table must be complete."""
        if not self.complete:
            raise WidthMismatch("table is not completely specified")
        return [self.entries[x] for x in range(1 << self.n)]


def expand(table: PlaTable) -> PlaTable:
    """Expand input dashes so every row's input field is fully specified.

    A row with q input dashes becomes 2**q rows.  Output fields are copied
    untouched.  The expansion refuses to materialize more rows than the
    QSYNTH_MAX_ROWS cap.
    """
    cap = row_cap()
    total = 0
    for ins, _ in table.rows:
        total += 1 << ins.count("-")
        if total > cap:
            raise SizeLimitExceeded(f"expansion needs more than {cap} rows")

    rows: list[tuple[str, str]] = []
    for ins, outs in table.rows:
        if "-" not in ins:
            rows.append((ins, outs))
            continue
        template = ins.replace("-", "{}")  # each dash 0 then 1, the first most significant
        rows.extend((template.format(*bits), outs)
                    for bits in itertools.product("01", repeat=ins.count("-")))
    return PlaTable(n=table.n, m=table.m, rows=tuple(rows), type_tag=table.type_tag)


def assign_dont_cares(table: PlaTable) -> PlaTable:
    """Pin every output don't-care to 0."""
    rows = tuple((ins, outs.replace("-", "0")) for ins, outs in table.rows)
    return PlaTable(n=table.n, m=table.m, rows=rows, type_tag=table.type_tag)


def to_truth_table(table: PlaTable) -> TruthTable:
    """Convert a dash-free cube list into a truth table.

    Identical duplicate rows collapse to one entry; rows that disagree on an
    output raise.  Run expand() and assign_dont_cares() first if the table
    still contains dashes.
    """
    entries: dict[int, int] = {}
    for ins, outs in table.rows:
        if "-" in ins or "-" in outs:
            raise WidthMismatch(f"row {ins} {outs} still contains dashes")
        x = int(ins, 2)
        y = int(outs, 2)
        if x in entries and entries[x] != y:
            raise ConflictingRows(f"input {ins} maps to two different outputs")
        entries[x] = y
    return TruthTable(n=table.n, m=table.m, entries=entries)


# ---------------------------------------------------------------------------
# one-to-one embedding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RttResult:
    """A one-to-one embedding of a possibly many-to-one table.

    ``table`` is square (width x width).  ``v`` garbage bits were appended
    to outputs, ``w`` ancilla bits to inputs, and ``n_dup`` is the largest
    output multiplicity found.  ``input_map`` records where each original
    input word landed so callers can drive the embedded function.
    """

    table: TruthTable
    v: int
    w: int
    n_dup: int
    source_n: int
    source_m: int
    input_map: dict[int, int] = field(repr=False)

    def extract_output(self, word: int) -> int:
        """Strip garbage columns from an embedded output word."""
        return word >> (self.table.n - self.source_m)


def make_one_to_one(table: TruthTable) -> RttResult:
    """Embed a table into an injective square one.

    The largest output multiplicity N_dup fixes v = ceil(log2 N_dup) garbage
    output bits (0 for an injective table) and w = max(0, v + m - n) input
    ancilla bits; the final width is max(n+w, m+v) on both sides.  Within
    each group of rows sharing an output value, garbage values count 0, 1,
    2, ... in order of appearance and the ancilla bits follow the same
    counter (truncated to w bits).  A table that is already injective and
    square is returned as it is.
    """
    n, m = table.n, table.m
    n_dup = max(Counter(table.entries.values()).values(), default=0)
    v = max(n_dup - 1, 0).bit_length()
    w = max(0, v + m - n)
    width = max(n + w, m + v)

    counters: dict[int, int] = {}
    entries: dict[int, int] = {}
    input_map: dict[int, int] = {}
    for x in sorted(table.entries):
        y = table.entries[x]
        k = counters.get(y, 0)
        counters[y] = k + 1
        new_x = (x << w) | (k % (1 << w))
        new_y = (y << (width - m)) | k
        input_map[x] = new_x
        entries[new_x] = new_y

    if width == n == m:
        result = table
    else:
        result = TruthTable(n=width, m=width, entries=entries)
        if not result.injective:
            raise NotInjective("embedding failed to separate duplicate outputs")
    return RttResult(
        table=result, v=v, w=w, n_dup=n_dup, source_n=n, source_m=m,
        input_map=input_map,
    )


def make_onto(
    table: TruthTable,
    strategy: str = "hamming_min",
    seed: int | None = None,
) -> TruthTable:
    """Complete an injective square table to a full bijection.

    ``random_fill`` pairs the unassigned domain and range values in
    ascending order, or in a seed-shuffled order when a seed is given.
    ``hamming_min`` first pairs identical values, then walks the remaining
    domain in ascending order assigning the unused range value of minimal
    Hamming distance (ties go to the smaller value).
    """
    if table.n != table.m:
        raise NotSquare(f"table is {table.n}x{table.m}, embed it first")
    if not table.injective:
        raise NotInjective("table has duplicate outputs, embed it first")
    cap = row_cap()
    size = 1 << table.n
    if size > cap:
        raise SizeLimitExceeded(f"bijection on {table.n} bits needs {size} rows, cap is {cap}")
    if len(table.entries) == size:
        return table

    used_out = set(table.entries.values())
    free_domain = [x for x in range(size) if x not in table.entries]
    free_range = [y for y in range(size) if y not in used_out]

    entries = dict(table.entries)
    if strategy == "random_fill":
        targets = list(free_range)
        if seed is not None:
            random.Random(seed).shuffle(targets)
        for x, y in zip(free_domain, targets):
            entries[x] = y
    elif strategy == "hamming_min":
        unused = set(free_range)
        leftovers = []
        for x in free_domain:
            if x in unused:
                entries[x] = x
                unused.remove(x)
            else:
                leftovers.append(x)
        pool = sorted(unused)
        for x in leftovers:
            best = min(pool, key=lambda y: ((x ^ y).bit_count(), y))
            entries[x] = best
            pool.remove(best)
    else:
        raise ValueError(f"unknown onto strategy {strategy!r}")

    return TruthTable(n=table.n, m=table.m, entries=entries)


def prepare_bijection(table: PlaTable) -> tuple[TruthTable, RttResult]:
    """Full preprocessing chain from a cube list to a complete bijection."""
    flat = assign_dont_cares(expand(table))
    rtt = make_one_to_one(to_truth_table(flat))
    onto = make_onto(rtt.table)
    return onto, rtt


# ---------------------------------------------------------------------------
# word normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizedWords:
    """Angle representations of a list of data words.

    ``values`` holds one angle per word in [0, 2*pi).  For the float-like
    scheme the angle is the significand (hidden-bit adjusted when that
    option is on) and ``exponents`` carries the per-word shift counts.
    """

    scheme: str
    width: int
    values: tuple[float, ...]
    f_norm: float | None = None
    aliased: bool = False
    significands: tuple[float, ...] | None = None
    exponents: tuple[int, ...] | None = None
    z_max: int | None = None
    hidden_bit: bool = False

    def reconstruct(self, j: int) -> float:
        """Recover the fixed-point value of word j (exact, no rounding).

        Defined for the fixed-point and float-like schemes.  For float-like
        words the identity S * 2**(-E) holds bit-exactly, and an exponent
        equal to the word width marks the all-zero word.
        """
        if self.scheme == "fixedpoint01" or self.scheme == "fixedpoint04":
            return self.values[j]
        if self.scheme == "floatlike":
            assert self.significands is not None and self.exponents is not None
            e = self.exponents[j]
            if e == self.width:
                return 0.0
            s = self.significands[j]
            return s * 2.0 ** (-e)
        raise ValueError(f"reconstruct is undefined for scheme {self.scheme!r}")


def _coerce_words(words, width: int | None) -> tuple[list[int], int | None]:
    if len(words) == 0:
        raise EmptyInput("no words to normalize")
    if all(isinstance(word, str) for word in words):
        widths = {len(word) for word in words}
        if len(widths) != 1:
            raise WidthMismatch("words have mixed widths")
        inferred = widths.pop()
        if width is not None and width != inferred:
            raise WidthMismatch(f"declared width {width} but words are {inferred} bits")
        return [int(word, 2) for word in words], inferred
    values = [int(word) for word in words]
    if any(value < 0 for value in values):
        raise ValueError("words must be non-negative")
    if width is not None:
        limit = 1 << width
        if any(value >= limit for value in values):
            raise WidthMismatch(f"word does not fit in {width} bits")
    return values, width


def normalize(
    words,
    scheme: str,
    width: int | None = None,
    strict_halfopen: bool = False,
    hidden_bit: bool = False,
) -> NormalizedWords:
    """Map data words onto rotation angles.

    Schemes:

    * ``factor`` scales by 2*pi / max(word), so the largest word lands on
      2*pi, which is the same angle as 0.  That aliasing is kept for
      compatibility but warned about; ``strict_halfopen`` divides by
      max+1 instead and keeps every word distinct.
    * ``fixedpoint01`` reads the word as 0.b1 b2 ... in [0, 1).
    * ``fixedpoint04`` reads the word as b1 b0 . b-1 ... in [0, 4).
    * ``floatlike`` left-shifts each word past its z leading zeros, stores
      the shifted word read as fixedpoint04 (significand S in [2, 4)) and
      the shift count as an integer exponent E, so S * 2**-E reproduces the
      fixedpoint04 reading exactly.  ``hidden_bit`` drops the guaranteed
      leading 1 from the stored significand angle (subtracting its place
      value of 2) and reinserting it on reconstruction.
    """
    ints, inferred = _coerce_words(words, width)

    if scheme == "factor":
        v_max = max(ints)
        if v_max == 0:
            raise AllZero("factor normalization with all-zero words")
        if strict_halfopen:
            f_norm = TWO_PI / (v_max + 1)
            return NormalizedWords(
                scheme=scheme, width=inferred or 0,
                values=tuple(v * f_norm for v in ints), f_norm=f_norm,
            )
        f_norm = TWO_PI / v_max
        warnings.warn(
            "factor normalization maps the largest word onto 2*pi, which is "
            "the same angle as 0; pass strict_halfopen=True to avoid this"
        )
        vals = tuple(0.0 if v == v_max else v * f_norm for v in ints)
        return NormalizedWords(
            scheme=scheme, width=inferred or 0, values=vals,
            f_norm=f_norm, aliased=True,
        )

    if inferred is None:
        raise WidthMismatch(f"scheme {scheme!r} needs a word width for integer input")
    m = inferred

    if scheme == "fixedpoint01":
        scale = 1 << m
        return NormalizedWords(scheme=scheme, width=m, values=tuple(v / scale for v in ints))

    if scheme == "fixedpoint04":
        if m < 2:
            raise WidthMismatch("fixedpoint04 needs at least 2 bits")
        scale = 1 << (m - 2)
        return NormalizedWords(scheme=scheme, width=m, values=tuple(v / scale for v in ints))

    if scheme == "floatlike":
        if m < 3:
            raise WidthMismatch("floatlike needs at least 3 bits")
        scale = 1 << (m - 2)
        sigs: list[float] = []
        exps: list[int] = []
        for v in ints:
            if v == 0:
                sigs.append(0.0)
                exps.append(m)  # exponent == width marks the zero word
                continue
            z = m - v.bit_length()
            sigs.append((v << z) / scale)
            exps.append(z)
        z_max = max(exps)
        if hidden_bit:
            stored = tuple(s - 2.0 if s else 0.0 for s in sigs)
        else:
            stored = tuple(sigs)
        return NormalizedWords(
            scheme=scheme, width=m, values=stored,
            significands=tuple(sigs), exponents=tuple(exps),
            z_max=z_max, hidden_bit=hidden_bit,
        )

    raise ValueError(f"unknown normalization scheme {scheme!r}")


# ---------------------------------------------------------------------------
# probability mass functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pmf:
    """A probability mass function over a power-of-two number of bins."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        k = len(self.probs)
        if k == 0 or k & (k - 1):
            raise NotPowerOfTwo(f"{k} bins is not a power of two")

    @property
    def num_qubits(self) -> int:
        return (len(self.probs) - 1).bit_length()

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, i: int) -> float:
        return self.probs[i]


def normalize_pmf(bins, mode: str = "amplitude") -> Pmf:
    """Turn raw bin heights into a distribution.

    ``amplitude`` squares each bin before normalizing (heights are read as
    amplitudes); ``probability`` divides by the plain sum.  The result sums
    to 1 within 1e-12.
    """
    heights = [float(b) for b in bins]
    if not heights:
        raise EmptyInput("no bins")
    if not all(0 <= h < math.inf for h in heights):  # also false for NaN
        raise ValueError("bin heights must be finite and non-negative")
    k = len(heights)
    if k & (k - 1):
        raise NotPowerOfTwo(f"{k} bins is not a power of two")
    if mode == "amplitude":
        weights = [h * h for h in heights]
    elif mode == "probability":
        weights = heights
    else:
        raise ValueError(f"unknown mode {mode!r}")
    try:
        total = math.fsum(weights)
    except OverflowError:  # finite weights whose exact sum is past the float range
        total = math.inf
    if total == math.inf:  # also a height whose square overflows
        raise ValueError("bin heights are too large: their total overflows a float")
    if total == 0.0:
        raise AllZero("all bins are zero")
    probs = [wt / total for wt in weights]
    # fsum keeps the residual far below the documented 1e-12 budget
    assert abs(math.fsum(probs) - 1.0) <= 1e-12
    return Pmf(probs=tuple(probs))
