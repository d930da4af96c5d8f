"""Reading and writing two-level switching-function tables.

The accepted format is line oriented.  ``.i`` and ``.o`` declare the input
and output field widths and must appear before the first cube.  Each cube
row holds an input field over ``{0, 1, -}`` and an output field over the
same alphabet, either separated by whitespace or written as one contiguous
word of length n+m.  ``-`` in an input field means the row covers both
values of that variable; ``-`` in an output field is a don't-care.  ``~``
and ``2`` are tolerated synonyms for ``-`` on input since files in the wild
use all three.  ``#`` starts a comment, ``.p`` declares a product count
that is checked but not trusted, ``.type`` is kept as an opaque tag, and
``.e``/``.end`` terminates the listing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .errors import BadCube, ConflictingRows, MalformedDirective

_DASH_SYNONYMS = str.maketrans({"~": "-", "2": "-"})
_INPUT_SYMBOLS = frozenset("01-")
_OUTPUT_SYMBOLS = frozenset("01-")


@dataclass(frozen=True)
class PlaTable:
    """A cube list with n input columns and m output columns."""

    n: int
    m: int
    rows: tuple[tuple[str, str], ...]
    declared_products: int | None = field(default=None, compare=False)
    type_tag: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.n <= 0 or self.m <= 0:
            raise MalformedDirective(f"widths must be positive, got .i {self.n} .o {self.m}")
        for ins, outs in self.rows:
            if len(ins) != self.n or len(outs) != self.m:
                raise BadCube(f"cube {ins} {outs} does not match .i {self.n} .o {self.m}")
            if not set(ins) <= _INPUT_SYMBOLS or not set(outs) <= _OUTPUT_SYMBOLS:
                raise BadCube(f"cube {ins} {outs} contains symbols outside 0/1/-")


def _check_conflicts(rows: tuple[tuple[str, str], ...]) -> None:
    """Reject fully specified rows that disagree on a specified output bit."""
    seen: dict[str, str] = {}
    for ins, outs in rows:
        if "-" in ins:
            continue
        prev = seen.get(ins)
        if prev is None:
            seen[ins] = outs
            continue
        for a, b in zip(prev, outs):
            if a != "-" and b != "-" and a != b:
                raise ConflictingRows(f"input {ins} maps to both {prev} and {outs}")
        # keep the more specified bits for later comparisons
        seen[ins] = "".join(b if a == "-" else a for a, b in zip(prev, outs))


def parse_pla(text: str) -> PlaTable:
    """Parse a table from text.  See the module docstring for the dialect."""
    n: int | None = None
    m: int | None = None
    declared: int | None = None
    type_tag: str | None = None
    rows: list[tuple[str, str]] = []
    ended = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or ended:
            continue
        if line.startswith("."):
            parts = line.split()
            key = parts[0]
            if key == ".i" or key == ".o":
                if len(parts) != 2 or not parts[1].isdigit():
                    raise MalformedDirective(f"line {lineno}: bad {key} directive: {line!r}")
                if rows:
                    raise MalformedDirective(f"line {lineno}: {key} after first cube")
                if key == ".i":
                    n = int(parts[1])
                else:
                    m = int(parts[1])
            elif key == ".p":
                if len(parts) != 2 or not parts[1].isdigit():
                    raise MalformedDirective(f"line {lineno}: bad .p directive: {line!r}")
                declared = int(parts[1])
            elif key == ".type":
                if len(parts) != 2:
                    raise MalformedDirective(f"line {lineno}: bad .type directive: {line!r}")
                type_tag = parts[1]
            elif key in (".e", ".end"):
                ended = True
            elif key in (".ilb", ".ob"):
                continue  # label lines carry no function content
            else:
                warnings.warn(f"line {lineno}: ignoring unknown directive {key}")
            continue

        if n is None or m is None:
            raise MalformedDirective(f"line {lineno}: cube before .i/.o declarations")

        body = line.translate(_DASH_SYNONYMS)
        tokens = body.split()
        if len(tokens) == 1:
            word = tokens[0]
            if len(word) != n + m:
                raise BadCube(f"line {lineno}: contiguous cube of width {len(word)}, want {n + m}")
            ins, outs = word[:n], word[n:]
        elif len(tokens) == 2:
            ins, outs = tokens
        else:
            joined = "".join(tokens)
            if len(joined) != n + m:
                raise BadCube(f"line {lineno}: cannot split cube {line!r}")
            ins, outs = joined[:n], joined[n:]
        if len(ins) != n or len(outs) != m:
            raise BadCube(f"line {lineno}: cube {ins} {outs} does not match .i {n} .o {m}")
        if not set(ins) <= _INPUT_SYMBOLS or not set(outs) <= _OUTPUT_SYMBOLS:
            raise BadCube(f"line {lineno}: illegal symbol in cube {line!r}")
        rows.append((ins, outs))

    if n is None or m is None:
        raise MalformedDirective("missing .i or .o declaration")
    if declared is not None and declared != len(rows):
        warnings.warn(f".p declares {declared} products but {len(rows)} rows were read")

    frozen = tuple(rows)
    _check_conflicts(frozen)
    return PlaTable(n=n, m=m, rows=frozen, declared_products=declared, type_tag=type_tag)


def write_pla(table: PlaTable) -> str:
    """Serialize a table in the space-separated form.

    The emitted text is deterministic, so writing the same table twice gives
    byte-identical output and parse(write(t)) preserves n, m, and the rows.
    """
    lines = [f".i {table.n}", f".o {table.m}", f".p {len(table.rows)}"]
    if table.type_tag is not None:
        lines.append(f".type {table.type_tag}")
    lines.extend(f"{ins} {outs}" for ins, outs in table.rows)
    lines.append(".e")
    return "\n".join(lines) + "\n"
