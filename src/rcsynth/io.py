r"""Text file formats for circuits, permutations and mappings.

Lines end at \n, \r\n or \r; a `#` comment runs to the end of its line, and
blank lines are ignored.  Circuit file (UTF-8):

    lines <m>
    inputs <n>
    outputs <i_1> ... <i_n>
    n <t>                    NOT
    c <c> <t>                CNOT
    t <c1> <c2> <t>          2-CNOT

A `Circuit` holds basis gates only, so every circuit serializes.

Permutation file: ``perm <n>`` then 2^n integers forming a bijection on
[0, 2^n).  Mapping file: ``map <n>`` then 2^n integers in [0, 2^n).
"""
from __future__ import annotations

import re
from io import StringIO
from itertools import chain, islice
from typing import Iterable, Iterator

from .circuit import Circuit, Gate, find_gate_fault
from .errors import FormatError
from .perm import BooleanMapping, Permutation

# Letter of the basis gate with i controls is GATE_LETTERS[i].
GATE_LETTERS = ("n", "c", "t")
_ARITY = {letter: i + 1 for i, letter in enumerate(GATE_LETTERS)}


def _records(text: str) -> Iterator[tuple[int, str]]:
    """(line number, content) of each line with text outside its comment."""
    for lineno, line in enumerate(StringIO(text, newline=None), start=1):
        content = line.split("#", 1)[0].strip()
        if content:
            yield lineno, content


def _header(records: Iterator[tuple[int, str]], keyword: str, count: int | None) -> list[int]:
    """The `count` integers (any number if None) after `keyword` on the next record."""
    lineno, line = next(records, (0, ""))
    if not line:
        raise FormatError(f"missing `{keyword}` header line")
    head, *tokens = line.split()
    if head != keyword or count not in (None, len(tokens)):
        shape = "..." if count is None else "<value>"
        raise FormatError(f"line {lineno}: expected `{keyword} {shape}`, got {line!r}")
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        if count is None:
            raise FormatError(f"line {lineno}: {keyword} must be integers") from None
        raise FormatError(f"line {lineno}: `{keyword}` value is not an integer") from None


def parse_circuit(text: str) -> Circuit:
    records = _records(text)
    (m,) = _header(records, "lines", 1)
    (n,) = _header(records, "inputs", 1)
    outputs = _header(records, "outputs", None)
    gates = []
    for lineno, line in records:
        letter, *args = line.split()
        arity = _ARITY.get(letter)
        if arity is None:
            raise FormatError(f"line {lineno}: unknown gate kind {letter!r}")
        if len(args) != arity:
            raise FormatError(f"line {lineno}: `{letter}` takes {arity} arguments")
        try:
            values = [int(tok) for tok in args]
        except ValueError:
            raise FormatError(f"line {lineno}: gate arguments must be integers") from None
        gates.append(Gate(values[:-1], values[-1]))
    try:
        return Circuit(m, n, gates, outputs)
    except ValueError as exc:
        fault = find_gate_fault(gates, m)
        if fault is None:
            raise FormatError(str(exc)) from None
        lineno, _ = next(islice(_records(text), 3 + fault[0], None))
        raise FormatError(f"line {lineno}: {fault[1]}") from None


def _text(header_comments: Iterable[str], lines: list[str]) -> str:
    """`lines` under one `# ` line per line of each header comment."""
    comments = [f"# {line}" for c in header_comments for line in re.split(r"\r\n?|\n", c)]
    return "\n".join(comments + lines) + "\n"


def serialize_circuit(circuit: Circuit, header_comments: Iterable[str] = ()) -> str:
    out = [f"lines {circuit.m}", f"inputs {circuit.n}"]
    out.append("outputs " + " ".join(str(i) for i in circuit.outputs))
    for controls, target in circuit.gates:
        out.append(" ".join([GATE_LETTERS[len(controls)], *map(str, controls), str(target)]))
    return _text(header_comments, out)


# Table type of each file keyword.
_TABLE_TYPES = {"perm": Permutation, "map": BooleanMapping}


def _parse_table(text: str, keyword: str | None = None) -> BooleanMapping:
    """Table of a `keyword` file; keyword None takes the file's own, which
    must be `perm` or `map`."""
    records = _records(text)
    if keyword is None:
        first = next(records, None)
        if first is None:
            raise FormatError("empty file")
        keyword = first[1].split()[0]
        if keyword not in _TABLE_TYPES:
            raise FormatError(f"expected a `perm` or `map` file, found {keyword!r}")
        records = chain([first], records)
    (n,) = _header(records, keyword, 1)
    values: list[int] = []
    for lineno, line in records:
        for tok in line.split():
            try:
                values.append(int(tok))
            except ValueError:
                raise FormatError(f"line {lineno}: {tok!r} is not an integer") from None
    try:
        return _TABLE_TYPES[keyword](n, tuple(values))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def parse_permutation(text: str) -> Permutation:
    return _parse_table(text, "perm")


def parse_mapping(text: str) -> BooleanMapping:
    return _parse_table(text, "map")


def parse_spec_table(text: str) -> BooleanMapping:
    """Accept either a permutation or a mapping file, for verification."""
    return _parse_table(text)


def _serialize_table(
    keyword: str, n: int, values: tuple[int, ...], header_comments: Iterable[str]
) -> str:
    rows = (" ".join(map(str, values[i : i + 16])) for i in range(0, len(values), 16))
    return _text(header_comments, [f"{keyword} {n}", *rows])


def serialize_permutation(p: Permutation, header_comments: Iterable[str] = ()) -> str:
    return _serialize_table("perm", p.n, p.images, header_comments)


def serialize_mapping(f: BooleanMapping, header_comments: Iterable[str] = ()) -> str:
    return _serialize_table("map", f.n, f.images, header_comments)
