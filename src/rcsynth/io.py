r"""Text file formats for circuits, permutations and mappings.

Lines end at \n, \r\n or \r; a `#` comment runs to the end of its line, and
blank lines are ignored.  Every parser reads the text one line at a time, so
`circuit_inputs` stops at the `inputs` header.  Circuit file (UTF-8):

    lines <m>
    inputs <n>
    outputs <i_1> ... <i_n>
    n <t>                    NOT
    c <c> <t>                CNOT
    t <c1> <c2> <t>          2-CNOT

A `Circuit` holds basis gates only, so every circuit serializes.  Repeated
gate lines are parsed once: past the headers, the parser maps each raw line
(comment and line end included) to its gate, or to nothing for a blank or
comment-only line, and keeps every distinct raw line, so a repeat costs one
dict lookup and shares the gate of the first.  A lupanov circuit repeats
most of its lines (35,064 distinct of 105,628 at n = 16).  Memory grows with
the file: 300,000 distinct CNOTs, a file no synthesizer here writes, parse
in 0.75-0.95 s with a 78 MB peak on a 2-CPU Xeon.  On an error the records
are walked again, so its message names its line: first a record that does
not parse, then a gate that is not valid on m lines.  The serializer formats
each distinct gate once and writes its repeats by lookup: a `Circuit` holds
exact-typed gates only, so equal gates have equal lines.

Permutation file: ``perm <n>`` then 2^n integers forming a bijection on
[0, 2^n).  Mapping file: ``map <n>`` then 2^n integers in [0, 2^n).
"""
from __future__ import annotations

import re
from io import StringIO
from itertools import chain, islice
from typing import Iterable, Iterator

from .circuit import Circuit, find_gate_fault
from .errors import FormatError
from .perm import BooleanMapping, Permutation, _Memo

# Argument count of each gate letter: target plus 0, 1 or 2 controls.
_ARITY = {"n": 1, "c": 2, "t": 3}


def _records(text: str | StringIO) -> Iterator[tuple[int, str]]:
    """(line number, content) of each line with text outside its comment,
    read one line at a time: a caller that stops early splits no further
    lines, and no list of all the lines is ever built.  `text` may be a
    `StringIO(text, newline=None)` at its start, which a caller that stops
    early can go on reading."""
    lines = StringIO(text, newline=None) if isinstance(text, str) else text
    for lineno, line in enumerate(lines, 1):
        if "#" in line:
            line = line[: line.index("#")]
        content = line.strip()
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


def _parse_gate(lineno: int, line: str) -> tuple:
    """The gate on record `line`; `find_gate_fault` checks its lines."""
    words = line.split()
    letter = words[0]
    arity = _ARITY.get(letter)
    if arity is None:
        raise FormatError(f"line {lineno}: unknown gate kind {letter!r}")
    if len(words) != arity + 1:
        raise FormatError(f"line {lineno}: `{letter}` takes {arity} arguments")
    try:
        if arity == 3:
            a, b, target = int(words[1]), int(words[2]), int(words[3])
            return ((a, b) if a < b else (b, a)), target
        if arity == 2:
            return (int(words[1]),), int(words[2])
        return (), int(words[1])
    except ValueError:
        raise FormatError(f"line {lineno}: gate arguments must be integers") from None


def _raw_gate(raw: str) -> tuple | None:
    """The gate on raw line `raw`, or None for a blank or comment-only line;
    its parse errors say line 0."""
    line = raw[: raw.index("#")].strip() if "#" in raw else raw.strip()
    return _parse_gate(0, line) if line else None


def parse_circuit(text: str) -> Circuit:
    stream = StringIO(text, newline=None)
    records = _records(stream)
    (m,) = _header(records, "lines", 1)
    (n,) = _header(records, "inputs", 1)
    outputs = _header(records, "outputs", None)
    try:
        gates = list(filter(None, map(_Memo(_raw_gate).__getitem__, stream)))
        return Circuit(m, n, gates, outputs)
    except ValueError as exc:
        message = str(exc)
    # Walk the records outside the handler, so no error is chained: the
    # first that does not parse raises, then the first invalid gate.
    numbered = [(i, _parse_gate(i, line)) for i, line in islice(_records(text), 3, None)]
    for lineno, gate in numbered:
        fault = find_gate_fault((gate,), m)
        if fault is not None:
            raise FormatError(f"line {lineno}: {fault[1]}")
    raise FormatError(message)


def circuit_inputs(text: str) -> int:
    """n from the `inputs` header of a circuit file.  Only the lines up to
    that header are read: no gate line is split."""
    records = _records(text)
    _header(records, "lines", 1)
    return _header(records, "inputs", 1)[0]


def _text(header_comments: Iterable[str], lines: list[str]) -> str:
    """`lines` under one `# ` line per line of each header comment."""
    comments = [f"# {line}" for c in header_comments for line in re.split(r"\r\n?|\n", c)]
    return "\n".join(comments + lines) + "\n"


def _gate_line(gate: tuple) -> str:
    """The `n`, `c` or `t` line of a basis gate."""
    c, t = gate
    return f"t {c[0]} {c[1]} {t}" if len(c) == 2 else f"c {c[0]} {t}" if c else f"n {t}"


def serialize_circuit(circuit: Circuit, header_comments: Iterable[str] = ()) -> str:
    out = [f"lines {circuit.m}", f"inputs {circuit.n}"]
    out.append("outputs " + " ".join(str(i) for i in circuit.outputs))
    out += map(_Memo(_gate_line).__getitem__, circuit.gates)
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
