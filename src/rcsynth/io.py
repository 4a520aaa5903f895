"""Text file formats for circuits, permutations and mappings.

Circuit file (UTF-8, `#` starts a comment, blank lines ignored):

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

from typing import Iterable

from .circuit import Circuit, Gate, find_gate_fault
from .errors import FormatError
from .perm import BooleanMapping, Permutation

# Letter of the basis gate with i controls is GATE_LETTERS[i].
GATE_LETTERS = ("n", "c", "t")
_ARITY = {letter: i + 1 for i, letter in enumerate(GATE_LETTERS)}


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            out.append((lineno, stripped))
    return out


def _header_int(lines: list[tuple[int, str]], index: int, keyword: str) -> int:
    if index >= len(lines):
        raise FormatError(f"missing `{keyword}` header line")
    lineno, line = lines[index]
    parts = line.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise FormatError(f"line {lineno}: expected `{keyword} <value>`, got {line!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise FormatError(f"line {lineno}: `{keyword}` value is not an integer") from None


def parse_circuit(text: str) -> Circuit:
    lines = _content_lines(text)
    m = _header_int(lines, 0, "lines")
    n = _header_int(lines, 1, "inputs")
    if len(lines) < 3:
        raise FormatError("missing `outputs` header line")
    lineno, outline = lines[2]
    parts = outline.split()
    if parts[0] != "outputs":
        raise FormatError(f"line {lineno}: expected `outputs ...`, got {outline!r}")
    try:
        outputs = tuple(int(tok) for tok in parts[1:])
    except ValueError:
        raise FormatError(f"line {lineno}: outputs must be integers") from None

    gates = []
    for lineno, line in lines[3:]:
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
        index, reason = fault
        raise FormatError(f"line {lines[3 + index][0]}: {reason}") from None


def serialize_circuit(circuit: Circuit, header_comments: Iterable[str] = ()) -> str:
    out = [f"# {comment}" for comment in header_comments]
    out.append(f"lines {circuit.m}")
    out.append(f"inputs {circuit.n}")
    out.append("outputs " + " ".join(str(i) for i in circuit.outputs))
    for controls, target in circuit.gates:
        out.append(" ".join([GATE_LETTERS[len(controls)], *map(str, controls), str(target)]))
    return "\n".join(out) + "\n"


# Table type of each file keyword.
_TABLE_TYPES = {"perm": Permutation, "map": BooleanMapping}


def _parse_table(text: str, keyword: str | None = None) -> BooleanMapping:
    """Table of a `keyword` file; keyword None takes the file's own, which
    must be `perm` or `map`."""
    lines = _content_lines(text)
    if keyword is None:
        if not lines:
            raise FormatError("empty file")
        keyword = lines[0][1].split()[0]
        if keyword not in _TABLE_TYPES:
            raise FormatError(f"expected a `perm` or `map` file, found {keyword!r}")
    n = _header_int(lines, 0, keyword)
    values: list[int] = []
    for lineno, line in lines[1:]:
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
    keyword: str, n: int, values: Iterable[int], header_comments: Iterable[str]
) -> str:
    out = [f"# {comment}" for comment in header_comments]
    out.append(f"{keyword} {n}")
    values = list(values)
    for i in range(0, len(values), 16):
        out.append(" ".join(str(v) for v in values[i : i + 16]))
    return "\n".join(out) + "\n"


def serialize_permutation(p: Permutation, header_comments: Iterable[str] = ()) -> str:
    return _serialize_table("perm", p.n, p.images, header_comments)


def serialize_mapping(f: BooleanMapping, header_comments: Iterable[str] = ()) -> str:
    return _serialize_table("map", f.n, f.images, header_comments)
