"""Independent checker for circuit files written by the CLI.

It has its own reader for the circuit text and its own bit-parallel sweep, and
imports nothing from rcsynth, so a defect in the package cannot vouch for
itself here.  It also computes the output fingerprint: the SHA-256 of the
circuit text with `#` comment lines removed (the header echoes the input
path, which differs between checkouts).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

_ARITY = {"n": 1, "c": 2, "t": 3}


class OracleError(ValueError):
    """The circuit text is malformed or does not realize the target table."""


@dataclass(frozen=True)
class ParsedCircuit:
    m: int
    n: int
    outputs: tuple[int, ...]
    gates: list[tuple[tuple[int, ...], int]]


def fingerprint(text: str) -> str:
    body = "\n".join(
        line for line in text.splitlines() if not line.lstrip().startswith("#")
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def read_circuit(text: str) -> ParsedCircuit:
    header: list[list[str]] = []
    gates: list[tuple[tuple[int, ...], int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if len(header) < 3:
            header.append(fields)
            continue
        letter = fields[0]
        try:
            values = [int(tok) for tok in fields[1:]]
        except ValueError:
            raise OracleError(f"line {lineno}: non-integer gate argument") from None
        if letter in _ARITY:
            well_formed = len(values) == _ARITY[letter]
        else:
            well_formed = letter == "x" and len(values) >= 4
        if not well_formed:
            raise OracleError(f"line {lineno}: bad gate {raw!r}")
        controls, target = tuple(values[:-1]), values[-1]
        if target in controls or len(set(controls)) != len(controls):
            raise OracleError(f"line {lineno}: repeated line in gate {raw!r}")
        gates.append((controls, target))
    if len(header) < 3 or [h[0] for h in header] != ["lines", "inputs", "outputs"]:
        raise OracleError("missing `lines`, `inputs` or `outputs` header")
    try:
        m, n = int(header[0][1]), int(header[1][1])
        outputs = tuple(int(tok) for tok in header[2][1:])
    except (ValueError, IndexError):
        raise OracleError("malformed header") from None
    if not 1 <= n <= m or len(outputs) != n or len(set(outputs)) != n:
        raise OracleError(f"inconsistent header: m={m} n={n} outputs={outputs}")
    if any(not 0 <= v < m for v in outputs) or any(
        not 0 <= v < m for controls, target in gates for v in controls + (target,)
    ):
        raise OracleError(f"a line index is outside [0, {m})")
    return ParsedCircuit(m, n, outputs, gates)


def _input_column(i: int, n: int) -> int:
    """Bit w set iff bit i of w is set, for w in [0, 2^n), built from bytes."""
    size = 1 << n
    if size < 8:
        return sum(1 << w for w in range(size) if (w >> i) & 1)
    if i < 3:
        pattern = bytes([(0xAA, 0xCC, 0xF0)[i]])
    else:
        run = 1 << (i - 3)
        pattern = b"\x00" * run + b"\xff" * run
    return int.from_bytes(pattern * (size // 8 // len(pattern)), "little")


def _expected_columns(n: int, images: list[int]) -> list[int]:
    """Column j has bit w set iff bit j of images[w] is set."""
    bits = "".join(map(("{:0%db}" % n).format, images))
    return [int(bits[n - 1 - j :: n][::-1], 2) for j in range(n)]


def sweep(circuit: ParsedCircuit) -> list[int]:
    """Truth table of every line over all 2^n inputs, other lines starting at 0."""
    full = (1 << (1 << circuit.n)) - 1
    tables = [0] * circuit.m
    for i in range(circuit.n):
        tables[i] = _input_column(i, circuit.n)
    for controls, target in circuit.gates:
        fired = full
        for c in controls:
            fired &= tables[c]
        tables[target] ^= fired
    return tables


def check(text: str, n: int, images: list[int], clean_ancillas: bool) -> ParsedCircuit:
    """Raise OracleError unless the circuit realizes `images` on all 2^n
    inputs.  With clean_ancillas every non-output line must also end at 0,
    as basic-mode circuits return their helper lines."""
    circuit = read_circuit(text)
    if circuit.n != n:
        raise OracleError(f"circuit has n={circuit.n}, table has n={n}")
    tables = sweep(circuit)
    for j, want in enumerate(_expected_columns(n, images)):
        if tables[circuit.outputs[j]] != want:
            raise OracleError(f"output bit {j} differs from the table")
    if clean_ancillas:
        outputs = set(circuit.outputs)
        if any(tables[line] for line in range(circuit.m) if line not in outputs):
            raise OracleError("a helper line does not return to 0")
    return circuit
