"""Shared helpers: seeded instance generators, every basis gate on m lines,
and independent simulators, gate-line writer, record splitter, circuit
parser and transposition product used as oracles against the package's own
evaluation, serialization and parsing paths."""
from __future__ import annotations

import re
from random import Random
from typing import Iterable

import pytest

from rcsynth import Circuit, Gate, Permutation


def run_bits(gates, bits: list[int]) -> list[int]:
    """Run gates with any number of controls over a list of line bits, in
    place: flip the target bit when every control bit is 1."""
    for controls, target in gates:
        if all(bits[c] == 1 for c in controls):
            bits[target] ^= 1
    return bits


def run_word(gates, word: int) -> int:
    """Run gates with any number of controls over one integer state whose
    bit j is line j: flip the target bit when every control bit is 1."""
    for controls, target in gates:
        if all(word >> c & 1 for c in controls):
            word ^= 1 << target
    return word


def naive_run(circuit: Circuit, w: int) -> tuple[int, int]:
    """Reference simulation of one input, written directly over bit lists so
    it shares no code with the package's truth-table sweep.  Returns
    (output, final m-line state), as simulate does."""
    bits = [(w >> i) & 1 for i in range(circuit.n)] + [0] * circuit.q
    run_bits(circuit.gates, bits)
    output = sum(bits[line] << j for j, line in enumerate(circuit.outputs))
    return output, sum(bit << line for line, bit in enumerate(bits))


def naive_mapping(circuit: Circuit) -> list[int]:
    """Reference image table: the output of naive_run on every input."""
    return [naive_run(circuit, w)[0] for w in range(1 << circuit.n)]


def sweep_tables(m: int, n: int, gates) -> list[int]:
    """Truth table per line over all 2^n assignments of lines 0..n-1, the
    other lines starting at 0.  Used to check bank lines wholesale."""
    size = 1 << n
    full = (1 << size) - 1
    tables = [0] * m
    for i in range(n):
        column = 0
        for w in range(size):
            column |= ((w >> i) & 1) << w
        tables[i] = column
    for controls, target in gates:
        fired = full
        for c in controls:
            fired &= tables[c]
        tables[target] ^= fired
    return tables


def all_basis_gates(m: int) -> list[Gate]:
    """Every NOT, CNOT and 2-CNOT on m lines."""
    gates = [Gate((), t) for t in range(m)]
    gates += [Gate((c,), t) for c in range(m) for t in range(m) if c != t]
    gates += [
        Gate((c1, c2), t)
        for c1 in range(m)
        for c2 in range(c1 + 1, m)
        for t in range(m)
        if t not in (c1, c2)
    ]
    return gates


def gate_line(gate) -> str:
    """The circuit-file line of one gate, written gate by gate."""
    controls, target = gate
    return " ".join(["nct"[len(controls)], *map(str, controls), str(target)])


def split_records(text: str) -> list[tuple[int, str]]:
    r"""(1-based line number, stripped content before any `#`) of each line
    with such content, the lines split at \r\n, \r or \n by a regex."""
    lines = re.split(r"\r\n|\r|\n", text)
    contents = ((i, line.split("#", 1)[0].strip()) for i, line in enumerate(lines, 1))
    return [(i, content) for i, content in contents if content]


# Argument count of each gate letter of a circuit file.
GATE_ARGS = {"n": 1, "c": 2, "t": 3}


def naive_circuit(text: str) -> Circuit | str:
    """The circuit in a circuit file whose three header records are well
    formed, or the message parse_circuit must raise: the first gate record
    that does not parse, else the first gate that is not a valid basis gate
    on m lines, each named by its line.  Built from split_records and one
    gate record at a time, with no line cache."""
    records = split_records(text)
    (m,), (n,), outputs = ([int(tok) for tok in line.split()[1:]] for _, line in records[:3])
    parsed = []
    for lineno, line in records[3:]:
        letter, *args = line.split()
        if letter not in GATE_ARGS:
            return f"line {lineno}: unknown gate kind {letter!r}"
        if len(args) != GATE_ARGS[letter]:
            return f"line {lineno}: `{letter}` takes {GATE_ARGS[letter]} arguments"
        try:
            *controls, target = [int(arg) for arg in args]
        except ValueError:
            return f"line {lineno}: gate arguments must be integers"
        parsed.append((lineno, tuple(sorted(controls)), target))
    for lineno, controls, target in parsed:
        if not 0 <= target < m:
            return f"line {lineno}: target {target} out of range [0, {m})"
        if any(not 0 <= c < m for c in controls):
            return f"line {lineno}: controls {controls} out of range [0, {m})"
        if target in controls:
            return f"line {lineno}: target {target} is also a control"
        if len(set(controls)) < len(controls):
            return f"line {lineno}: duplicate control lines in {controls}"
    return Circuit(m, n, [Gate(controls, target) for _, controls, target in parsed], outputs)


def transpositions_product(ts: Iterable[tuple[int, int]], n: int) -> Permutation:
    """Left-to-right product of transpositions (a, b) as a Permutation."""
    images = list(range(1 << n))
    for a, b in ts:
        images = [b if v == a else a if v == b else v for v in images]
    return Permutation(n, tuple(images))


def random_permutation(n: int, rng: Random) -> Permutation:
    images = list(range(1 << n))
    rng.shuffle(images)
    return Permutation(n, tuple(images))


def random_even_permutation(n: int, rng: Random) -> Permutation:
    from rcsynth.perm import is_even

    p = random_permutation(n, rng)
    if not is_even(p):
        images = list(p.images)
        images[0], images[1] = images[1], images[0]
        p = Permutation(n, tuple(images))
    return p


def random_circuit(m: int, length: int, rng: Random, n: int | None = None) -> Circuit:
    gates = []
    for _ in range(length):
        target = rng.randrange(m)
        others = [line for line in range(m) if line != target]
        count = rng.choice([0, 1, 2]) if m >= 3 else rng.choice([0, 1][: m])
        controls = tuple(rng.sample(others, count))
        gates.append(Gate(controls, target))
    n = m if n is None else n
    outputs = tuple(rng.sample(range(m), n))
    return Circuit(m, n, tuple(gates), outputs)


@pytest.fixture
def rng() -> Random:
    return Random(20240817)
