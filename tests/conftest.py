"""Shared helpers: seeded instance generators and an independent simulator
used as the oracle against the package's own evaluation paths."""
from __future__ import annotations

from random import Random

import pytest

from rcsynth import Circuit, Gate, Permutation


def naive_mapping(circuit: Circuit) -> list[int]:
    """Reference simulation, written directly over bit lists so it shares no
    code with the package's integer and truth-table paths."""
    images = []
    for w in range(1 << circuit.n):
        bits = [(w >> i) & 1 for i in range(circuit.n)] + [0] * circuit.q
        for gate in circuit.gates:
            if all(bits[c] == 1 for c in gate.controls):
                bits[gate.target] ^= 1
        images.append(sum(bits[line] << j for j, line in enumerate(circuit.outputs)))
    return images


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
    for gate in gates:
        fired = full
        for c in gate.controls:
            fired &= tables[c]
        tables[gate.target] ^= fired
    return tables


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
