"""No-ancilla synthesis of even permutations from transposition blocks.

Each block takes one group of K independent transpositions (k = 2K moved
points) and conjugates it, gate by self-inverse gate, until it collapses to
a single generalized Toffoli.  Emitting the conjugators around the expanded
core gate realizes the block; concatenated blocks realize the permutation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import PHI_REGISTRY, block_upper
from .circuit import Circuit, Gate, GateCountReport, cnot, count_gates, not_gate
from .errors import ContractError, ParameterError, ParityError
from .perm import (
    Permutation,
    TranspositionGroup,
    is_even,
    plain_transpositions,
    transposition_stream,
)
from .toffoli import decompose_borrowed, decompose_clean


def _bit_positions(value: int) -> tuple[int, ...]:
    out = []
    while value:
        low = value & -value
        out.append(low.bit_length() - 1)
        value ^= low
    return tuple(out)


@dataclass
class BlockMatrix:
    """Moved points of a block as rows of bits; conjugation rewrites rows."""

    n: int
    rows: list[int]

    def __post_init__(self) -> None:
        k = len(self.rows)
        if k < 2 or k & (k - 1):
            raise ParameterError(f"row count {k} must be a power of two >= 2")
        if len(set(self.rows)) != k:
            raise ParameterError("rows must be pairwise distinct")
        if k.bit_length() - 1 >= self.n:
            raise ParameterError(f"log2({k}) must be below n={self.n}")
        if any(not 0 <= r < (1 << self.n) for r in self.rows):
            raise ParameterError("rows must be n-bit points")

    @property
    def k(self) -> int:
        return len(self.rows)

    def apply(self, gate: Gate) -> None:
        self.rows = [gate.apply_to_bits(r) for r in self.rows]

    def column(self, j: int) -> int:
        pattern = 0
        for i, row in enumerate(self.rows):
            pattern |= ((row >> j) & 1) << i
        return pattern


def choose_block_size(n: int, phi_id: str = "log2") -> int:
    """Block size k = 2^floor(log2 m) with m = log2 n - log2 log2 n -
    log2 phi(n), clamped to a power of two with 4 <= k, log2 k < n and
    k <= 2^n / 2."""
    if n < 4:
        raise ParameterError("block size selection needs n >= 4")
    phi = PHI_REGISTRY[phi_id](n)
    m = math.log2(n) - math.log2(math.log2(n)) - math.log2(phi)
    k = 1 if m < 1 else 1 << int(math.floor(math.log2(m)))
    k = max(4, k)
    while k.bit_length() - 1 >= n or k > (1 << n) // 2:
        k //= 2
    return k


def _canonicalize(rows: list[int], n: int) -> tuple[list[Gate], Gate, BlockMatrix]:
    """Conjugate the block until its matrix reads 0, 1, ..., k-1 in the low
    log2 k columns with all high columns 1, at which point the block is the
    single gate with controls on lines log2 k .. n-1 and target 0."""
    matrix = BlockMatrix(n, list(rows))
    k = matrix.k
    lgk = k.bit_length() - 1
    conjugators: list[Gate] = []

    def conjugate(gate: Gate) -> None:
        conjugators.append(gate)
        matrix.apply(gate)

    # Zero every column that repeats an earlier one; first occurrences stay.
    kept: dict[int, int] = {}
    for j in range(n):
        pattern = matrix.column(j)
        if pattern == 0:
            continue
        if pattern in kept:
            conjugate(cnot(kept[pattern], j))
        else:
            kept[pattern] = j
    d = len(kept)
    assert d >= lgk
    assert all(
        matrix.column(j) == 0 for j in range(n) if j not in kept.values()
    ), "a duplicate column survived dedup"

    # Clear the first row with NOTs on its set columns.
    for j in _bit_positions(matrix.rows[0]):
        conjugate(not_gate(j))
    assert matrix.rows[0] == 0

    # Row r must become the value r.  Rows are pairwise distinct throughout
    # (conjugation permutes points), which keeps finished rows untouched.
    for r in range(1, k):
        value = matrix.rows[r]
        if value == r:
            continue
        if value >> lgk == 0:
            # No high bit available: lift the row into the spill column lgk.
            conjugate(Gate(_bit_positions(value), lgk))
            value = matrix.rows[r]
        j = lgk + ((value >> lgk) & -(value >> lgk)).bit_length() - 1
        for jp in _bit_positions((value ^ r) & ~(1 << j)):
            conjugate(cnot(j, jp))
        conjugate(Gate(_bit_positions(r), j))
        assert matrix.rows[r] == r
        assert matrix.rows[:r] == list(range(r)), "an earlier row was disturbed"
    assert matrix.rows == list(range(k))

    # Set every high column to all ones so a single gate matches the block.
    for j in range(lgk, n):
        conjugate(not_gate(j))
    high = ((1 << (n - lgk)) - 1) << lgk
    assert matrix.rows == [r | high for r in range(k)]

    core = Gate(tuple(range(lgk, n)), 0)
    return conjugators, core, matrix


def synth_block(
    group: TranspositionGroup,
    n: int,
    ancilla_lines: tuple[int, ...] = (),
) -> list[Gate]:
    """Gates realizing exactly the permutation of one transposition group on
    2^n states: expanded conjugators, expanded core gate, conjugators again
    in reverse.  With ancilla_lines the core gate is expanded through clean
    helpers instead of borrowed data lines."""
    rows: list[int] = []
    for t in group.members:
        rows.extend(t.points)
    conjugators, core, _ = _canonicalize(rows, n)

    def expand(gate: Gate, clean: bool = False) -> list[Gate]:
        controls, target = gate
        if len(controls) <= 2:
            return [gate]
        if clean and ancilla_lines:
            return decompose_clean(controls, target, ancilla_lines[: len(controls) - 2])
        used = set(controls) | {target}
        free = tuple(line for line in range(n) if line not in used) + ancilla_lines
        return decompose_borrowed(controls, target, free)

    gates: list[Gate] = []
    for gate in conjugators:
        gates.extend(expand(gate))
    gates.extend(expand(core, clean=True))
    for gate in reversed(conjugators):
        gates.extend(expand(gate))

    budget = block_upper(n, len(rows))
    if len(gates) > budget:
        raise ContractError(f"block emitted {len(gates)} gates, budget {budget}")
    return gates


def _validate_block_size(k: int, n: int, ancilla_budget: int) -> None:
    if k < 2 or k & (k - 1):
        raise ParameterError(f"block size k={k} must be a power of two >= 2")
    lgk = k.bit_length() - 1
    if lgk >= n:
        raise ParameterError(f"block size k={k} needs log2 k < n={n}")
    if ancilla_budget == 0:
        # Borrowed expansion needs a line outside the gate: the core gate
        # (n - log2 k controls, target 0) leaves only lines 1..log2 k - 1
        # free, and the widest conjugator (log2 k controls) leaves
        # n - log2 k - 1.
        core_ok = n - lgk <= 2 or lgk >= 2
        conjugators_ok = lgk <= 2 or lgk <= n - 2
        if not (core_ok and conjugators_ok):
            raise ParameterError(
                f"k={k} on n={n} lines leaves no free line for gate "
                "expansion without ancillas"
            )


def synth_even_permutation(
    p: Permutation,
    k: int | None = None,
    ancilla_budget: int = 0,
    phi_id: str = "log2",
) -> tuple[Circuit, GateCountReport]:
    """Synthesize a circuit over NOT/CNOT/2-CNOT realizing p.

    With ancilla_budget 0 the circuit uses exactly n lines, which is possible
    for even p when n >= 4 and for any p when n <= 3.  With ancilla_budget
    n - 3 the core gates are expanded through clean helpers on n - 3 extra
    lines, which also admits odd p.
    """
    n = p.n
    if ancilla_budget not in (0, max(n - 3, 0)):
        raise ParameterError(f"ancilla budget must be 0 or n-3, got {ancilla_budget}")
    if n >= 4 and ancilla_budget == 0 and not is_even(p):
        raise ParityError(
            f"odd permutations on n={n} >= 4 lines need ancillas"
        )

    m = n + ancilla_budget
    ancilla_lines = tuple(range(n, m))
    outputs = tuple(range(n))

    if n == 1:
        # One line admits only the identity and the NOT.
        gates = [] if p.is_identity() else [not_gate(0)]
        circuit = Circuit(m, n, tuple(gates), outputs)
        return circuit, count_gates(circuit)

    if k is None:
        if n >= 4:
            k = choose_block_size(n, phi_id)
        elif n == 3:
            k = 4
        else:
            k = 2
    _validate_block_size(k, n, ancilla_budget)

    if k == 2:
        groups = [TranspositionGroup((t,)) for t in plain_transpositions(p)]
    else:
        groups = transposition_stream(p, k // 2)

    gates = []
    for group in groups:
        gates.extend(synth_block(group, n, ancilla_lines))
    circuit = Circuit(m, n, tuple(gates), outputs)
    return circuit, count_gates(circuit)
