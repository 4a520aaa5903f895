"""No-ancilla synthesis of even permutations from transposition blocks.

Each block takes one group of K independent transpositions (k = 2K moved
points) and conjugates it, gate by self-inverse gate, until it collapses to
a single generalized Toffoli.  Emitting the conjugators around the expanded
core gate realizes the block; concatenated blocks realize the permutation.
"""
from __future__ import annotations

from .bounds import block_upper
from .circuit import Circuit, Gate, GateCountReport, cnot, columns_of, count_gates, not_gate
from .errors import ContractError, ParameterError, ParityError
from .perm import Pair, Permutation, is_even, plain_transpositions, transposition_stream
from .toffoli import decompose_borrowed, decompose_clean


def _bit_positions(value: int) -> tuple[int, ...]:
    out = []
    while value:
        low = value & -value
        out.append(low.bit_length() - 1)
        value ^= low
    return tuple(out)


def _canonicalize(rows: list[int], n: int) -> tuple[list[Gate], Gate]:
    """Conjugate the block until its rows read 0, 1, ..., k-1 in the low
    log2 k columns with all high columns 1, at which point the block is the
    single gate with controls on lines log2 k .. n-1 and target 0.

    The rows are the block's moved points, pairwise distinct n-bit points;
    their count k must be one that `block_upper(n, k)` admits."""
    k = len(rows)
    if len(set(rows)) != k:
        raise ParameterError("rows must be pairwise distinct")
    lgk = k.bit_length() - 1
    if any(not 0 <= r < (1 << n) for r in rows):
        raise ParameterError("rows must be n-bit points")
    conjugators: list[Gate] = []

    def conjugate(gate: Gate) -> None:
        nonlocal rows
        conjugators.append(gate)
        rows = [gate.apply_to_bits(r) for r in rows]

    # Zero every column that repeats an earlier one; first occurrences stay.
    # cnot(kept, j) zeroes column j and leaves the others as they were, so
    # the columns of the rows as given serve for the whole pass.
    kept: dict[int, int] = {}
    for j, pattern in enumerate(columns_of(rows, n)):
        if pattern == 0:
            continue
        if pattern in kept:
            conjugate(cnot(kept[pattern], j))
        else:
            kept[pattern] = j

    # Clear the first row with NOTs on its set columns.
    for j in _bit_positions(rows[0]):
        conjugate(not_gate(j))

    # Row r must become the value r.  Rows are pairwise distinct throughout
    # (conjugation permutes points), which keeps finished rows untouched.
    for r in range(1, k):
        value = rows[r]
        if value == r:
            continue
        if value >> lgk == 0:
            # No high bit available: lift the row into the spill column lgk.
            conjugate(Gate(_bit_positions(value), lgk))
            value = rows[r]
        j = lgk + ((value >> lgk) & -(value >> lgk)).bit_length() - 1
        for jp in _bit_positions((value ^ r) & ~(1 << j)):
            conjugate(cnot(j, jp))
        conjugate(Gate(_bit_positions(r), j))

    # Set every high column to all ones so a single gate matches the block.
    for j in range(lgk, n):
        conjugate(not_gate(j))
    high = ((1 << (n - lgk)) - 1) << lgk
    if rows != [r | high for r in range(k)]:
        raise ContractError(
            f"block canonicalized to rows {rows}, not r | {high} for r < {k}"
        )

    return conjugators, Gate(tuple(range(lgk, n)), 0)


def synth_block(
    group: tuple[Pair, ...],
    n: int,
    ancilla_lines: tuple[int, ...] = (),
) -> list[Gate]:
    """Gates realizing exactly the permutation of one group of independent
    transpositions on 2^n states: expanded conjugators, expanded core gate,
    the expanded conjugators again in reverse order.  With ancilla_lines the
    core gate is expanded through clean helpers instead of borrowed data
    lines.  `block_upper(n, k)` for the k = 2|group| moved points both
    checks k and caps the gate count."""
    rows = [x for t in group for x in t]
    budget = block_upper(n, len(rows))
    conjugators, core = _canonicalize(rows, n)

    def expand(gate: Gate, clean: bool = False) -> list[Gate]:
        controls, target = gate
        if len(controls) <= 2:
            return [gate]
        if clean and ancilla_lines:
            return decompose_clean(controls, target, ancilla_lines[: len(controls) - 2])
        used = set(controls) | {target}
        free = tuple(line for line in range(n) if line not in used) + ancilla_lines
        return decompose_borrowed(controls, target, free)

    parts = [expand(gate) for gate in conjugators]
    gates = [g for part in parts + [expand(core, clean=True)] + parts[::-1] for g in part]
    if len(gates) > budget:
        raise ContractError(f"block emitted {len(gates)} gates, budget {budget}")
    return gates


def _validate_block_size(k: int, n: int, ancilla_budget: int) -> None:
    block_upper(n, k)  # raises unless k is a power of two >= 2 with log2 k < n
    lgk = k.bit_length() - 1
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

    if k is not None:
        _validate_block_size(k, n, ancilla_budget)  # rejects every k on one line

    m = n + ancilla_budget
    ancilla_lines = tuple(range(n, m))

    if n == 1:
        # One line admits only the identity and the NOT.
        gates = [] if p.is_identity() else [not_gate(0)]
    else:
        if k is None:
            # The paper's phi-driven k clamps to 4 for every n <= 1999 (any
            # phi); the default passes _validate_block_size on every n >= 2.
            k = 4 if n >= 3 else 2
        if k == 2:
            groups = [(t,) for t in plain_transpositions(p)]
        else:
            groups = transposition_stream(p, k // 2)
        gates = [g for group in groups for g in synth_block(group, n, ancilla_lines)]
    circuit = Circuit(m, n, tuple(gates), tuple(range(n)))
    return circuit, count_gates(circuit)
