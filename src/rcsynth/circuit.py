"""Gate and circuit model for reversible circuits over NOT, CNOT and 2-CNOT.

Conventions used everywhere in the package:

- lines are 0-indexed;
- a state is an integer whose bit j is the value on line j (line 0 is the
  least significant bit);
- a circuit has m lines, the first n carry the inputs, the remaining
  q = m - n are ancillas fixed to 0 on entry, and `outputs` names the n
  lines read back out, in order;
- a column holds one line over many inputs: bit x of column j is bit j of
  word x.  `columns_of` and `words_of` convert, and `_sweep` runs the gates
  over columns; the check after `synth` and `verify` (all 2^n inputs) and
  `simulate` (one input) run that one sweep.
"""
from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapacityError, FormatError
from .perm import BooleanMapping

DEFAULT_EXHAUSTIVE_CAP = 24
CAP_ENV_VAR = "RCSYNTH_CAP"
# Most lines a circuit may have; no synthesizer builds more.
MAX_LINES = 1 << 20


def resolve_cap() -> int:
    """Exhaustive-sweep cap: RCSYNTH_CAP, else 24."""
    env = os.environ.get(CAP_ENV_VAR)
    if env is None:
        return DEFAULT_EXHAUSTIVE_CAP
    try:
        return int(env)
    except ValueError:
        raise FormatError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None


class Gate(tuple):
    """One reversible element: flip `target` iff all `controls` are 1.

    No controls is a NOT, one a CNOT, two a 2-CNOT.  Three or more controls
    make a generalized gate, legal only as an in-memory intermediate inside
    `synth_block`; a `Circuit` holds basis gates only.  A gate is the pair
    (controls, target) with the controls in ascending order; which lines it
    may use is checked by the `Circuit` that holds it.
    """

    __slots__ = ()

    def __new__(cls, controls: Iterable[int], target: int) -> "Gate":
        return tuple.__new__(cls, (tuple(sorted(controls)), target))

    def __repr__(self) -> str:
        return f"Gate({self[0]!r}, {self[1]!r})"

    @property
    def controls(self) -> tuple[int, ...]:
        return self[0]

    @property
    def target(self) -> int:
        return self[1]

    def apply_to_bits(self, bits: int) -> int:
        controls, target = self
        for c in controls:
            if not (bits >> c) & 1:
                return bits
        return bits ^ (1 << target)


def not_gate(target: int) -> Gate:
    return Gate((), target)


def cnot(control: int, target: int) -> Gate:
    return Gate((control,), target)


def ccnot(c1: int, c2: int, target: int) -> Gate:
    return Gate((c1, c2), target)


def find_gate_fault(gates: Iterable[Gate], m: int) -> tuple[int, str] | None:
    """Index and reason of the first gate that is not a valid basis gate on
    m lines: more than two controls, a line index outside [0, m), a repeated
    control, or a target that is also a control.  None when every gate is
    valid."""
    for i, (controls, target) in enumerate(gates):
        if len(controls) > 2:
            return i, f"gate with {len(controls)} controls is outside the basis"
        if not 0 <= target < m:
            return i, f"target {target} out of range [0, {m})"
        if controls:
            if controls[0] < 0 or controls[-1] >= m:
                return i, f"controls {controls} out of range [0, {m})"
            if target in controls:
                return i, f"target {target} is also a control"
            if len(controls) == 2 and controls[0] == controls[1]:
                return i, f"duplicate control lines in {controls}"
    return None


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence over m lines with n inputs and q = m - n
    zero-initialized ancillas; `outputs` selects the result lines."""

    m: int
    n: int
    gates: tuple[Gate, ...]
    outputs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if self.n < 1 or self.m < self.n:
            raise ValueError(f"need m >= n >= 1, got m={self.m}, n={self.n}")
        if self.m > MAX_LINES:
            raise ValueError(f"{self.m} lines exceed the limit of {MAX_LINES}")
        if len(self.outputs) != self.n or len(set(self.outputs)) != self.n:
            raise ValueError(f"outputs must name {self.n} distinct lines")
        for line in self.outputs:
            if not 0 <= line < self.m:
                raise ValueError(f"output line {line} out of range [0, {self.m})")
        fault = find_gate_fault(self.gates, self.m)
        if fault is not None:
            raise ValueError(f"gate {fault[0]}: {fault[1]}")

    @property
    def q(self) -> int:
        return self.m - self.n

    def __len__(self) -> int:
        return len(self.gates)


@dataclass(frozen=True)
class GateCountReport:
    """Gate counts by kind; the total is len(circuit)."""

    nots: int
    cnots: int
    toffolis: int


def count_gates(circuit: Circuit) -> GateCountReport:
    by_arity = Counter(len(controls) for controls, _ in circuit.gates)
    return GateCountReport(nots=by_arity[0], cnots=by_arity[1], toffolis=by_arity[2])


def columns_of(words: Sequence[int], width: int) -> list[int]:
    """The width columns of a nonempty word list: bit x of column j is bit j
    of words[x].  Each word must fit in width bits."""
    # Last word first, so each column zipped off the bit strings reads from
    # its most significant bit.
    rows = [format(word, f"0{width}b") for word in reversed(words)]
    return [int("".join(bits), 2) for bits in zip(*rows)][::-1]


def words_of(columns: Sequence[int], count: int) -> tuple[int, ...]:
    """Inverse of columns_of: the count words whose bit j is bit x of
    columns[j].  Transposing a bit matrix twice gives it back."""
    return tuple(columns_of(columns, count))


def truth_table_masks(n: int) -> list[int]:
    """Bit-parallel input columns: mask i has bit w set iff bit i of w is set,
    for all w in [0, 2^n); the closed form of columns_of(range(2^n), n)."""
    size = 1 << n
    masks = []
    for i in range(n):
        period = 1 << (i + 1)
        block = ((1 << (1 << i)) - 1) << (1 << i)
        mask = block
        width = period
        while width < size:
            mask |= mask << width
            width *= 2
        masks.append(mask & ((1 << size) - 1))
    return masks


def _sweep(circuit: Circuit, input_tables: Sequence[int], full: int) -> list[int]:
    """Column per line after running the gates: lines 0..n-1 start as
    input_tables, the ancillas as 0, and full is the all-ones column that a
    NOT flips."""
    tables = list(input_tables) + [0] * circuit.q
    for controls, target in circuit.gates:
        fired = full
        for c in controls:
            fired &= tables[c]
        tables[target] ^= fired
    return tables


def simulate(circuit: Circuit, input_word: int) -> tuple[int, int]:
    """Run one input: place it on lines 0..n-1, zero the ancillas, apply the
    gates in order, and gather the output lines.  Returns (output, final
    m-line state)."""
    if not 0 <= input_word < (1 << circuit.n):
        raise ValueError(f"input {input_word} does not fit in {circuit.n} bits")
    lines = _sweep(circuit, columns_of([input_word], circuit.n), 1)
    (output,) = words_of([lines[line] for line in circuit.outputs], 1)
    (final,) = words_of(lines, 1)
    return output, final


def check_sweep_cap(n: int) -> None:
    """Raise CapacityError if a sweep over all 2^n inputs exceeds the cap."""
    cap = resolve_cap()
    if n > cap:
        raise CapacityError(f"realized_mapping over 2^{n} inputs exceeds cap {cap}")


def realized_mapping(circuit: Circuit) -> BooleanMapping:
    """The mapping the circuit realizes: simulate(w) gathered over all
    w < 2^n.  Capped on n, the size of the table being materialized."""
    check_sweep_cap(circuit.n)
    size = 1 << circuit.n
    tables = _sweep(circuit, truth_table_masks(circuit.n), (1 << size) - 1)
    images = words_of([tables[line] for line in circuit.outputs], size)
    return BooleanMapping(circuit.n, images)
