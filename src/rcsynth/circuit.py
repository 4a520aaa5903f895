"""Gate and circuit model for reversible circuits over NOT, CNOT and 2-CNOT.

A gate is the plain tuple (controls, target): it flips line `target` iff all
lines in `controls`, a tuple of distinct lines in ascending order, are 1.  No
controls is a NOT, one a CNOT, two a 2-CNOT; more make a generalized gate,
legal only inside basic synthesis.  A `Circuit` holds basis gates only and
rejects a gate of any other shape, naming its index.

Conventions used everywhere in the package:

- lines are 0-indexed;
- a state is an integer whose bit j is the value on line j (line 0 is the
  least significant bit);
- a circuit has m lines, the first n carry the inputs, the remaining
  q = m - n are ancillas fixed to 0 on entry, and `outputs` names the n
  lines read back out, in order;
- a column holds one line over many inputs: bit x of column j is bit j of
  word x.  `columns_of` and `words_of` convert, and `_sweep` runs the gates
  over columns, one XOR per gate of a column chosen by its arity (full, one
  control's column, or two controls' columns ANDed); the check after
  `synth` and `verify` (all 2^n inputs), `simulate` (one input) and the
  block check of basic synthesis (a block's moved points, the only user
  with three or more controls) run that one sweep.
"""
from __future__ import annotations

import os
from itertools import repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import CapacityError, FormatError
from .perm import BooleanMapping, _Value

DEFAULT_EXHAUSTIVE_CAP = 24
# Largest cap: `rand` and the verify sweep hold about 120 bytes per point
# (measured at n = 20), so 2^28 points take about 32 GiB.
MAX_CAP = 28
CAP_ENV_VAR = "RCSYNTH_CAP"
# Most lines a circuit may have; no synthesizer builds more.
MAX_LINES = 1 << 20


def resolve_cap() -> int:
    """Exhaustive-sweep cap: RCSYNTH_CAP, else 24.  A cap above MAX_CAP
    raises CapacityError before anything builds a table that large."""
    env = os.environ.get(CAP_ENV_VAR)
    if env is None:
        return DEFAULT_EXHAUSTIVE_CAP
    try:
        cap = int(env)
    except ValueError:
        raise FormatError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None
    if cap > MAX_CAP:
        raise CapacityError(f"{CAP_ENV_VAR}={cap} exceeds its ceiling {MAX_CAP}")
    return cap


def Gate(controls: Iterable[int], target: int) -> tuple[tuple[int, ...], int]:
    """The gate that flips `target` iff all `controls` are 1, controls sorted."""
    return tuple(sorted(controls)), target


def find_gate_fault(gates: Iterable[tuple], m: int) -> tuple[int, str] | None:
    """Index and reason of the first gate that is not a valid basis gate on
    m lines: not a tuple (controls, target) with tuple controls, more than
    two controls, a line that is not an int, a line outside [0, m), two
    controls out of ascending order, a repeated control, or a target that
    is also a control.  None when every gate is valid."""
    for i, gate in enumerate(gates):
        if type(gate) is not tuple or len(gate) != 2 or type(gate[0]) is not tuple:
            return i, f"{gate!r} is not a tuple (controls, target) with tuple controls"
        controls, target = gate
        if len(controls) > 2:
            return i, f"gate with {len(controls)} controls is outside the basis"
        if type(target) is not int or controls and not type(controls[0]) is type(controls[-1]) is int:
            return i, f"{gate!r} has a line that is not an int"
        if not 0 <= target < m:
            return i, f"target {target} out of range [0, {m})"
        if controls:
            if controls[0] > controls[-1]:
                return i, f"controls {controls} are not in ascending order"
            if controls[0] < 0 or controls[-1] >= m:
                return i, f"controls {controls} out of range [0, {m})"
            if target in controls:
                return i, f"target {target} is also a control"
            if len(controls) == 2 and controls[0] == controls[1]:
                return i, f"duplicate control lines in {controls}"
    return None


class Circuit(_Value):
    """Ordered gate sequence over m lines with n inputs and q = m - n
    zero-initialized ancillas; `outputs` selects the result lines.

    An immutable value: two circuits are equal when m, n, gates and outputs
    are.  Each distinct gate object is checked once, in order of first
    occurrence.  The parser shares one object among equal gates, and basic
    synthesis among most of its repeats, so a repeat costs no check; a gate
    that merely equals an earlier one (((True,), 2) after ((1,), 2)) is
    checked on its own.  A fault is looked up again in the full sequence, so
    the error names its first index."""

    __slots__ = _fields = ("m", "n", "gates", "outputs")

    def __init__(self, m: int, n: int, gates: Iterable[tuple], outputs: Iterable[int]) -> None:
        for name, value in zip(self._fields, (m, n, tuple(gates), tuple(outputs))):
            object.__setattr__(self, name, value)
        if type(m) is not int or type(n) is not int:
            raise ValueError(f"line counts m={m!r}, n={n!r} are not both ints")
        if self.n < 1 or self.m < self.n:
            raise ValueError(f"need m >= n >= 1, got m={self.m}, n={self.n}")
        if self.m > MAX_LINES:
            raise ValueError(f"{self.m} lines exceed the limit of {MAX_LINES}")
        if len(self.outputs) != self.n or len(set(self.outputs)) != self.n:
            raise ValueError(f"outputs must name {self.n} distinct lines")
        for line in self.outputs:
            if type(line) is not int:
                raise ValueError(f"output line {line!r} is not an int")
            if not 0 <= line < self.m:
                raise ValueError(f"output line {line} out of range [0, {self.m})")
        distinct = dict(zip(map(id, self.gates), self.gates)).values()
        if find_gate_fault(distinct, self.m) is not None:
            index, reason = find_gate_fault(self.gates, self.m)
            raise ValueError(f"gate {index}: {reason}")

    @property
    def q(self) -> int:
        return self.m - self.n

    def __len__(self) -> int:
        return len(self.gates)


class GateCountReport(NamedTuple):
    """Gate counts by kind; the total is len(circuit).  A named tuple, so
    immutable and equal to any tuple of the same three counts."""

    nots: int
    cnots: int
    toffolis: int


def count_gates(circuit: Circuit) -> GateCountReport:
    # One byte per gate, its control count: a Circuit holds basis gates only.
    arities = bytes(map(len, map(itemgetter(0), circuit.gates)))
    return GateCountReport(nots=arities.count(0), cnots=arities.count(1), toffolis=arities.count(2))


def columns_of(words: Sequence[int], width: int) -> list[int]:
    """The width columns of a nonempty word list: bit x of column j is bit j
    of words[x].  Each word must fit in width bits."""
    # Last word first, so each column zipped off the bit strings reads from
    # its most significant bit.
    rows = map(format, reversed(words), repeat(f"0{width}b"))
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


def _sweep(gates: Iterable[tuple], tables: list[int], full: int) -> list[int]:
    """Run the gates over tables, one column per line, in place and return
    it; full is the all-ones column that a NOT flips.  Each basis gate is
    one XOR into its target: of full, of its control's column, or of the
    AND of its two controls' columns.  Only the block check of basic
    synthesis sends gates with three or more controls, whose columns are
    ANDed in a loop."""
    for controls, target in gates:
        arity = len(controls)
        if arity == 2:
            tables[target] ^= tables[controls[0]] & tables[controls[1]]
        elif not arity:
            tables[target] ^= full
        elif arity == 1:
            tables[target] ^= tables[controls[0]]
        else:
            fired = full
            for c in controls:
                fired &= tables[c]
            tables[target] ^= fired
    return tables


def simulate(circuit: Circuit, input_word: int) -> tuple[int, int]:
    """Run one input: place it on lines 0..n-1, zero the ancillas, apply the
    gates in order, and gather the output lines.  Returns (output, final
    m-line state).  A word outside [0, 2^n) raises FormatError."""
    if not 0 <= input_word < (1 << circuit.n):
        raise FormatError(f"input {input_word} does not fit in {circuit.n} bits")
    lines = _sweep(circuit.gates, columns_of([input_word], circuit.n) + [0] * circuit.q, 1)
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
    tables = truth_table_masks(circuit.n) + [0] * circuit.q
    _sweep(circuit.gates, tables, (1 << size) - 1)
    images = words_of([tables[line] for line in circuit.outputs], size)
    return BooleanMapping(circuit.n, images)
