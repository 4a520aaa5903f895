"""Ancilla-rich synthesis of arbitrary mappings f: Z_2^n -> Z_2^n.

The circuit is built from four stages: a conjunction bank over the first k
input lines (S1), one over the remaining n - k lines (S2), subset-XOR banks
over groups of at most s first-bank lines (S3), and the n output lines (S4),
each the XOR of 2-CNOTs of a second-bank line with a group line.  The
ancilla count depends only on n and k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import MAX_LINES, Circuit, Gate, ccnot, cnot, not_gate
from .errors import CapacityError, ParameterError
from .perm import BooleanMapping


class LineAllocator:
    """Hands out fresh ancilla line indices; lines are never reused."""

    def __init__(self, first_free: int):
        self._next = first_free

    def take(self) -> int:
        if self._next >= MAX_LINES:
            raise CapacityError(f"line allocator exhausted at {MAX_LINES} lines")
        line = self._next
        self._next += 1
        return line

    @property
    def next_free(self) -> int:
        return self._next


@dataclass(frozen=True)
class StageReport:
    """Per-stage gate and ancilla accounting plus the chosen parameters.
    psi_waived is set when the growth condition 2^k / s >= log2 n fails;
    the circuit is built either way."""

    k: int
    s: int
    p: int
    gate_counts: tuple[int, int, int, int]
    ancilla_counts: tuple[int, int, int, int]
    psi_waived: bool


def conjunction_gate_count(v: int) -> int:
    """2v + C(v) with C(1) = 0 and C(v) = 2^v + C(ceil(v/2)) + C(floor(v/2))."""

    def c(v: int) -> int:
        if v == 1:
            return 0
        return (1 << v) + c((v + 1) // 2) + c(v // 2)

    return 2 * v + c(v)


def conjunction_bank(
    var_lines: tuple[int, ...], alloc: LineAllocator
) -> tuple[list[Gate], dict[int, int]]:
    """Expose x_0^{a_0} & ... & x_{v-1}^{a_v-1} for every sign assignment a
    (bit i of a chooses x_i itself over its negation).

    One negation line per variable, then banks over both halves combined
    pairwise with one 2-CNOT each; gate count is exactly 2v + C(v).
    """
    v = len(var_lines)
    if v < 1:
        raise ParameterError("conjunction bank needs at least one variable")
    if len(set(var_lines)) != v:
        raise ParameterError("variable lines must be distinct")
    gates: list[Gate] = []
    negated: dict[int, int] = {}
    for line in var_lines:
        fresh = alloc.take()
        gates += [not_gate(fresh), cnot(line, fresh)]
        negated[line] = fresh

    def build(lines: tuple[int, ...]) -> dict[int, int]:
        if len(lines) == 1:
            return {1: lines[0], 0: negated[lines[0]]}
        mid = (len(lines) + 1) // 2
        low = build(lines[:mid])
        high = build(lines[mid:])
        bank: dict[int, int] = {}
        for a_high in range(1 << (len(lines) - mid)):
            for a_low in range(1 << mid):
                fresh = alloc.take()
                gates.append(ccnot(low[a_low], high[a_high], fresh))
                bank[a_low | (a_high << mid)] = fresh
        return bank

    return gates, build(tuple(var_lines))


def xor_bank(
    group_lines: tuple[int, ...], alloc: LineAllocator
) -> tuple[list[Gate], dict[int, int]]:
    """Expose the XOR of every nonempty subset of the group lines (bit i of
    the subset mask selects group_lines[i]); singletons map to the group
    lines themselves.

    Same halving recursion as the conjunction bank with each combine of two
    nonempty halves done by two CNOTs into a fresh line, so s lines take
    2^s - 1 - s fresh lines and twice as many gates.
    """
    if len(group_lines) < 1:
        raise ParameterError("xor bank needs at least one line")
    if len(set(group_lines)) != len(group_lines):
        raise ParameterError("group lines must be distinct")
    gates: list[Gate] = []

    def build(lines: tuple[int, ...]) -> dict[int, int]:
        if len(lines) == 1:
            return {1: lines[0]}
        mid = (len(lines) + 1) // 2
        low = build(lines[:mid])
        high = build(lines[mid:])
        bank = dict(low)
        for m_high, high_line in high.items():
            bank[m_high << mid] = high_line
            for m_low, low_line in low.items():
                fresh = alloc.take()
                gates.extend((cnot(low_line, fresh), cnot(high_line, fresh)))
                bank[m_low | (m_high << mid)] = fresh
        return bank

    return gates, build(tuple(group_lines))


def choose_params(n: int) -> int:
    """Bank width k = ceil(log2 n) + 1, which is ceil(n / phi(n)) with
    phi(n) = n / (log2 n + 1), clamped so that s = n - 2k >= 1."""
    if n < 3:
        raise ParameterError(
            f"lupanov mode needs n >= 3, got n={n}: n = 1 and n = 2 admit no k "
            "with 1 <= k < n/2"
        )
    return min((n - 1).bit_length() + 1, (n - 1) // 2)


def _coordinate_support(f: BooleanMapping, k: int, i: int, j: int) -> int:
    """Mask over sigma in [0, 2^k) with bit sigma set iff output bit j of
    f(sigma | i << k) is 1."""
    support = 0
    for sigma in range(1 << k):
        if (f.images[sigma | (i << k)] >> j) & 1:
            support |= 1 << sigma
    return support


def synth_mapping(f: BooleanMapping, k: int) -> tuple[Circuit, StageReport]:
    """Synthesize a circuit realizing the arbitrary mapping f with ancillas,
    from banks over k and n - k variables and p = ceil(2^k / s) groups of at
    most s = n - 2k first-bank lines.

    Output stage budget: L4 <= p n 2^(n-k), one 2-CNOT per nonzero group
    restriction of each coordinate function, with q4 = n output lines; all
    gates have at most two controls by construction.
    """
    n = f.n
    if not 1 <= k < n / 2:
        raise ParameterError(f"need 1 <= k < n/2, got k={k}, n={n}")
    s = n - 2 * k
    alloc = LineAllocator(n)
    gates: list[Gate] = []
    marks = [(0, n)]  # (gates, next free line) at each stage boundary

    def close_stage() -> None:
        marks.append((len(gates), alloc.next_free))

    # S1: conjunctions of the first k input variables.
    bank_gates, first_bank = conjunction_bank(tuple(range(k)), alloc)
    gates.extend(bank_gates)
    close_stage()

    # S2: conjunctions of the remaining n - k input variables.
    bank_gates, second_bank = conjunction_bank(tuple(range(k, n)), alloc)
    gates.extend(bank_gates)
    close_stage()

    # S3: subset-XOR bank per group of at most s first-bank lines.
    groups: list[tuple[int, int, dict[int, int]]] = []  # (start, width, bank)
    for start in range(0, 1 << k, s):
        lines = tuple(first_bank[sigma] for sigma in range(start, min(start + s, 1 << k)))
        bank_gates, bank = xor_bank(lines, alloc)
        gates.extend(bank_gates)
        groups.append((start, len(lines), bank))
    close_stage()

    # S4: m_i & f_ij is the XOR over groups t of m_i & (f_ij restricted to
    # group t), so each nonzero restriction is one 2-CNOT onto output j.
    out_lines = tuple(alloc.take() for _ in range(n))
    for j in range(n):
        for i in range(1 << (n - k)):
            support = _coordinate_support(f, k, i, j)
            for start, width, bank in groups:
                mask = (support >> start) & ((1 << width) - 1)
                if mask:
                    gates.append(ccnot(second_bank[i], bank[mask], out_lines[j]))
    close_stage()

    report = StageReport(
        k=k,
        s=s,
        p=len(groups),  # ceil(2^k / s)
        gate_counts=tuple(b[0] - a[0] for a, b in zip(marks, marks[1:])),
        ancilla_counts=tuple(b[1] - a[1] for a, b in zip(marks, marks[1:])),
        psi_waived=(1 << k) / s < math.log2(n),
    )
    return Circuit(alloc.next_free, n, tuple(gates), out_lines), report
