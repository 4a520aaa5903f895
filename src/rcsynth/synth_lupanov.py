"""Ancilla-rich synthesis of arbitrary mappings f: Z_2^n -> Z_2^n.

The circuit is built from five stages: a conjunction bank over the first k
input lines (S1), one over the remaining n - k lines (S2), subset-XOR banks
over groups of at most s first-bank lines (S3), one line per coordinate
function assembled from group lines (S4), and the n output lines combining
the second bank with the coordinate lines (S5).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import PHI_REGISTRY
from .circuit import Circuit, Gate, ccnot, cnot, not_gate
from .errors import CapacityError, ParameterError
from .perm import BooleanMapping

DEFAULT_LINE_CAP = 1 << 20


class LineAllocator:
    """Hands out fresh ancilla line indices; lines are never reused."""

    def __init__(self, first_free: int, cap: int = DEFAULT_LINE_CAP):
        self._next = first_free
        self._cap = cap

    def take(self) -> int:
        if self._next >= self._cap:
            raise CapacityError(f"line allocator exhausted at {self._cap} lines")
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
    gate_counts: tuple[int, int, int, int, int]
    ancilla_counts: tuple[int, int, int, int, int]
    psi_waived: bool

    @property
    def total_gates(self) -> int:
        return sum(self.gate_counts)

    @property
    def total_ancillas(self) -> int:
        return sum(self.ancilla_counts)


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
    group_lines: tuple[int, ...], alloc: LineAllocator, zero_line: int
) -> tuple[list[Gate], dict[int, int]]:
    """Expose the XOR of every subset of the group lines (bit i of the subset
    mask selects group_lines[i]); the empty subset maps to the shared zero
    line and singletons map to the group lines themselves.

    Same halving recursion as the conjunction bank with each combine done by
    two CNOTs into a fresh line; combines where one half is empty reuse the
    other half's line, keeping the total under 2^(s+1).
    """
    if len(group_lines) < 1:
        raise ParameterError("xor bank needs at least one line")
    if len(set(group_lines)) != len(group_lines) or zero_line in group_lines:
        raise ParameterError("group lines must be distinct and exclude the zero line")
    gates: list[Gate] = []

    def build(lines: tuple[int, ...]) -> dict[int, int]:
        if len(lines) == 1:
            return {0: zero_line, 1: lines[0]}
        mid = (len(lines) + 1) // 2
        low = build(lines[:mid])
        high = build(lines[mid:])
        bank: dict[int, int] = {}
        for m_high in range(1 << (len(lines) - mid)):
            for m_low in range(1 << mid):
                mask = m_low | (m_high << mid)
                if m_low == 0:
                    bank[mask] = high[m_high]
                elif m_high == 0:
                    bank[mask] = low[m_low]
                else:
                    fresh = alloc.take()
                    gates.append(cnot(low[m_low], fresh))
                    gates.append(cnot(high[m_high], fresh))
                    bank[mask] = fresh
        return bank

    return gates, build(tuple(group_lines))


def choose_params(n: int) -> tuple[int, int, int]:
    """Parameters k = ceil(n / phi(n)) with phi(n) = n / (log2 n + 1), clamped
    so that s = n - 2k >= 1, and p = ceil(2^k / s)."""
    if n < 4:
        raise ParameterError(f"parameter selection needs n >= 4, got n={n}")
    phi = PHI_REGISTRY["lupanov"](n)
    k = math.ceil(n / phi)
    k = max(1, min(k, (n - 1) // 2))
    s = n - 2 * k
    p = math.ceil((1 << k) / s)
    return k, s, p


def _coordinate_support(f: BooleanMapping, k: int, i: int, j: int) -> int:
    """Mask over sigma in [0, 2^k) with bit sigma set iff output bit j of
    f(sigma | i << k) is 1."""
    support = 0
    for sigma in range(1 << k):
        if (f.images[sigma | (i << k)] >> j) & 1:
            support |= 1 << sigma
    return support


def synth_mapping(f: BooleanMapping, k: int, s: int) -> tuple[Circuit, StageReport]:
    """Synthesize a circuit realizing the arbitrary mapping f with ancillas.

    Stage budgets: L4 <= p n 2^(n-k) and L5 <= n 2^(n-k) with q5 = n output
    lines; all gates have at most two controls by construction.
    """
    n = f.n
    if not 1 <= k < n / 2:
        raise ParameterError(f"need 1 <= k < n/2, got k={k}, n={n}")
    if s != n - 2 * k:
        raise ParameterError(f"need s = n - 2k = {n - 2 * k}, got s={s}")
    p = math.ceil((1 << k) / s)
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
    zero_line = alloc.take()
    group_banks: list[dict[int, int]] = []
    group_ranges: list[tuple[int, int]] = []
    for t in range(p):
        start = t * s
        stop = min(start + s, 1 << k)
        lines = tuple(first_bank[sigma] for sigma in range(start, stop))
        bank_gates, bank = xor_bank(lines, alloc, zero_line)
        gates.extend(bank_gates)
        group_banks.append(bank)
        group_ranges.append((start, stop))
    close_stage()

    # S4: one line per coordinate function, XOR of its group restrictions.
    coordinate_lines: dict[tuple[int, int], int] = {}
    for i in range(1 << (n - k)):
        for j in range(n):
            support = _coordinate_support(f, k, i, j)
            picked = []
            for t, (start, stop) in enumerate(group_ranges):
                mask = (support >> start) & ((1 << (stop - start)) - 1)
                if mask:
                    picked.append(group_banks[t][mask])
            if not picked:
                coordinate_lines[(i, j)] = zero_line
            elif len(picked) == 1:
                coordinate_lines[(i, j)] = picked[0]
            else:
                fresh = alloc.take()
                gates.extend(cnot(line, fresh) for line in picked)
                coordinate_lines[(i, j)] = fresh
    close_stage()

    # S5: combine second-bank minterms with coordinate lines onto outputs.
    out_lines = tuple(alloc.take() for _ in range(n))
    for j in range(n):
        for i in range(1 << (n - k)):
            line = coordinate_lines[(i, j)]
            if line == zero_line:
                continue
            gates.append(ccnot(second_bank[i], line, out_lines[j]))
    close_stage()

    report = StageReport(
        k=k,
        s=s,
        p=p,
        gate_counts=tuple(b[0] - a[0] for a, b in zip(marks, marks[1:])),
        ancilla_counts=tuple(b[1] - a[1] for a, b in zip(marks, marks[1:])),
        psi_waived=(1 << k) / s < math.log2(n),
    )
    return Circuit(alloc.next_free, n, tuple(gates), out_lines), report
