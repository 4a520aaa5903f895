"""Ancilla-rich synthesis of arbitrary mappings f: Z_2^n -> Z_2^n.

The circuit is built from four stages: a conjunction bank over the first k
input lines (S1), one over the remaining n - k lines (S2), subset-XOR banks
over groups of at most s first-bank lines (S3), and the n output lines (S4),
each the XOR of 2-CNOTs of a second-bank line with a group line.  Both kinds
of bank are one halving product over a leaf list per line: a bank is a list
whose entry a is the line for sign assignment or subset mask a, with None at
entry 0 of an XOR bank (the empty subset).  The line layout depends only on
n and k and is computed in closed form before any gate is built: a
conjunction bank over v variables takes v + C(v) fresh lines, an XOR bank of
width w takes 2^w - 1 - w, and the outputs take n.
"""
from __future__ import annotations

import math
from itertools import count
from typing import Callable, Iterator, NamedTuple

from .circuit import MAX_LINES, Circuit, Gate, columns_of
from .errors import CapacityError, ContractError, ParameterError
from .perm import BooleanMapping


class StageReport(NamedTuple):
    """Per-stage gate and ancilla accounting plus the chosen parameters.
    psi_waived is set when the growth condition 2^k / s >= log2 n fails;
    the circuit is built either way.  A named tuple, so immutable and equal
    to any tuple of the same fields."""

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


def _halving_bank(leaves: list[list], combine: Callable) -> list:
    """Entry a combines leaves[i][bit i of a] over every i: the banks over the
    first ceil(v/2) leaves and over the rest, combined pairwise in ascending
    order of the entry, which is the order the combines draw fresh lines in."""
    if len(leaves) == 1:
        return leaves[0]
    mid = (len(leaves) + 1) // 2
    low = _halving_bank(leaves[:mid], combine)
    high = _halving_bank(leaves[mid:], combine)
    return [combine(a, b) for b in high for a in low]


def conjunction_bank(
    var_lines: tuple[int, ...], fresh: Iterator[int]
) -> tuple[list[tuple], list[int]]:
    """Expose x_0^{a_0} & ... & x_{v-1}^{a_v-1} for every sign assignment a
    (bit i of a chooses x_i itself over its negation) on line bank[a].

    One negation line per variable, then one 2-CNOT per combine of the
    halving product; gate count is exactly 2v + C(v).
    """
    v = len(var_lines)
    if v < 1:
        raise ParameterError("conjunction bank needs at least one variable")
    if len(set(var_lines)) != v:
        raise ParameterError("variable lines must be distinct")
    leaves = [[next(fresh), line] for line in var_lines]
    gates: list[tuple] = []
    for negated, line in leaves:
        gates += [Gate((), negated), Gate((line,), negated)]

    def conjunction(a: int, b: int) -> int:
        target = next(fresh)
        gates.append(Gate((a, b), target))
        return target

    return gates, _halving_bank(leaves, conjunction)


def xor_bank(
    group_lines: tuple[int, ...], fresh: Iterator[int]
) -> tuple[list[tuple], list[int | None]]:
    """Expose the XOR of every nonempty subset of the group lines (bit i of
    the subset mask selects group_lines[i]) on line bank[mask]; singletons
    are the group lines themselves, and bank[0] is None.

    In the halving product, a combine with the empty subset passes the other
    side through; any other is two CNOTs into a fresh line, so s lines take
    2^s - 1 - s fresh lines and twice as many gates.
    """
    if len(group_lines) < 1:
        raise ParameterError("xor bank needs at least one line")
    if len(set(group_lines)) != len(group_lines):
        raise ParameterError("group lines must be distinct")
    gates: list[tuple] = []

    def xor(a: int | None, b: int | None) -> int | None:
        if a is None or b is None:
            return b if a is None else a
        target = next(fresh)
        gates.extend((Gate((a,), target), Gate((b,), target)))
        return target

    return gates, _halving_bank([[None, line] for line in group_lines], xor)


def choose_params(n: int) -> int:
    """Bank width k = ceil(log2 n) + 1, which is ceil(n / phi(n)) with
    phi(n) = n / (log2 n + 1), clamped so that s = n - 2k >= 1."""
    if n < 3:
        raise ParameterError(
            f"lupanov mode needs n >= 3, got n={n}: n = 1 and n = 2 admit no k "
            "with 1 <= k < n/2"
        )
    return min((n - 1).bit_length() + 1, (n - 1) // 2)


def synth_mapping(f: BooleanMapping, k: int) -> tuple[Circuit, StageReport]:
    """Synthesize a circuit realizing the arbitrary mapping f with ancillas,
    from banks over k and n - k variables and p = ceil(2^k / s) groups of at
    most s = n - 2k first-bank lines.

    The fresh lines of each stage are counted in closed form first (see the
    module docstring), so a layout over MAX_LINES raises CapacityError
    before any bank is built; the banks then draw exactly those lines.

    Output stage budget: L4 <= p n 2^(n-k), one 2-CNOT per nonzero group
    restriction of each coordinate function, with q4 = n output lines; all
    gates have at most two controls by construction.  The support of f_ij,
    bit sigma set iff bit j of f(sigma | i << k) is 1, is the 2^k-bit window
    i of coordinate column j, columns_of(f.images, n)[j].
    """
    n = f.n
    if type(k) is not int or not 1 <= k < n / 2:
        raise ParameterError(f"need an int 1 <= k < n/2, got k={k!r}, n={n}")
    s = n - 2 * k
    starts = range(0, 1 << k, s)
    widths = [min(s, (1 << k) - start) for start in starts]
    ancilla_counts = (
        conjunction_gate_count(k) - k,
        conjunction_gate_count(n - k) - (n - k),
        sum((1 << w) - 1 - w for w in widths),
        n,
    )
    m = n + sum(ancilla_counts)
    if m > MAX_LINES:
        raise CapacityError(f"k={k} on n={n} needs {m} lines, more than {MAX_LINES}")
    fresh = count(n)

    # S1 and S2: conjunctions of the first k and the remaining n - k inputs.
    s1, first_bank = conjunction_bank(tuple(range(k)), fresh)
    s2, second_bank = conjunction_bank(tuple(range(k, n)), fresh)

    # S3: subset-XOR bank per group of at most s first-bank lines.
    s3: list[tuple] = []
    groups: list[tuple[int, int, list[int | None]]] = []  # (start, width, bank)
    for start, width in zip(starts, widths):
        bank_gates, bank = xor_bank(tuple(first_bank[start : start + width]), fresh)
        s3 += bank_gates
        groups.append((start, width, bank))

    # S4: m_i & f_ij is the XOR over groups t of m_i & (f_ij restricted to
    # group t), so each nonzero restriction is one 2-CNOT onto output j.
    out_lines = tuple(next(fresh) for _ in range(n))
    s4: list[tuple] = []
    columns = columns_of(f.images, n)
    window = (1 << (1 << k)) - 1
    for j in range(n):
        for i in range(1 << (n - k)):
            support = (columns[j] >> (i << k)) & window
            for start, width, bank in groups:
                mask = (support >> start) & ((1 << width) - 1)
                if mask:
                    a, b = second_bank[i], bank[mask]
                    s4.append(((a, b) if a < b else (b, a), out_lines[j]))
    drawn = next(fresh)
    if drawn != m:
        raise ContractError(f"lupanov stages use {drawn} lines, their layout has {m}")

    report = StageReport(
        k=k,
        s=s,
        p=len(groups),  # ceil(2^k / s)
        gate_counts=(len(s1), len(s2), len(s3), len(s4)),
        ancilla_counts=ancilla_counts,
        psi_waived=(1 << k) / s < math.log2(n),
    )
    return Circuit(m, n, (*s1, *s2, *s3, *s4), out_lines), report
