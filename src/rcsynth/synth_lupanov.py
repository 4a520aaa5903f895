"""Ancilla-rich synthesis of arbitrary mappings f: Z_2^n -> Z_2^n.

The circuit is built from four stages: a conjunction bank over the first k
input lines (S1), one over the remaining n - k lines (S2), and, for each
group of at most s first-bank lines, a walk of one accumulator line through
the XORs of the group's nonempty subsets (S3), with the output gates (S4)
fired along it: 2-CNOTs of a second-bank line with the accumulator onto the
n output lines.  A group of one line is read directly and takes no walk.
A conjunction bank is a list whose entry a is the line for sign assignment a,
built by a halving product.  The line layout is computed in closed form
before any gate is built: a conjunction bank over v variables takes
v + C(v) fresh lines, the walks share one accumulator line (none when
s = 1), and the outputs take n.  choose_params picks (k, s) by the gates
counted exactly for the mapping at hand.
"""
from __future__ import annotations

import math
import sys
from array import array
from itertools import count, repeat
from typing import Iterator, NamedTuple

from .circuit import MAX_LINES, Circuit, Gate
from .errors import CapacityError, ContractError, ParameterError
from .perm import BooleanMapping, _Memo


class StageReport(NamedTuple):
    """Per-stage gate and ancilla accounting plus the chosen parameters.
    Stage 3 is the walks on their one accumulator line.  A named tuple, so
    immutable and equal to any tuple of the same fields."""

    k: int
    s: int
    p: int
    gate_counts: tuple[int, int, int, int]
    ancilla_counts: tuple[int, int, int, int]


def conjunction_gate_count(v: int) -> int:
    """2v + C(v) with C(1) = 0 and C(v) = 2^v + C(ceil(v/2)) + C(floor(v/2))."""

    def c(v: int) -> int:
        if v == 1:
            return 0
        return (1 << v) + c((v + 1) // 2) + c(v // 2)

    return 2 * v + c(v)


def conjunction_bank(
    var_lines: tuple[int, ...], fresh: Iterator[int]
) -> tuple[list[tuple], list[int]]:
    """Expose x_0^{a_0} & ... & x_{v-1}^{a_v-1} for every sign assignment a
    (bit i of a chooses x_i itself over its negation) on line bank[a].

    One negation line per variable, then a halving product: the banks over
    the first ceil(v/2) variables and over the rest, combined pairwise by
    one 2-CNOT into a fresh line each, in ascending order of the entry.
    Gate count is exactly 2v + C(v).
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

    def product(leaves: list[list[int]]) -> list[int]:
        if len(leaves) == 1:
            return leaves[0]
        mid = (len(leaves) + 1) // 2
        low, high = product(leaves[:mid]), product(leaves[mid:])
        bank = []
        for b in high:
            for a in low:
                bank.append(next(fresh))
                gates.append(Gate((a, b), bank[-1]))
        return bank

    return gates, product(leaves)


def xor_walk(group_lines: tuple[int, ...], acc: int) -> list[tuple[int, tuple]]:
    """(mask, gate) per step of a walk of line acc through the nonempty
    subsets of the group lines in reflected Gray order: after the gate, acc
    holds the XOR of the lines that bit i of the mask selects
    (group_lines[i]).  Step g is a CNOT from group_lines[lowest set bit of
    g]; the last subset is {group_lines[-1]}, so one more CNOT clears acc
    (mask 0).  w lines take 2^w gates."""
    w = len(group_lines)
    if w < 1:
        raise ParameterError("xor walk needs at least one line")
    if len(set(group_lines)) != w:
        raise ParameterError("group lines must be distinct")
    steps = [
        (g ^ g >> 1, ((group_lines[(g & -g).bit_length() - 1],), acc)) for g in range(1, 1 << w)
    ]
    steps.append((0, ((group_lines[-1],), acc)))
    return steps


def _walk_gate_count(k: int, s: int) -> int:
    """Stage 3 in closed form: 2^w gates per group of width w >= 2, over the
    groups of s first-bank lines (the last one holds what remains)."""
    full, last = divmod(1 << k, s)
    walk = 1 << s if s > 1 else 0
    return full * walk + (1 << last if last > 1 else 0)


def _ancilla_counts(n: int, k: int, s: int) -> tuple[int, int, int, int]:
    """Fresh lines per stage: a conjunction bank over v inputs takes v + C(v),
    the walks one accumulator line (none when s = 1) and the outputs n."""
    return (conjunction_gate_count(k) - k, conjunction_gate_count(n - k) - (n - k), int(s > 1), n)


def _check_k(k: object, n: int) -> int:
    if type(k) is not int or not 1 <= k <= n - 1:
        raise ParameterError(f"need an int 1 <= k <= n - 1, got k={k!r}, n={n}")
    return k


class _OutputGates:
    """Stage-4 gate counts of one mapping at any (k, s): one gate per
    nonzero restriction of a coordinate function to a group.

    The images are packed into one int, image x in field x.  The OR-fold
    over w fields, by doubling, has in field x the OR of images x..x+w-1,
    whatever k is; AND'ed with a mask of the group starts, one bit count
    sums the coordinates that are nonzero on each group."""

    def __init__(self, f: BooleanMapping) -> None:
        self.n = f.n
        packed = array(next(t for t in "BHILQ" if array(t).itemsize * 8 >= f.n), f.images)
        if sys.byteorder == "big":
            packed.byteswap()
        self.field = packed.itemsize  # bytes
        table = int.from_bytes(packed.tobytes(), "little")
        self.ones = table.bit_count()
        self.folds = _Memo(lambda w: table if w == 1 else self._fold(w))
        self.zero_blocks = _Memo(self._zero_blocks)

    def _fold(self, w: int) -> int:
        half = 1 << (w.bit_length() - 1)
        if half == w:
            half //= 2
        return self.folds[half] | self.folds[half] >> ((w - half) * self.field * 8)

    def _starts(self, period: int, first: int, step: int, number: int) -> int:
        """Fields first, first + step, ... (number of them) of every run of
        period fields, over all 2^n fields."""
        field = self.field
        run = bytearray(field * period)
        for b in range(field):
            run[first * field + b : (first + step * number) * field : step * field] = (
                b"\xff" * number
            )
        return int.from_bytes((bytes(run) * -(-(1 << self.n) // period))[: field << self.n], "little")

    def _zero_blocks(self, u: int) -> int:
        # (block, coordinate) pairs zero on a block of u fields from a multiple of u.
        blocks = -(-(1 << self.n) // u)
        return self.n * blocks - (self.folds[u] & self._starts(u, 0, 1, 1)).bit_count()

    def exact(self, k: int, s: int) -> int:
        full, last = divmod(1 << k, s)
        nonzero = self.folds[s] & self._starts(1 << k, 0, s, full)
        if last:
            nonzero |= self.folds[last] & self._starts(1 << k, full * s, 1, 1)
        return nonzero.bit_count()

    def lower(self, k: int, s: int) -> int:
        """A lower bound on exact(k, s).  A group holds at most s ones of a
        coordinate.  And a group of width w on which a coordinate is zero
        holds a whole block of u = (w + 1) // 2 fields from a multiple of u
        on which it is zero too, a different block for each group."""
        rows = self.n << (self.n - k)
        full, last = divmod(1 << k, s)
        nonzero = rows * full - self.zero_blocks[(s + 1) // 2]
        if last:
            nonzero += max(0, rows - self.zero_blocks[(last + 1) // 2])
        return max(nonzero, -(-self.ones // s))


def choose_params(f: BooleanMapping, k: int | None = None) -> tuple[int, int]:
    """The (k, s) whose circuit for f has the fewest gates, over
    1 <= k <= n - 1 (or the k given) and 1 <= s <= 2^k.  Ties go to fewer
    lines, then to the larger k, then to the smaller s.

    Stages 1-3 and the lines are closed forms.  Stage 4 is counted exactly,
    in ascending order of a lower bound on the total, until the bound can no
    longer win."""
    n = f.n
    if n < 2:
        raise ParameterError(
            f"lupanov mode needs n >= 2, got n={n}: its two conjunction banks "
            "each need at least one input line"
        )
    ks = range(1, n) if k is None else (_check_k(k, n),)
    outputs = _OutputGates(f)
    candidates = []  # (lower bound, lines, -k, s, stages 1-3)
    most = math.inf  # an upper bound on the fewest gates
    for k in ks:
        banks = conjunction_gate_count(k) + conjunction_gate_count(n - k)
        for s in range(1, (1 << k) + 1):
            if s > 1 and banks + (1 << s) > most:
                break  # stage 3 takes 2^s gates or more from here on
            closed = banks + _walk_gate_count(k, s)
            groups = -(-(1 << k) // s)
            most = min(most, closed + min(outputs.ones, (groups * n) << (n - k)))
            lines = n + sum(_ancilla_counts(n, k, s))
            candidates.append((closed + outputs.lower(k, s), lines, -k, s, closed))
    best = None  # (gates, lines, -k, s)
    for bound, lines, minus_k, s, closed in sorted(candidates):
        if best is not None and (bound, lines, minus_k, s) >= best:
            break
        key = (closed + outputs.exact(-minus_k, s), lines, minus_k, s)
        best = key if best is None else min(best, key)
    return -best[2], best[3]


def synth_mapping(
    f: BooleanMapping, k: int | None = None, s: int | None = None
) -> tuple[Circuit, StageReport]:
    """Synthesize a circuit realizing the arbitrary mapping f with ancillas,
    from banks over k and n - k variables and p = ceil(2^k / s) groups of at
    most s first-bank lines.  Without s, (k, s) come from choose_params: the
    fewest gates, for the k given or over every k.

    The fresh lines of each stage are counted in closed form first (see the
    module docstring), so a layout over MAX_LINES raises CapacityError
    before any bank is built; the banks then draw exactly those lines.

    Output stage budget: L4 <= p n 2^(n-k), one 2-CNOT per nonzero group
    restriction of each coordinate function, with q4 = n output lines; all
    gates have at most two controls by construction.  The support of f_ij,
    bit sigma set iff bit j of f(sigma | i << k) is 1, is the 2^k bits of
    coordinate column j from input i << k.
    """
    n = f.n
    if s is None:
        k, s = choose_params(f, k)
    _check_k(k, n)
    if type(s) is not int or not 1 <= s <= 1 << k:
        raise ParameterError(f"need an int 1 <= s <= 2^k, got s={s!r}, k={k}")
    walked = _walk_gate_count(k, s)
    if walked > n << n:
        # s = 1 takes no walk and at most n 2^n output gates.
        raise ParameterError(f"s={s} at k={k} walks {walked} gates, more than n 2^n = {n << n}")
    ancilla_counts = _ancilla_counts(n, k, s)
    m = n + sum(ancilla_counts)
    if m > MAX_LINES:
        raise CapacityError(f"k={k} on n={n} needs {m} lines, more than {MAX_LINES}")
    fresh = count(n)

    # S1 and S2: conjunctions of the first k and the remaining n - k inputs.
    s1, first_bank = conjunction_bank(tuple(range(k)), fresh)
    s2, second_bank = conjunction_bank(tuple(range(k, n)), fresh)
    acc = next(fresh) if s > 1 else None
    out_lines = tuple(next(fresh) for _ in range(n))
    drawn = next(fresh)
    if drawn != m:
        raise ContractError(f"lupanov stages use {drawn} lines, their layout has {m}")

    # S4: m_i & f_ij is the XOR over groups t of m_i & (f_ij restricted to
    # group t), so each nonzero restriction is one 2-CNOT onto output j,
    # filed under its mask: the subset whose XOR it reads.  Column j is a
    # bit string, most significant input first.
    size = 1 << n
    columns = ["".join(bits) for bits in zip(*map(format, reversed(f.images), repeat(f"0{n}b")))]
    gates = s1 + s2
    for start in range(0, 1 << k, s):
        lines = tuple(first_bank[start : start + s])
        width = len(lines)
        read = lines[0] if width == 1 else acc
        pairs = [(a, read) if a < read else (read, a) for a in second_bank]
        fires: list[list[tuple]] = [[] for _ in range(1 << width)]
        for out, column in zip(out_lines, reversed(columns)):
            for end, pair in zip(range(size - start, 0, -(1 << k)), pairs):
                mask = int(column[end - width : end], 2)
                if mask:
                    fires[mask].append((pair, out))
        # S3: walk acc through the group's subsets, firing each mask's gates.
        if width == 1:
            gates += fires[1]
            continue
        for mask, step in xor_walk(lines, acc):
            gates.append(step)
            gates += fires[mask]
    report = StageReport(
        k=k,
        s=s,
        p=-(-(1 << k) // s),
        gate_counts=(len(s1), len(s2), walked, len(gates) - len(s1) - len(s2) - walked),
        ancilla_counts=ancilla_counts,
    )
    return Circuit(m, n, gates, out_lines), report
