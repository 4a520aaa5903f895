"""Synthesis of permutations from transposition blocks.

Each block takes one group of K independent transpositions (k = 2K moved
points) and conjugates it, gate by self-inverse gate, until it collapses to
a single generalized Toffoli.  The Toffoli's target is the line on which
the most of the block's pairs differ.  Any transposition may become any
pair the Toffoli swaps, in either orientation, so each block places its
rows by the cost of their pair: every row is scored by its own gates plus
its partner's after them, and the row takes the pivot line that leaves
its partner cheapest.  A sweep of the conjugators then checks that each
transposition lands on one such pair.  Emitting the conjugators around the
core gate realizes the block; concatenated blocks realize the permutation.
Every gate with three or more controls is expanded into the basis through
the n - 3 clean helpers if there are any, else through borrowed data lines.
"""
from __future__ import annotations

from functools import partial
from itertools import chain, repeat
from math import inf

from .bounds import block_upper
from .circuit import Circuit, GateCountReport, _sweep, columns_of, count_gates, words_of
from .errors import ContractError, ParameterError, ParityError
from .perm import Pair, Permutation, _Memo, is_even, plain_transpositions, transposition_stream
from .toffoli import decompose_borrowed, decompose_clean


def _bit_positions(value: int) -> tuple[int, ...]:
    out = []
    while value:
        low = value & -value
        out.append(low.bit_length() - 1)
        value ^= low
    return tuple(out)


def _costs(n: int, k: int) -> list[int]:
    """The list whose entry d is the cost of a row at distance d = row ^ s
    from its slot s in a block of size k: the bit count of d, plus n + 1 if
    the row needs the spill lift (0 < d < k, no high bit), which puts such
    rows last."""
    cost = list(map(int.bit_count, range(1 << n)))
    cost[1:k] = [c + n + 1 for c in cost[1:k]]
    return cost


def _canonicalize(rows: list[int], n: int, memos: _Memos | None = None) -> tuple[list[tuple], int]:
    """Conjugate the block until its transpositions are those of the single
    gate with controls on lines log2 k .. n-1 and target 0 of its frame:
    every high column reads 1, and the low log2 k columns place rows 2i and
    2i + 1, one transposition, on v and v ^ 1 for some even v.  It returns
    the conjugators and the frame.

    The frame is the line t on which the most of the block's pairs differ,
    the lowest such line on a tie, so a block whose pairs differ on line 0
    as often as on any other keeps line 0.  Lines 0 and t swap places in
    the rows before they are conjugated, and the conjugators and the core
    gate are those of the swapped rows: swapping lines 0 and t in each of
    their gates gives the block's own.

    Any pair may take any slot pair, in either orientation, so the rows are
    placed by the cost of their pair (`_costs`).  At slot 0 (once the
    repeated columns are zeroed) and at each later even slot r, every row
    is scored: its own cost at r plus its partner's cost at r + 1, the
    partner moved by the row's gate group (spill lift, CNOT fan-out,
    control gate) exactly as the update moves every row.  The lowest score
    takes r, ties in the given order, and its partner takes r + 1.  The row
    at an even slot pivots on the high bit that leaves its partner
    cheapest; a row at an odd slot on its lowest high bit.  Any high bit
    serves, since placed rows hold none.  Every pivot the partner holds
    moves it alike, and so does every pivot it lacks, so only the lowest of
    each kind is scored.  The pending rows move by one whole-row update per
    gate group.  The emitted gates are checked by one sweep over the
    columns of the swapped rows, which raises ContractError unless they
    realize the block's transpositions: every high column all ones, column
    0 differing within each pair and the other low columns agreeing.
    Conjugation is a bijection, so the rows stay distinct and no slot
    bookkeeping is needed.

    The rows are the block's moved points, pairwise distinct n-bit points;
    their count k must be one that `block_upper(n, k)` admits.  `memos`
    holds the bit positions and cost lists; a call without it builds its
    own."""
    k = len(rows)
    if len(set(rows)) != k:
        raise ParameterError("rows must be pairwise distinct")
    lgk = k.bit_length() - 1
    if min(rows) < 0 or max(rows) >= 1 << n:
        raise ParameterError("rows must be n-bit points")
    if memos is None:
        memos = _Memos(n)
    positions, cost = memos.positions, memos.costs[k]
    conjugators: list[tuple] = []

    # Bit 2i of (c ^ c >> 1) compares rows 2i and 2i + 1 in column c.  The
    # frame is the first column with the most such differences.
    columns = columns_of(rows, n)
    full = (1 << k) - 1
    evens = full // 3
    differ = [((c ^ c >> 1) & evens).bit_count() for c in columns]
    frame = differ.index(max(differ))
    if frame:
        columns[0], columns[frame] = columns[frame], columns[0]
        swap = 1 | 1 << frame
        rows = [x ^ swap if (x ^ x >> frame) & 1 else x for x in rows]

    # Zero every column that repeats an earlier one; first occurrences stay.
    # The CNOT ((kept,), j) zeroes column j and leaves the others as they
    # were, so the columns of the rows as given serve for the whole pass.
    kept: dict[int, int] = {}
    for j, pattern in enumerate(columns):
        if pattern in kept:
            conjugators.append(((kept[pattern],), j))
        elif pattern:
            kept[pattern] = j
    repeated = sum(1 << j for _, j in conjugators)

    # Slot 0: clear a row by NOTs on its set bits.  A row scores those NOTs
    # plus its partner's cost at slot 1 after them.
    pending = [x & ~repeated for x in rows]
    scores = [v.bit_count() + cost[pending[i ^ 1] ^ v ^ 1] for i, v in enumerate(pending)]
    i = scores.index(min(scores))
    first = pending[i]
    conjugators += zip(repeat(()), positions[first])
    pending = [x ^ first for x in pending]

    # The row pending[i] must become the value r.  `pending` holds the rows
    # not yet placed, pairs side by side in the given order.  Rows are
    # pairwise distinct throughout (conjugation permutes points), so no gate
    # below touches a placed row: it holds some r' < r and no high bit.  So
    # any high bit of the row being placed may serve as its pivot.
    spill, high_bits = 1 << lgk, -k
    for r in range(1, k):
        if r & 1:
            i ^= 1  # the partner of the row at slot r - 1
            value = pending[i]
            pivot = value & high_bits
            pivot &= -pivot  # the lowest high bit; the lift below sets it if 0
        else:
            # Score each row v: its own cost at r plus its partner w's at
            # r + 1, once v's gate group has moved w by the expressions of
            # the update below.  Every pivot that w holds moves w alike, and
            # so does every pivot it lacks, so the lowest of each kind
            # stands for its kind.  Ties take the earlier row, then the
            # lower pivot.
            del pending[i & ~1 : (i | 1) + 1]
            least = inf
            for t, v in enumerate(pending):
                w = pending[t ^ 1]
                own, pivots = cost[v ^ r], (0,)  # v at r: pivot 0 leaves w as is
                if v != r:
                    if v < k:
                        w = w ^ spill if w & v == v else w
                        v |= spill
                    high = v & high_bits
                    p = high & -high
                    pivots = (p,)  # w holds every high bit of v, or none
                    if high & w and high & ~w:
                        other = high & (~w if w & p else w)
                        pivots = p, other & -other
                for p in pivots:
                    y = w ^ (v ^ r) & ~p if w & p else w
                    y = y ^ p if y & r == r else y
                    score = own + cost[y ^ r ^ 1]
                    if score < least:
                        least, i, pivot = score, t, p
            value = pending[i]
        if value == r:
            continue
        if value < k:
            # No high bit available: lift the row into the spill column lgk.
            conjugators.append((positions[value], lgk))
            pending = [x ^ spill if x & value == value else x for x in pending]
            value |= spill
            pivot = spill
        j = pivot.bit_length() - 1
        # The CNOTs all have control j and none targets it, so together they
        # XOR mask into the rows with bit j set; then the gate with controls
        # on the bits of r flips bit j of the rows that hold every bit of r,
        # which clears it in pending[i].
        mask = (value ^ r) & ~pivot
        conjugators += zip(repeat((j,)), positions[mask])
        conjugators.append((positions[r], j))
        pending = [
            y ^ pivot if (y := x ^ mask if x & pivot else x) & r == r else y for x in pending
        ]

    # Set every high column to all ones so a single gate matches the block.
    conjugators += zip(repeat(()), range(lgk, n))
    tables = _sweep(conjugators, columns, full)
    low = [(c ^ c >> 1) & evens for c in tables[:lgk]]
    if low != [evens] + [0] * (lgk - 1) or tables[lgk:] != [full] * (n - lgk):
        raise ContractError(
            f"block canonicalized to rows {list(words_of(tables, k))}, not pairs "
            f"v, v ^ 1 with every bit of {(1 << n) - spill} set"
        )

    return conjugators, frame


def _expand(n: int, ancilla_lines: tuple[int, ...], gate: tuple) -> list[tuple]:
    """The gates of `gate` over NOT, CNOT and 2-CNOT.  A basis gate is its
    own expansion.  A wider gate is expanded through the clean helpers
    `ancilla_lines` if there are any (it has at most n - 1 controls, so
    n - 3 suffice), else through the data lines outside it, borrowed."""
    controls, target = gate
    if len(controls) <= 2:
        return [gate]
    if ancilla_lines:
        return decompose_clean(controls, target, ancilla_lines[: len(controls) - 2])
    used = set(controls) | {target}
    free = tuple(line for line in range(n) if line not in used)
    return decompose_borrowed(controls, target, free)


def _relabel(expansions: _Memo, t: int, gate: tuple) -> list[tuple]:
    """The expansion of `gate` of frame t: its expansion in `expansions`
    (frame 0) with lines 0 and t swapped.  A line permutation maps the free
    lines of a gate to those of its image and fixes the helpers, so the
    relabeled gates expand the gate's image.  Each relabeled basis gate is
    looked up in `expansions` too, which holds it as its own expansion, so
    equal gates of every frame are one object."""
    get = {0: t, t: 0}.get
    return [
        expansions[tuple(sorted(map(get, controls, controls))), get(target, target)][0]
        for controls, target in expansions[gate]
    ]


class _Memos:
    """What the blocks of one synthesis on n lines share: the bit positions
    and the cost list of each block size for `_canonicalize`, and the
    expansion table of each frame, all filled on first lookup.  Frame 0 is
    the `_expand` memo, and frame t the `_relabel` memo over it."""

    __slots__ = ("positions", "costs", "frames")

    def __init__(self, n: int, ancilla_lines: tuple[int, ...] = ()) -> None:
        self.positions, self.costs = _Memo(_bit_positions), _Memo(partial(_costs, n))
        expansions = _Memo(partial(_expand, n, ancilla_lines))
        self.frames = _Memo(lambda t: _Memo(partial(_relabel, expansions, t)))
        self.frames[0] = expansions


def synth_block(
    group: tuple[Pair, ...],
    n: int,
    ancilla_lines: tuple[int, ...] = (),
    *,
    _memos: _Memos | None = None,
) -> list[tuple]:
    """Gates realizing exactly the permutation of one group of independent
    transpositions on 2^n states: expanded conjugators, expanded core gate,
    the expanded conjugators again in reverse order.  With ancilla_lines
    every gate with three or more controls is expanded through them as
    clean helpers instead of borrowed data lines.  `block_upper(n, k)` for
    the k = 2|group| moved points both checks k and caps the gate count.

    The conjugators and the core gate come in the block's frame t
    (`_canonicalize`) and are expanded through `_memos.frames[t]`: each
    distinct gate is expanded once, and its expansion relabeled once per
    frame, lines 0 and t swapped.  `synth_even_permutation` passes one
    `_Memos` to all its blocks on the same n and ancilla_lines."""
    rows = [x for t in group for x in t]
    budget = block_upper(n, len(rows))
    if _memos is None:
        _memos = _Memos(n, ancilla_lines)
    conjugators, frame = _canonicalize(rows, n, _memos)
    expansions = _memos.frames[frame]
    core = tuple(range(len(rows).bit_length() - 1, n)), 0
    parts = list(map(expansions.__getitem__, conjugators))
    gates = list(chain.from_iterable(parts + [expansions[core]] + parts[::-1]))
    if len(gates) > budget:
        raise ContractError(f"block emitted {len(gates)} gates, budget {budget}")
    return gates


def _default_block_size(n: int) -> int:
    """The block size k that gives the fewest gates on n lines, by
    measurement: gate totals of seeds 1-3 for every admissible k at
    n = 2..16, without helpers and with n - 3, on the groups
    `transposition_stream` builds, each block in its own frame
    (BENCH_framechoice.json).  k starts at 2 and doubles at each line count
    listed; it passes `_validate_block_size` on every n >= 2."""
    return 2 << sum(n >= start for start in (3, 5, 8, 14))


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
    n - 3 every gate with three or more controls is expanded through clean
    helpers on n - 3 extra lines, which also admits odd p.
    """
    n = p.n
    if type(ancilla_budget) is not int or ancilla_budget not in (0, max(n - 3, 0)):
        raise ParameterError(f"ancilla budget must be the int 0 or n-3, got {ancilla_budget!r}")
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
        gates = () if p.is_identity() else (((), 0),)
    else:
        if k is None:
            k = _default_block_size(n)
        if k == 2:
            groups = [(t,) for t in plain_transpositions(p)]
        else:
            groups = transposition_stream(p, k // 2)
        memos = _Memos(n, ancilla_lines)
        gates = tuple(chain.from_iterable(
            synth_block(group, n, ancilla_lines, _memos=memos) for group in groups
        ))
    circuit = Circuit(m, n, gates, tuple(range(n)))
    return circuit, count_gates(circuit)
