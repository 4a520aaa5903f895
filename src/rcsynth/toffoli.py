"""Replace a generalized k-CNOT by 2-CNOTs under three helper regimes.

Each function takes the k control lines, the target line and the helper
lines, which must be disjoint from the gate's own lines.

borrowed: helper lines hold arbitrary values and are restored; the whole
          m-line state is preserved except for the intended target flip.
clean:    k-2 helpers start at 0 and end at 0, exactly 2k-3 gates.
garbage:  k-2 helpers start at 0 and may end dirty, exactly k-1 gates.
"""
from __future__ import annotations

from typing import Sequence

from .circuit import Gate, ccnot
from .errors import CapacityError, ParameterError


def _dirty_chain(controls: Sequence[int], borrows: Sequence[int], target: int) -> list[Gate]:
    """k-CNOT out of 4(k-2) 2-CNOTs using k-2 borrowed lines of any value.

    The staircase palindrome M adds controls[0] & ... & controls[k-2] onto the
    last borrow and is an involution, so [L, M, L, M] leaves every borrow as
    it was and flips the target exactly when all controls are 1.
    """
    k = len(controls)
    top = ccnot(controls[0], controls[1], borrows[0])
    steps = [
        ccnot(controls[i + 2], borrows[i], borrows[i + 1]) for i in range(k - 3)
    ]
    last = ccnot(controls[k - 1], borrows[k - 3], target)
    mountain = list(reversed(steps)) + [top] + steps
    return [last] + mountain + [last] + mountain


def decompose_borrowed(
    controls: Sequence[int], target: int, helpers: Sequence[int]
) -> list[Gate]:
    """Full-state equivalent replacement, at most 8k gates; helpers may hold
    anything and are restored for every input."""
    k = len(controls)
    if k <= 2:
        return [Gate(controls, target)]
    if not helpers:
        raise CapacityError(f"{k}-CNOT needs at least one free line to borrow")
    if len(helpers) >= k - 2:
        return _dirty_chain(controls, helpers[: k - 2], target)
    # Too few helpers: split through one borrowed line.  Each half sees the
    # other half's lines as borrows, so one level always suffices.
    bridge = helpers[0]
    first, second = list(controls[: (k + 1) // 2]), list(controls[(k + 1) // 2 :])
    pool_first = sorted(set(second) | {target} | set(helpers[1:]))
    pool_second = sorted(set(first) | set(helpers[1:]))
    a = decompose_borrowed(first, bridge, pool_first)
    b = decompose_borrowed(second + [bridge], target, pool_second)
    return a + b + a + b


def decompose_garbage(
    controls: Sequence[int], target: int, helpers: Sequence[int]
) -> list[Gate]:
    """Exactly k-1 gates; target and control lines correct on the helper-zero
    subspace, helpers are left dirty and must be retired by the caller.

    helpers[i] accumulates controls[0] & ... & controls[i+1]; the last helper
    and the last control then drive the target."""
    k = len(controls)
    needed = max(k - 2, 0)
    if len(helpers) != needed:
        raise ParameterError(
            f"{k}-CNOT needs exactly {needed} helpers, got {len(helpers)}"
        )
    if k <= 2:
        return [Gate(controls, target)]
    gates = [ccnot(controls[0], controls[1], helpers[0])]
    for i in range(k - 3):
        gates.append(ccnot(controls[i + 2], helpers[i], helpers[i + 1]))
    gates.append(ccnot(controls[-1], helpers[-1], target))
    return gates


def decompose_clean(
    controls: Sequence[int], target: int, helpers: Sequence[int]
) -> list[Gate]:
    """Exactly 2k-3 gates; equivalent on the subspace where the k-2 helpers
    start at 0, and every helper ends at 0 again: the garbage chain followed
    by its helper gates in reverse."""
    gates = decompose_garbage(controls, target, helpers)
    return gates + gates[-2::-1]
