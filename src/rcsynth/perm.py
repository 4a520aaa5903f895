"""Permutations of n-bit points: parity, cycles, and transposition grouping.

A permutation (or an arbitrary mapping) on {0, ..., 2^n - 1} is stored as an
image table.  Composition is read left to right throughout the package:
``compose(f, g)(x) == g(f(x))``, matching the order in which circuit gates
are applied.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapacityError, ContractError, ParameterError


@dataclass(frozen=True)
class BooleanMapping:
    """Arbitrary function {0,...,2^n-1} -> {0,...,2^n-1} as an image table."""

    n: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("bit count must be at least 1")
        object.__setattr__(self, "images", tuple(self.images))
        count = len(self.images)
        # Compare widths before shifting: a huge n must not build 2^n.
        if count.bit_length() != self.n + 1 or count != 1 << self.n:
            raise ValueError(f"expected 2^{self.n} images, got {count}")
        for v in self.images:
            if not 0 <= v < count:
                raise ValueError(f"image {v} out of range [0, {count})")

    @property
    def size(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class Permutation(BooleanMapping):
    """Bijection on {0, ..., 2^n - 1}."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(set(self.images)) != self.size:
            raise ValueError("image table is not a bijection")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(n, tuple(range(1 << n)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(1 << n))
        for cycle in cycles:
            for i, point in enumerate(cycle):
                images[point] = cycle[(i + 1) % len(cycle)]
        return cls(n, tuple(images))

    def is_identity(self) -> bool:
        return all(v == x for x, v in enumerate(self.images))


def cycle_decomposition(p: Permutation) -> list[tuple[int, ...]]:
    """Disjoint cycles of length >= 2, each rotated to start at its minimum,
    sorted by that minimum.  Fixed points are omitted."""
    seen = [False] * p.size
    cycles = []
    for start in range(p.size):
        if seen[start] or p.images[start] == start:
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = p.images[x]
        cycles.append(tuple(cycle))
    return cycles


def is_even(p: Permutation) -> bool:
    """Even iff the cycles split into an even number of transpositions."""
    return sum(len(c) - 1 for c in cycle_decomposition(p)) % 2 == 0


Pair = tuple[int, int]


def _pair(a: int, b: int) -> Pair:
    """The transposition swapping a and b, as the pair (min, max)."""
    return (a, b) if a < b else (b, a)


def transpositions_product(ts: Iterable[Pair], n: int) -> Permutation:
    """Left-to-right product of transpositions (a, b) as a Permutation."""
    images = list(range(1 << n))
    for a, b in ts:
        images = [b if v == a else a if v == b else v for v in images]
    return Permutation(n, tuple(images))


def split_dependent_pair(
    t1: Pair, t2: Pair, n: int
) -> tuple[tuple[Pair, Pair], tuple[Pair, Pair]]:
    """Rewrite a product of two transpositions sharing one point as two
    independent pairs, using a fresh transposition (r, s) on the two smallest
    free points: t1 * t2 == (t1 * (r,s)) * ((r,s) * t2)."""
    if len(set(t1) & set(t2)) != 1:
        raise ParameterError("transpositions must share exactly one point")
    used = set(t1) | set(t2)
    free = [x for x in range(1 << n) if x not in used]
    if len(free) < 2:
        raise CapacityError(
            f"no room for a fresh transposition on {1 << n} points"
        )
    fresh = (free[0], free[1])
    return (t1, fresh), (fresh, t2)


def transposition_stream(p: Permutation, K: int) -> list[tuple[Pair, ...]]:
    """Decompose p into groups of K independent transpositions followed by
    independent pairs, preserving the left-to-right product.  A group is a
    tuple of transpositions (a, b) with a < b and no point shared.

    Each group walks the outstanding cycles from the front and takes as many
    pairs from each as it still needs: j pairs split (c0, c1, ..., c_{l-1})
    as (c0,c1)(c2,c3)...(c_{2j-2},c_{2j-1}) followed by the shorter cycle
    (c0, c2, ..., c_{2j-2}, c_{2j}, ..., c_{l-1}).  The residual that cannot
    fill a pair is either a lone transposition (odd p) or a 3-cycle, which
    is rewritten through split_dependent_pair.
    """
    if K < 2:
        raise ParameterError("group size K must be at least 2")
    groups: list[tuple[Pair, ...]] = []
    work = [list(c) for c in cycle_decomposition(p)]

    for size in (K, 2):
        while sum(len(c) // 2 for c in work) >= size:
            batch: list[Pair] = []
            for i, cycle in enumerate(work):
                take = min(len(cycle) // 2, size - len(batch))
                if take == 0:
                    break
                batch.extend(_pair(cycle[2 * t], cycle[2 * t + 1]) for t in range(take))
                work[i] = cycle[: 2 * take : 2] + cycle[2 * take :]
            # Only the walked cycles, work[: i + 1], can have fallen below 2 points.
            work[: i + 1] = [c for c in work[: i + 1] if len(c) >= 2]
            groups.append(tuple(batch))

    if work:
        if len(work) != 1 or len(work[0]) not in (2, 3):
            raise ContractError(f"residual cycles {work}: expected one of length 2 or 3")
        cycle = work[0]
        if len(cycle) == 2:
            groups.append((_pair(cycle[0], cycle[1]),))
        else:
            t1 = _pair(cycle[0], cycle[1])
            t2 = _pair(cycle[0], cycle[2])
            groups.extend(split_dependent_pair(t1, t2, p.n))
    return groups


def plain_transpositions(p: Permutation) -> list[Pair]:
    """Left-to-right transposition decomposition without independence:
    each cycle (c0, ..., c_{l-1}) becomes (c0,c1)(c0,c2)...(c0,c_{l-1}),
    c0 being the cycle's minimum."""
    out: list[Pair] = []
    for cycle in cycle_decomposition(p):
        out.extend((cycle[0], cycle[i]) for i in range(1, len(cycle)))
    return out
