"""Permutations of n-bit points: parity, cycles, and transposition grouping.

A permutation (or an arbitrary mapping) on {0, ..., 2^n - 1} is stored as an
image table.  Composition is read left to right throughout the package:
f then g maps x to g(f(x)), the order in which circuit gates are applied.
"""
from __future__ import annotations

from itertools import compress
from operator import ne
from typing import Callable, Iterable, Sequence

from .errors import CapacityError, ContractError, ParameterError


class _Value:
    """Immutable record over the slots named in `_fields`, set once in
    `__init__`: equal only to an object of exactly its class with equal
    fields, hashed over them, and shown as `Name(field=value, ...)`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class _Memo(dict):
    """Key -> `function(key)`, computed and stored on the first lookup of the
    key; every later lookup is a plain dict lookup."""

    __slots__ = ("function",)

    def __init__(self, function: Callable) -> None:
        self.function = function

    def __missing__(self, key: object) -> object:
        value = self[key] = self.function(key)
        return value


def _check_bit_count(n: int) -> None:
    if type(n) is not int:
        raise ValueError(f"bit count {n!r} is not an int")
    if n < 1:
        raise ValueError("bit count must be at least 1")


class BooleanMapping(_Value):
    """Arbitrary function {0,...,2^n-1} -> {0,...,2^n-1} as an image table;
    an immutable value, equal to a mapping of its own class and same fields."""

    __slots__ = _fields = ("n", "images")

    def __init__(self, n: int, images: Iterable[int]) -> None:
        _check_bit_count(n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "images", tuple(images))
        count = len(self.images)
        # Compare widths before shifting: a huge n must not build 2^n.
        if count.bit_length() != n + 1 or count != 1 << n:
            raise ValueError(f"expected 2^{n} images, got {count}")
        # C-level checks first; the offending image is sought only on a fault.
        if set(map(type, self.images)) != {int} or min(self.images) < 0 or max(self.images) >= count:
            v = next(v for v in self.images if type(v) is not int or not 0 <= v < count)
            if type(v) is not int:
                raise ValueError(f"image {v!r} is not an int")
            raise ValueError(f"image {v} out of range [0, {count})")

    @property
    def size(self) -> int:
        return 1 << self.n


class Permutation(BooleanMapping):
    """Bijection on {0, ..., 2^n - 1}; never equal to a BooleanMapping."""

    __slots__ = ()

    def __init__(self, n: int, images: Iterable[int]) -> None:
        super().__init__(n, images)
        if len(set(self.images)) != self.size:
            raise ValueError("image table is not a bijection")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        _check_bit_count(n)
        return cls(n, tuple(range(1 << n)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        _check_bit_count(n)
        images = list(range(1 << n))
        seen: set[int] = set()
        for cycle in cycles:
            for i, point in enumerate(cycle):
                if type(point) is not int:
                    raise ValueError(f"cycle point {point!r} is not an int")
                if not 0 <= point < len(images):
                    raise ValueError(f"cycle point {point} out of range [0, {len(images)})")
                if point in seen:
                    raise ValueError(f"cycle point {point} appears twice")
                seen.add(point)
                images[point] = cycle[(i + 1) % len(cycle)]
        return cls(n, tuple(images))

    def is_identity(self) -> bool:
        return all(v == x for x, v in enumerate(self.images))


def cycle_decomposition(p: Permutation) -> list[tuple[int, ...]]:
    """Disjoint cycles of length >= 2, each rotated to start at its minimum,
    sorted by that minimum.  Fixed points are omitted."""
    return _cycles(p.images, range(p.size))


def _cycles(images: Sequence[int], points: Iterable[int]) -> list[tuple[int, ...]]:
    """The cycles of length >= 2 of the image table that pass through
    `points`, given in ascending order, each started at its minimum."""
    seen = [False] * len(images)
    cycles = []
    for start in points:
        if seen[start] or images[start] == start:
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = images[x]
        cycles.append(tuple(cycle))
    return cycles


def is_even(p: Permutation) -> bool:
    """Even iff the cycles split into an even number of transpositions."""
    return sum(len(c) - 1 for c in cycle_decomposition(p)) % 2 == 0


Pair = tuple[int, int]


def _pair(a: int, b: int) -> Pair:
    """The transposition swapping a and b, as the pair (min, max)."""
    return (a, b) if a < b else (b, a)


def transposition_stream(p: Permutation, K: int) -> list[tuple[Pair, ...]]:
    """Decompose p into groups of K >= 1 independent transpositions followed
    by independent pairs, preserving the left-to-right product.  A group is
    a tuple of transpositions (a, b) with a < b and no point shared.

    Let r be what is left of p.  Every group comes from one scan: visit the
    points r moves in a given order, take the pair (x, r(x)) unless x or
    r(x) is already in the group, and apply it to r at once, until the group
    holds its pairs.  A pair (x, r(x)) splits x's cycle and fixes r(x), so
    the stream is a minimal factorization: one transposition per point a
    cycle loses, 2^n - c(p) in all for c(p) the cycles of p with fixed
    points counted, plus 2 when the 3-cycle rewrite fires.

    The scan runs in two orders.  While r's cycles hold at least 2K
    disjoint pairs (the sum of floor(l/2) over their lengths l), it visits
    the moving points in ascending order, so each group is built around the
    lowest points r moves.  Run over every point, these pairs would form a
    maximal matching of r's cycles, which holds at least half the 2K pairs,
    so the group fills.  The low hub points share their high bits, so half
    of each block's rows start near their slots and the conjugators shrink:
    about 7% fewer gates at n = 12 than consecutive cycle points give
    (BENCH_hubgroups.json).

    Below that guard the scan visits the outstanding cycles in the order of
    their minima, each from its minimum, in groups of K while K pairs are
    left and then of 2 while 2 are.  From (c0, c1, ..., c_{l-1}) it takes
    (c0,c1), which sends c0 to c2 and fixes c1, then (c2,c3), and so on:
    every other point, floor(l/2) pairs in all, since the last point of an
    odd cycle maps back to the hub c0.  j pairs leave the shorter cycle
    (c0, c2, ..., c_{2j-2}, c_{2j}, ..., c_{l-1}), which still starts at its
    minimum and runs in the order of the scan, so a group takes every pair
    the guard counts and the next group picks up where it stopped.

    What cannot fill a pair is left over: nothing, a lone transposition
    (odd p), or a 3-cycle (c0 c1 c2) = (c0,c1)(c0,c2).  The stream rewrites
    the 3-cycle as the two groups ((c0,c1), (r,s)) and ((r,s), (c0,c2)),
    where r < s are the two smallest points the cycle does not move: (r,s)
    cancels in the product, and the three cycle points leave two of the
    first five free once n >= 3.

    At K = 1 a group is the first pair the scan meets.  In either order that
    is (c0, r(c0)) for c0 the minimum of the first cycle left, so the stream
    is each cycle's star (c0,c1)(c0,c2)...(c0,c_{l-1}), cycles in the order
    of their minima, and no pair is left over.

    The points r moves sit in one list, in the order of the scan.  A group
    scans a prefix of it: its hubs, the points it takes as images, those
    whose image is a hub, and points fixed by earlier groups, which it
    drops.  So the stream takes time linear in the number of moved points,
    but for a C-level shift of the list when a group drops points.
    """
    if K < 1:
        raise ParameterError("group size K must be at least 1")
    groups: list[tuple[Pair, ...]] = []
    images = list(p.images)
    cycles = cycle_decomposition(p)
    cycle_of = [0] * p.size
    for c, cycle in enumerate(cycles):
        for x in cycle:
            cycle_of[x] = c
    lengths = list(map(len, cycles))
    pairs_left = sum(length // 2 for length in lengths)
    moving = list(compress(range(p.size), map(ne, images, range(p.size))))

    for size, guard in ((K, 2 * K), (K, K), (2, 2)):
        while pairs_left >= guard:
            batch: list[Pair] = []
            hubs: set[int] = set()
            # Each pair is applied to r as it is taken, which fixes r(x).  So
            # a point already taken as an image, or fixed by an earlier group
            # and still past the prefix dropped so far, reads as its own
            # image.  No two points share an image, so an image already in
            # the group is a hub.
            for end, x in enumerate(moving, 1):
                y = images[x]
                if y != x and y not in hubs:
                    images[x], images[y] = images[y], y
                    hubs.add(x)
                    batch.append(_pair(x, y))
                    c = cycle_of[x]
                    pairs_left -= lengths[c] % 2 == 0  # floor(l/2) falls iff l is even
                    lengths[c] -= 1
                    if len(batch) == size:
                        break
            else:
                raise ContractError(f"{len(batch)} pairs, expected {size}")
            moving[:end] = [x for x in moving[:end] if images[x] != x]
            groups.append(tuple(batch))
        if guard == 2 * K:  # below the hub guard, scan in cycle order
            moving = [x for cycle in _cycles(images, moving) for x in cycle]

    residual = _cycles(images, moving)
    if residual:
        if len(residual) != 1 or len(residual[0]) not in (2, 3):
            raise ContractError(f"residual cycles {residual}: expected one of length 2 or 3")
        c0, *rest = residual[0]
        if len(rest) == 1:
            groups.append((_pair(c0, rest[0]),))
        else:
            free = [x for x in range(min(5, p.size)) if x not in residual[0]]
            if len(free) < 2:
                raise CapacityError(f"no room for a fresh transposition on {p.size} points")
            fresh = (free[0], free[1])
            groups += [(_pair(c0, rest[0]), fresh), (fresh, _pair(c0, rest[1]))]
    return groups


def plain_transpositions(p: Permutation) -> list[Pair]:
    """The stream's groups of one: each cycle (c0, ..., c_{l-1}) becomes
    (c0,c1)(c0,c2)...(c0,c_{l-1}), c0 being the cycle's minimum, cycles in
    the order of their minima.  No two transpositions need be independent."""
    return [t for (t,) in transposition_stream(p, 1)]
