"""Parity, cycle structure and transposition grouping."""
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcsynth import CapacityError, ParameterError, Permutation
from rcsynth.perm import (
    cycle_decomposition,
    is_even,
    plain_transpositions,
    transposition_stream,
)
from rcsynth.synth_basic import synth_block
from conftest import random_even_permutation, random_permutation, transpositions_product


class TestParity:
    def test_identity_is_even(self):
        assert is_even(Permutation.identity(3))

    def test_single_transposition_is_odd(self):
        p = Permutation.from_cycles(2, [(0, 1)])
        assert not is_even(p)

    def test_two_disjoint_transpositions_are_even(self):
        p = Permutation.from_cycles(2, [(0, 1), (2, 3)])
        assert is_even(p)

    def test_matches_transposition_count(self, rng):
        for _ in range(20):
            p = random_permutation(4, rng)
            groups = transposition_stream(p, 2) if not p.is_identity() else []
            count = sum(len(g) for g in groups)
            assert is_even(p) == (count % 2 == 0)


class TestMovedPoints:
    """plain_transpositions touches exactly the points p moves."""

    def test_identity_moves_nothing(self):
        assert plain_transpositions(Permutation.identity(2)) == []

    def test_transposition_moves_two(self):
        p = Permutation.from_cycles(2, [(0, 1)])
        assert plain_transpositions(p) == [(0, 1)]

    def test_bounded_by_domain(self, rng):
        for _ in range(10):
            p = random_permutation(4, rng)
            touched = {x for t in plain_transpositions(p) for x in t}
            assert touched == {x for x in range(16) if p.images[x] != x}
            assert transpositions_product(plain_transpositions(p), 4) == p

    def test_star_order(self):
        # Each cycle's star (c0,c1)(c0,c2)... from its minimum, cycles in
        # the order of their minima: the stream's groups of one.
        rng = Random(27)
        for n in range(1, 9):
            for _ in range(10):
                p = random_permutation(n, rng)
                star = [(c[0], x) for c in _cycles_by_minimum(p.images) for x in c[1:]]
                assert plain_transpositions(p) == star
                assert transposition_stream(p, 1) == [(t,) for t in star]


class TestCycles:
    def test_identity_has_no_cycles(self):
        assert cycle_decomposition(Permutation.identity(3)) == []

    def test_three_cycle(self):
        p = Permutation(2, (1, 2, 0, 3))
        assert cycle_decomposition(p) == [(0, 1, 2)]

    def test_canonical_ordering(self):
        p = Permutation.from_cycles(3, [(5, 3, 7), (2, 1)])
        cycles = cycle_decomposition(p)
        assert cycles == [(1, 2), (3, 7, 5)]
        for cycle in cycles:
            assert cycle[0] == min(cycle)

    def test_product_of_cycles_rebuilds_permutation(self, rng):
        for _ in range(20):
            p = random_permutation(4, rng)
            assert Permutation.from_cycles(4, cycle_decomposition(p)) == p

    @pytest.mark.parametrize(
        "n, cycles, message",
        [
            (2, [(0, -4)], r"cycle point -4 out of range \[0, 4\)"),
            (3, [(1, -7), (2, 3)], r"cycle point -7 out of range \[0, 8\)"),
            (2, [(0, 5)], r"cycle point 5 out of range \[0, 4\)"),
            (2, [(0, 1), (1, 0)], "cycle point 1 appears twice"),
            (2, [(0, 1.0)], "cycle point 1.0 is not an int"),
            (2, [(True, 0)], "cycle point True is not an int"),
            (2.0, [(0, 1)], "bit count 2.0 is not an int"),
        ],
    )
    def test_from_cycles_rejects_bad_points(self, n, cycles, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Permutation.from_cycles(n, cycles)

    @pytest.mark.parametrize("n, message", [(2.0, "bit count 2.0 is not an int"),
                                            (-1, "bit count must be at least 1")])
    def test_identity_rejects_bad_bit_count(self, n, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Permutation.identity(n)

    def test_from_cycles_rejects_point_repeated_in_one_cycle(self):
        with pytest.raises(ValueError, match="^cycle point 0 appears twice$"):
            Permutation.from_cycles(2, [(0, 1, 0)])

    def test_length_budget(self, rng):
        p = random_permutation(5, rng)
        assert sum(len(c) for c in cycle_decomposition(p)) <= 32


class TestTranspositionGroup:
    """A group is a tuple of pairs (a, b), a < b, sharing no point; the block
    that realizes it rejects any other."""

    def test_normalization(self, rng):
        for _ in range(20):
            p = random_permutation(5, rng)
            for K in (2, 4):
                for group in transposition_stream(p, K):
                    assert all(a < b for a, b in group)

    def test_degenerate_transposition_rejected(self):
        with pytest.raises(ParameterError, match="distinct"):
            synth_block(((2, 2), (0, 1)), 3)

    def test_dependent_members_rejected(self):
        with pytest.raises(ParameterError, match="distinct"):
            synth_block(((0, 1), (1, 2)), 3)


class TestSplitDependentPair:
    """The stream's 3-cycle rewrite: a 3-cycle (c0 c1 c2) = (c0,c1)(c0,c2)
    left after the groups of 2 is split into two groups of independent
    pairs through a fresh pair on the two smallest points it does not move."""

    def test_spec_points(self):
        p = Permutation.from_cycles(3, [(0, 1, 2)])
        assert transposition_stream(p, 2) == [((0, 1), (3, 4)), ((3, 4), (0, 2))]

    def test_product_is_preserved(self):
        for cycle in ((0, 1, 2), (1, 5, 6), (3, 7, 4)):
            check_stream(Permutation.from_cycles(3, [cycle]), 2)

    def test_four_transpositions_total(self):
        groups = check_stream(Permutation.from_cycles(3, [(1, 5, 6)]), 2)
        assert groups == [((1, 5), (0, 2)), ((0, 2), (1, 6))]

    def test_requires_room(self):
        p = Permutation.from_cycles(2, [(0, 1, 2)])
        with pytest.raises(CapacityError, match="^no room for a fresh transposition on 4 points$"):
            transposition_stream(p, 2)


def _cycle_lengths(images):
    """Lengths of every cycle of the image table, fixed points as 1."""
    seen, lengths = set(), []
    for start in range(len(images)):
        x, length = start, 0
        while x not in seen:
            seen.add(x)
            x, length = images[x], length + 1
        if length:
            lengths.append(length)
    return lengths


def _hub_group(images, K):
    """The pairs (x, r(x)) for the K lowest x that r moves, skipping x when
    x or r(x) is already taken, each as (min, max)."""
    group, taken = [], set()
    for x, y in enumerate(images):
        if y != x and x not in taken and y not in taken and len(group) < K:
            group.append((min(x, y), max(x, y)))
            taken |= {x, y}
    return tuple(group)


def _cycles_by_minimum(images):
    """The cycles of length >= 2 of the image table, in the order of their
    minima, each a list read from its minimum."""
    seen, cycles = set(), []
    for start, image in enumerate(images):
        if start in seen or image == start:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = images[x]
        cycles.append(cycle)
    return cycles


def _walk_group(images, size):
    """The first size pairs (c0,c1)(c2,c3)... of r's cycles, walked in the
    order of their minima, each from its minimum, as (min, max)."""
    pairs = [
        (min(cycle[i], cycle[i + 1]), max(cycle[i], cycle[i + 1]))
        for cycle in _cycles_by_minimum(images)
        for i in range(0, len(cycle) - 1, 2)
    ]
    return tuple(pairs[:size])


def check_stream(p, K):
    """The stream of p recomposes to p from groups of independent pairs, is
    a minimal factorization (2^n - c(p) transpositions for c(p) the cycles
    of p, fixed points included, 2 more when the stream ends in the 3-cycle
    rewrite), and takes its groups, with r what is left of p holding P
    disjoint pairs:
    - while P >= 2K, K pairs around the lowest points r moves;
    - then K pairs while P >= K and 2 while P >= 2, walked from r's cycles
      in the order of their minima;
    - then the residual, one group for a 2-cycle and two for a 3-cycle."""
    groups = transposition_stream(p, K)
    flat = [t for g in groups for t in g]
    assert transpositions_product(flat, p.n) == p
    for group in groups:
        assert all(a < b for a, b in group)
        assert len({x for t in group for x in t}) == 2 * len(group)
    # The rewrite ends the stream with (t1, fresh), (fresh, t2), where t1
    # and t2 share one point.
    last = [g for g in groups[-2:] if len(g) == 2]
    rewrite = len(last) == 2 and last[0][1] == last[1][0] and len(set(last[0][0]) & set(last[1][1])) == 1
    assert len(flat) == p.size - len(_cycle_lengths(p.images)) + 2 * rewrite
    rest = list(p.images)
    for i, group in enumerate(groups):
        pairs = sum(length // 2 for length in _cycle_lengths(rest))
        if pairs >= 2 * K:
            assert group == _hub_group(rest, K)
        elif pairs >= K:
            assert group == _walk_group(rest, K)
        elif pairs >= 2:
            assert group == _walk_group(rest, 2)
        else:
            residual = [len(c) for c in _cycles_by_minimum(rest)]
            assert residual in ([2], [3]) and len(groups) - i == residual[0] - 1
            break
        swap = {a: b for t in group for a, b in (t, t[::-1])}
        rest = [rest[swap.get(x, x)] for x in range(len(rest))]
    return groups


class TestTranspositionStream:
    def test_identity_is_empty(self):
        assert transposition_stream(Permutation.identity(3), 2) == []

    def test_five_cycle_with_pairs(self):
        p = Permutation.from_cycles(3, [(0, 1, 2, 3, 4)])
        groups = transposition_stream(p, 2)
        assert groups[0] == ((0, 1), (2, 3))
        flat = [t for g in groups for t in g]
        assert transpositions_product(flat, 3) == p

    def test_group_size_validation(self):
        with pytest.raises(ParameterError):
            transposition_stream(Permutation.identity(3), 0)

    def test_recomposition_seeded(self):
        rng = Random(101)
        for trial in range(100):
            p = random_even_permutation(6, rng)
            for K in (2, 4):
                check_stream(p, K)

    def test_recomposition_at_table_limit(self):
        rng = Random(55)
        p = random_even_permutation(10, rng)
        for K in (2, 4, 8):
            check_stream(p, K)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(3, 8).flatmap(lambda n: st.permutations(range(1 << n))),
        st.sampled_from([1, 2, 3, 4, 5, 8, 16]),
        st.booleans(),
    )
    def test_minimal_hub_factorization(self, images, K, odd):
        n = len(images).bit_length() - 1
        if is_even(Permutation(n, images)) == odd:
            images[0], images[1] = images[1], images[0]
        check_stream(Permutation(n, images), K)

    def test_group_structure(self, rng):
        # full K-groups first, then pairs; a lone transposition only for odd p.
        for trial in range(30):
            p = random_permutation(5, rng)
            if p.is_identity():
                continue
            groups = transposition_stream(p, 4)
            sizes = [len(g) for g in groups]
            tail_start = next((i for i, s in enumerate(sizes) if s != 4), len(sizes))
            tail = sizes[tail_start:]
            assert all(s == 4 for s in sizes[:tail_start])
            assert all(s == 2 for s in tail[:-1])
            if tail:
                assert tail[-1] in (1, 2)
                if tail[-1] == 1:
                    assert not is_even(p)

    def test_groups_are_internally_independent(self, rng):
        for _ in range(20):
            p = random_even_permutation(5, rng)
            check_stream(p, 3)

    def test_odd_permutation_streams_with_singleton(self):
        p = Permutation.from_cycles(3, [(0, 1)])
        groups = transposition_stream(p, 2)
        assert [len(g) for g in groups] == [1]
        assert groups[0] == ((0, 1),)
