"""Parity, cycle structure and transposition grouping."""
from random import Random

import pytest

from rcsynth import CapacityError, ParameterError, Permutation
from rcsynth.perm import (
    cycle_decomposition,
    is_even,
    plain_transpositions,
    split_dependent_pair,
    transposition_stream,
    transpositions_product,
)
from rcsynth.synth_basic import synth_block
from conftest import random_even_permutation, random_permutation


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
            assert touched == {x for x in range(16) if p(x) != x}
            assert transpositions_product(plain_transpositions(p), 4) == p


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
    def test_spec_points(self):
        first, second = split_dependent_pair((0, 1), (0, 2), 3)
        assert first == ((0, 1), (3, 4))
        assert second == ((3, 4), (0, 2))

    def test_product_is_preserved(self):
        t1, t2 = (0, 1), (0, 2)
        first, second = split_dependent_pair(t1, t2, 3)
        direct = transpositions_product([t1, t2], 3)
        rewritten = transpositions_product(first + second, 3)
        assert direct == rewritten

    def test_four_transpositions_total(self):
        first, second = split_dependent_pair((1, 5), (5, 6), 3)
        assert len(first) + len(second) == 4

    def test_requires_shared_point(self):
        with pytest.raises(ParameterError):
            split_dependent_pair((0, 1), (2, 3), 3)

    def test_requires_room(self):
        with pytest.raises(CapacityError):
            split_dependent_pair((0, 1), (0, 2), 2)


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
            transposition_stream(Permutation.identity(3), 1)

    def test_recomposition_seeded(self):
        rng = Random(101)
        for trial in range(100):
            p = random_even_permutation(6, rng)
            for K in (2, 4):
                groups = transposition_stream(p, K)
                flat = [t for g in groups for t in g]
                assert transpositions_product(flat, 6) == p, (trial, K)

    def test_recomposition_at_table_limit(self):
        rng = Random(55)
        p = random_even_permutation(10, rng)
        for K in (2, 4, 8):
            flat = [t for g in transposition_stream(p, K) for t in g]
            assert transpositions_product(flat, 10) == p

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
            for group in transposition_stream(p, 3):
                points = {x for t in group for x in t}
                assert len(points) == 2 * len(group)

    def test_odd_permutation_streams_with_singleton(self):
        p = Permutation.from_cycles(3, [(0, 1)])
        groups = transposition_stream(p, 2)
        assert [len(g) for g in groups] == [1]
        assert groups[0] == ((0, 1),)
