"""Block synthesis and no-ancilla synthesis of (even) permutations."""
from itertools import permutations as all_orderings
from random import Random

import pytest

from rcsynth import (
    Circuit,
    ContractError,
    ParameterError,
    ParityError,
    Permutation,
    realized_mapping,
    synth_even_permutation,
)
from rcsynth.bounds import block_upper, pair_block_upper
from rcsynth.circuit import cnot, simulate
from rcsynth.perm import transposition_stream, transpositions_product
from rcsynth import synth_basic
from rcsynth.synth_basic import _canonicalize, synth_block
from conftest import random_even_permutation, random_permutation


def random_group(n, K, rng):
    points = rng.sample(range(1 << n), 2 * K)
    return tuple(tuple(sorted(points[2 * i : 2 * i + 2])) for i in range(K))


def block_realizes_group(group, n, ancilla_lines=()):
    gates = synth_block(group, n, ancilla_lines)
    m = n + len(ancilla_lines)
    circuit = Circuit(m, n, tuple(gates), tuple(range(n)))
    want = transpositions_product(group, n)
    return realized_mapping(circuit).images == want.images, gates


class TestChooseBlockSize:
    """The default block size is k = 4 from three lines on, k = 2 below."""

    def test_small_n_clamps_to_four(self):
        rng = Random(3)
        for n in range(3, 9):
            p = random_even_permutation(n, rng)
            default, _ = synth_even_permutation(p)
            forced, _ = synth_even_permutation(p, k=4)
            assert default == forced, n

    def test_postconditions_over_sweep(self):
        # The default is admissible on every line count, with and without
        # the n - 3 clean helpers.
        for n in range(2, 11):
            for budget in {0, max(n - 3, 0)}:
                p = Permutation.identity(n)
                circuit, _ = synth_even_permutation(p, ancilla_budget=budget)
                assert len(circuit) == 0


class TestBlockMatrix:
    """The block's moved points, as rows of bits, must be 2^j distinct n-bit
    points with j < n."""

    def test_row_count_must_be_power_of_two(self):
        with pytest.raises(ParameterError, match="power of two"):
            synth_block(((0, 1), (2, 3), (4, 5)), 4)

    def test_rows_must_be_distinct(self):
        with pytest.raises(ParameterError, match="distinct"):
            synth_block(((0, 1), (1, 2)), 4)

    def test_width_constraint(self):
        with pytest.raises(ParameterError, match="needs log2 k < n=1"):
            synth_block(((0, 1),), 1)

    def test_rows_must_be_n_bit_points(self):
        with pytest.raises(ParameterError, match="n-bit"):
            synth_block(((0, 16), (1, 2)), 4)


class TestSynthBlock:
    def test_pair_block_n4(self):
        group = ((0, 1), (2, 3))
        ok, gates = block_realizes_group(group, 4)
        assert ok
        assert len(gates) <= block_upper(4, 4)

    def test_random_groups_exhaustive(self, rng):
        # K=1 blocks need the core gate to stay in the basis: n <= 3.
        for n, K in ((4, 2), (5, 2), (6, 2), (5, 4), (6, 4), (3, 1), (3, 2)):
            for _ in range(8):
                group = random_group(n, K, rng)
                ok, gates = block_realizes_group(group, n)
                assert ok, (n, K, group)
                assert len(gates) <= block_upper(n, 2 * K)
                assert all(len(g.controls) <= 2 for g in gates)

    def test_clean_core_variant(self, rng):
        for _ in range(8):
            n = 6
            group = random_group(n, 2, rng)
            ancillas = tuple(range(n, 2 * n - 3))
            ok, gates = block_realizes_group(group, n, ancillas)
            assert ok
            # clean helpers must be restored on every input
            circuit = Circuit(2 * n - 3, n, tuple(gates), tuple(range(n)))
            for w in range(1 << n):
                _, final = simulate(circuit, w)
                assert final >> n == 0

    def test_mirror_symmetry(self, rng):
        # With k = 4 every conjugator is a basis gate and is emitted as is:
        # the block reads conjugators, expanded core, conjugators reversed.
        group = random_group(6, 2, rng)
        conjugators, _ = _canonicalize([x for t in group for x in t], 6)
        gates = synth_block(group, 6)
        j = len(conjugators)
        assert j > 0
        assert gates[:j] == conjugators
        assert gates[len(gates) - j :] == conjugators[::-1]
        assert all(
            t not in cs and len(set(cs)) == len(cs) for cs, t in conjugators
        )

    def test_over_budget_block_raises(self, monkeypatch, rng):
        monkeypatch.setattr(synth_basic, "block_upper", lambda n, k: 0)
        with pytest.raises(ContractError, match="budget"):
            synth_block(random_group(5, 2, rng), 5)

    def test_canonical_form_postcondition_raises(self, monkeypatch):
        # CNOTs with control and target swapped leave the rows short of the
        # canonical form; the typed check, unlike an assert, survives -O.
        monkeypatch.setattr(synth_basic, "cnot", lambda c, t: cnot(t, c))
        with pytest.raises(ContractError, match=r"rows \[12, 15, 9, 10\]"):
            synth_block(((0, 3), (5, 6)), 4)

    def test_eight_point_block(self, rng):
        # k = 8 exercises generalized conjugators through borrowed expansion.
        group = random_group(6, 4, rng)
        ok, gates = block_realizes_group(group, 6)
        assert ok
        assert len(gates) <= block_upper(6, 8)


class TestSynthEvenPermutation:
    def test_identity_yields_empty_circuit(self):
        circuit, report = synth_even_permutation(Permutation.identity(4))
        assert len(circuit.gates) == 0
        assert (report.nots, report.cnots, report.toffolis) == (0, 0, 0)

    def test_double_transposition_n4(self):
        p = Permutation.from_cycles(4, [(0, 1), (2, 3)])
        circuit, _ = synth_even_permutation(p)
        assert realized_mapping(circuit).images == p.images

    def test_seeded_even_permutations_n6(self):
        rng = Random(2024)
        budget = (1 << 7) // 4 * block_upper(6, 4) + 4 * pair_block_upper(6)
        for trial in range(25):
            p = random_even_permutation(6, rng)
            circuit, report = synth_even_permutation(p, k=4)
            assert realized_mapping(circuit).images == p.images, trial
            assert report.nots + report.cnots + report.toffolis == len(circuit)
            assert len(circuit) <= budget

    def test_all_gates_in_basis(self, rng):
        p = random_even_permutation(5, rng)
        circuit, report = synth_even_permutation(p, k=4)
        assert report.nots + report.cnots + report.toffolis == len(circuit)
        assert all(len(g.controls) <= 2 for g in circuit.gates)

    def test_odd_rejected_without_ancillas(self):
        p = Permutation.from_cycles(4, [(0, 1)])
        with pytest.raises(ParityError):
            synth_even_permutation(p)

    def test_odd_succeeds_with_ancilla_budget(self):
        p = Permutation.from_cycles(4, [(0, 1)])
        circuit, _ = synth_even_permutation(p, ancilla_budget=1)
        assert circuit.m == 5
        assert realized_mapping(circuit).images == p.images

    def test_ancilla_budget_restores_helpers(self, rng):
        p = random_even_permutation(5, rng)
        circuit, _ = synth_even_permutation(p, k=4, ancilla_budget=2)
        assert circuit.m == 7
        assert realized_mapping(circuit).images == p.images
        for w in range(32):
            _, final = simulate(circuit, w)
            assert final >> 5 == 0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ParameterError):
            synth_even_permutation(Permutation.identity(5), ancilla_budget=1)

    def test_undecomposable_k_rejected(self):
        with pytest.raises(ParameterError):
            synth_even_permutation(Permutation.identity(4), k=8)
        with pytest.raises(ParameterError):
            synth_even_permutation(Permutation.identity(5), k=2)

    def test_n2_all_permutations(self):
        for images in all_orderings(range(4)):
            p = Permutation(2, tuple(images))
            circuit, _ = synth_even_permutation(p)
            assert realized_mapping(circuit).images == tuple(images)
            assert circuit.m == 2

    def test_n3_including_odd(self, rng):
        for _ in range(15):
            p = random_permutation(3, rng)
            circuit, _ = synth_even_permutation(p)
            assert realized_mapping(circuit).images == p.images
            assert circuit.m == 3

    def test_n1(self):
        for images in ((0, 1), (1, 0)):
            p = Permutation(1, images)
            circuit, _ = synth_even_permutation(p)
            assert realized_mapping(circuit).images == images
            for k in (2, 3):
                with pytest.raises(ParameterError):
                    synth_even_permutation(p, k=k)


class TestBlockBudgets:
    def test_every_block_within_budget(self):
        rng = Random(99)
        for n in (5, 6, 7):
            for _ in range(10):
                p = random_even_permutation(n, rng)
                for group in transposition_stream(p, 2):
                    gates = synth_block(group, n)
                    k = 2 * len(group)
                    assert len(gates) <= block_upper(n, k)
                    if k == 4:
                        assert len(gates) <= pair_block_upper(n)

    def test_pairs_mode_total_below_reference(self):
        rng = Random(7)
        for n in (6, 8):
            totals = []
            for _ in range(5):
                p = random_even_permutation(n, rng)
                circuit, _ = synth_even_permutation(p, k=4)
                totals.append(len(circuit))
            limit = 6 * n * (1 << n) * 1.5
            assert max(totals) <= limit, (n, totals, limit)
