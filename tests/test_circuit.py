"""Gate semantics, simulation, inversion, counting and gadgets."""
from random import Random

import pytest

from rcsynth import CapacityError, Circuit, Gate, Permutation, realized_mapping
from rcsynth.circuit import (
    ccnot,
    cnot,
    count_gates,
    not_gate,
    simulate,
    truth_table_masks,
)
from rcsynth.perm import is_even
from rcsynth.synth_lupanov import LineAllocator, conjunction_bank, xor_bank
from conftest import naive_mapping, random_circuit


def whole_state_permutation(c):
    """The bijection on all 2^m states: realized_mapping of the circuit
    widened so that every line is an input and an output."""
    widened = Circuit(c.m, c.m, c.gates, tuple(range(c.m)))
    return Permutation(c.m, realized_mapping(widened).images)


def all_basis_gates(m):
    gates = [not_gate(t) for t in range(m)]
    gates += [cnot(c, t) for c in range(m) for t in range(m) if c != t]
    gates += [
        ccnot(c1, c2, t)
        for c1 in range(m)
        for c2 in range(c1 + 1, m)
        for t in range(m)
        if t not in (c1, c2)
    ]
    return gates


class TestApplyGate:
    def test_not_sets_bit(self):
        assert not_gate(0).apply_to_bits(0b00) == 0b01

    def test_toffoli_fires_only_when_all_controls_set(self):
        gate = ccnot(0, 1, 2)
        assert gate.apply_to_bits(0b011) == 0b111
        assert gate.apply_to_bits(0b001) == 0b001

    def test_every_gate_is_an_involution(self):
        for gate in all_basis_gates(4):
            for bits in range(16):
                assert gate.apply_to_bits(gate.apply_to_bits(bits)) == bits

    def test_locality_changes_at_most_one_bit(self):
        for gate in all_basis_gates(4):
            for bits in range(16):
                after = gate.apply_to_bits(bits)
                assert bin(after ^ bits).count("1") <= 1

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            Circuit(2, 2, (not_gate(3),), (0, 1))
        with pytest.raises(ValueError):
            Circuit(2, 2, (cnot(0, 2),), (0, 1))
        with pytest.raises(ValueError):
            Circuit(2, 2, (cnot(-1, 0),), (0, 1))


class TestGateValidation:
    # A gate is a plain value; the Circuit holding it checks its lines.
    def test_target_cannot_be_a_control(self):
        with pytest.raises(ValueError, match="also a control"):
            Circuit(3, 3, (Gate((0, 1), 1),), (0, 1, 2))

    def test_duplicate_controls_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Circuit(3, 3, (Gate((0, 0), 1),), (0, 1, 2))
        # Three controls, repeated or not, are outside the basis first.
        with pytest.raises(ValueError, match="outside the basis"):
            Circuit(5, 5, (Gate((3, 0, 3), 1),), tuple(range(5)))

    def test_controls_are_sorted_and_define_equality(self):
        assert Gate((2, 0), 1).controls == (0, 2)
        assert Gate((2, 0), 1) == ccnot(0, 2, 1)
        assert Gate((2, 0), 1).target == 1


class TestSimulate:
    def test_empty_circuit_is_identity(self):
        c = Circuit(3, 3, (), (0, 1, 2))
        for w in range(8):
            assert simulate(c, w) == (w, w)

    def test_cnot_circuit(self):
        c = Circuit(2, 2, (cnot(0, 1),), (0, 1))
        assert simulate(c, 0b01)[0] == 0b11

    def test_ancilla_enables_control(self):
        c = Circuit(3, 2, (not_gate(2), ccnot(0, 2, 1)), (0, 1))
        output, final = simulate(c, 0b01)
        assert output == 0b11
        assert final == 0b111

    def test_input_must_fit(self):
        c = Circuit(2, 2, (), (0, 1))
        with pytest.raises(ValueError):
            simulate(c, 4)


class TestRealizedMapping:
    def test_empty_circuit(self):
        c = Circuit(2, 2, (), (0, 1))
        assert realized_mapping(c).images == (0, 1, 2, 3)

    def test_single_not(self):
        c = Circuit(1, 1, (not_gate(0),), (0,))
        assert realized_mapping(c).images == (1, 0)

    def test_matches_reference_simulation(self, rng):
        for _ in range(25):
            m = rng.randrange(2, 7)
            n = rng.randrange(1, m + 1)
            c = random_circuit(m, rng.randrange(0, 25), rng, n=n)
            assert list(realized_mapping(c).images) == naive_mapping(c)

    def test_cap_env_override(self, monkeypatch):
        c = Circuit(4, 4, (), (0, 1, 2, 3))
        monkeypatch.setenv("RCSYNTH_CAP", "3")
        with pytest.raises(CapacityError):
            realized_mapping(c)
        monkeypatch.setenv("RCSYNTH_CAP", "4")
        assert realized_mapping(c).images == tuple(range(16))


class TestCircuitPermutation:
    def test_single_not(self):
        c = Circuit(1, 1, (not_gate(0),), (0,))
        assert whole_state_permutation(c).images == (1, 0)

    def test_cnot_table(self):
        c = Circuit(2, 2, (cnot(0, 1),), (0, 1))
        assert whole_state_permutation(c).images == (0, 3, 2, 1)

    def test_even_on_four_or_more_lines(self, rng):
        for _ in range(15):
            m = rng.randrange(4, 7)
            c = random_circuit(m, rng.randrange(1, 30), rng)
            assert is_even(whole_state_permutation(c))

    def test_agrees_with_realized_mapping(self, rng):
        # psi(g(phi(w))): pad with zero ancillas, permute, project outputs.
        sizes = [(rng.randrange(2, 7), None) for _ in range(15)] + [(12, 6)]
        for m, n in sizes:
            n = rng.randrange(1, m + 1) if n is None else n
            c = random_circuit(m, rng.randrange(0, 20), rng, n=n)
            g = whole_state_permutation(c)
            realized = realized_mapping(c)
            for w in range(1 << n):
                full = g.images[w]
                projected = sum(
                    ((full >> line) & 1) << j for j, line in enumerate(c.outputs)
                )
                assert projected == realized.images[w]


class TestInvert:
    """Every basis gate is an involution, so the reversed gate sequence
    realizes the inverse permutation."""

    @staticmethod
    def invert(c):
        return Circuit(c.m, c.n, tuple(reversed(c.gates)), c.outputs)

    def test_double_inversion(self, rng):
        c = random_circuit(5, 12, rng)
        assert self.invert(self.invert(c)) == c

    def test_single_gate_circuit_is_its_own_inverse(self):
        c = Circuit(3, 3, (ccnot(0, 1, 2),), (0, 1, 2))
        assert self.invert(c) == c

    def test_composition_with_inverse_is_identity(self, rng):
        c = random_circuit(6, 20, rng)
        combined = Circuit(6, 6, c.gates + self.invert(c).gates, tuple(range(6)))
        assert realized_mapping(combined).images == tuple(range(64))

    def test_permutation_tables_are_inverse(self, rng):
        c = random_circuit(5, 15, rng)
        forward = whole_state_permutation(c).images
        backward = whole_state_permutation(self.invert(c)).images
        inverse = [0] * len(forward)
        for x, y in enumerate(forward):
            inverse[y] = x
        assert list(backward) == inverse


class TestCountGates:
    def test_empty(self):
        report = count_gates(Circuit(2, 2, (), (0, 1)))
        assert (report.nots, report.cnots, report.toffolis) == (0, 0, 0)

    def test_mixed(self):
        c = Circuit(3, 3, (not_gate(0), cnot(0, 1), ccnot(0, 1, 2)), (0, 1, 2))
        report = count_gates(c)
        assert (report.nots, report.cnots, report.toffolis) == (1, 1, 1)

    def test_three_controls_count_as_generalized(self):
        # No circuit holds a generalized gate, so none is ever counted.
        gates = (not_gate(0), cnot(0, 1), ccnot(0, 1, 2), Gate((0, 1, 2), 3))
        with pytest.raises(ValueError, match="^gate 3: gate with 3 controls is outside the basis$"):
            Circuit(4, 4, gates, (0, 1, 2, 3))


class TestBasisGadget:
    """The {not, xor, and} gadgets the banks build on fresh zero lines."""

    def value_on_fresh(self, gates, sources_bits, m, fresh):
        bits = list(sources_bits) + [0] * (m - len(sources_bits))
        for gate in gates:
            if all(bits[c] == 1 for c in gate.controls):
                bits[gate.target] ^= 1
        return bits, bits[fresh]

    def test_negation(self):
        gates, bank = conjunction_bank((0,), LineAllocator(1))
        assert gates == [not_gate(1), cnot(0, 1)] and bank[0] == 1
        for a in (0, 1):
            bits, value = self.value_on_fresh(gates, [a], 2, 1)
            assert value == 1 - a
            assert bits[0] == a

    def test_xor(self):
        gates, bank = xor_bank((0, 1), LineAllocator(2))
        assert gates == [cnot(0, 2), cnot(1, 2)] and bank == {1: 0, 2: 1, 3: 2}
        for a in (0, 1):
            for b in (0, 1):
                bits, value = self.value_on_fresh(gates, [a, b], 3, 2)
                assert value == a ^ b
                assert bits[:2] == [a, b]

    def test_conjunction(self):
        gates, bank = conjunction_bank((0, 1), LineAllocator(2))
        assert gates[-1] == ccnot(0, 1, bank[3])
        for a in (0, 1):
            for b in (0, 1):
                _, value = self.value_on_fresh(gates, [a, b], 8, bank[3])
                assert value == a & b


class TestCircuitValidation:
    def test_outputs_must_be_distinct(self):
        with pytest.raises(ValueError):
            Circuit(2, 2, (), (0, 0))

    def test_q_nonnegative(self):
        with pytest.raises(ValueError):
            Circuit(1, 2, (), (0, 1))

    def test_gate_must_fit(self):
        with pytest.raises(ValueError):
            Circuit(2, 2, (not_gate(2),), (0, 1))


def test_truth_table_masks():
    masks = truth_table_masks(3)
    for w in range(8):
        for i in range(3):
            assert (masks[i] >> w) & 1 == (w >> i) & 1
