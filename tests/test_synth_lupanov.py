"""Conjunction banks, XOR banks and the staged mapping synthesis."""
from random import Random

import pytest

from rcsynth import (
    BooleanMapping,
    CapacityError,
    Circuit,
    LineAllocator,
    ParameterError,
    choose_params,
    conjunction_bank,
    conjunction_gate_count,
    realized_mapping,
    synth_mapping,
    xor_bank,
)
from conftest import sweep_tables


class TestConjunctionGateCount:
    def test_frozen_values(self):
        # C(1)=0, C(2)=4, C(4)=24, C(10)=1120; totals are 2v + C(v).
        assert conjunction_gate_count(1) == 2
        assert conjunction_gate_count(2) == 8
        assert conjunction_gate_count(4) == 32
        assert conjunction_gate_count(10) == 2 * 10 + 1120

    def test_recurrence(self):
        def c(v):
            if v == 1:
                return 0
            return (1 << v) + c((v + 1) // 2) + c(v // 2)

        for v in range(1, 11):
            assert conjunction_gate_count(v) == 2 * v + c(v)


class TestConjunctionBank:
    @pytest.mark.parametrize("v", [1, 2, 3, 4, 6, 8, 10])
    def test_lines_hold_every_minterm(self, v):
        alloc = LineAllocator(v)
        gates, bank = conjunction_bank(tuple(range(v)), alloc)
        assert len(gates) == conjunction_gate_count(v)
        assert len(bank) == 1 << v
        tables = sweep_tables(alloc.next_free, v, gates)
        for assignment, line in bank.items():
            expected = 1 << assignment  # minterm truth table
            assert tables[line] == expected, (v, assignment)

    def test_base_case_reuses_input_line(self):
        alloc = LineAllocator(1)
        gates, bank = conjunction_bank((0,), alloc)
        assert bank[1] == 0
        assert bank[0] == 1
        assert len(gates) == 2

    def test_fresh_line_accounting(self):
        alloc = LineAllocator(2)
        gates, _ = conjunction_bank((0, 1), alloc)
        assert alloc.next_free - 2 == 6  # 2 negations + 4 products

    def test_allocator_cap(self):
        alloc = LineAllocator(4, cap=6)
        with pytest.raises(CapacityError):
            conjunction_bank((0, 1, 2, 3), alloc)


class TestXorBank:
    def test_single_line_needs_no_gates(self):
        alloc = LineAllocator(2)
        zero = alloc.take()
        gates, bank = xor_bank((0,), alloc, zero)
        assert gates == []
        assert bank == {0: zero, 1: 0}

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_subset_lines_exhaustive(self, s):
        alloc = LineAllocator(s)
        zero = alloc.take()
        gates, bank = xor_bank(tuple(range(s)), alloc, zero)
        assert len(bank) == 1 << s
        assert len(gates) <= 1 << (s + 1)
        tables = sweep_tables(alloc.next_free, s, gates)
        masks = sweep_tables(s, s, [])
        for subset, line in bank.items():
            expected = 0
            for i in range(s):
                if (subset >> i) & 1:
                    expected ^= masks[i]
            assert tables[line] == expected, (s, subset)

    def test_frozen_counts(self):
        counts = {}
        for s in (2, 4):
            alloc = LineAllocator(s)
            zero = alloc.take()
            gates, _ = xor_bank(tuple(range(s)), alloc, zero)
            counts[s] = len(gates)
        assert counts == {2: 2, 4: 22}


class TestChooseParams:
    def test_n12_example(self):
        k, s, p = choose_params(12)
        assert (k, s, p) == (5, 2, 16)

    def test_s_is_n_minus_2k(self):
        for n in range(4, 20):
            k, s, p = choose_params(n)
            assert s == n - 2 * k
            assert 1 <= s < n
            assert 1 <= k < n / 2
            assert p == -((1 << k) // -s)

    def test_small_n_rejected(self):
        with pytest.raises(ParameterError):
            choose_params(3)


class TestSynthMapping:
    def test_constant_zero(self):
        f = BooleanMapping(4, (0,) * 16)
        circuit, report = synth_mapping(f, 1, 2)
        assert realized_mapping(circuit).images == (0,) * 16
        assert report.gate_counts[3] == 0  # no coordinate gates
        assert report.gate_counts[4] == 0  # no output gates

    def test_identity_n4(self):
        f = BooleanMapping(4, tuple(range(16)))
        circuit, report = synth_mapping(f, 1, 2)
        assert realized_mapping(circuit).images == tuple(range(16))
        assert report.p == 1

    def test_forced_k2_on_n8_has_single_group(self):
        rng = Random(5)
        f = BooleanMapping(8, tuple(rng.randrange(256) for _ in range(256)))
        circuit, report = synth_mapping(f, 2, 4)
        assert (report.k, report.s, report.p) == (2, 4, 1)
        assert realized_mapping(circuit).images == f.images

    @pytest.mark.parametrize("n,k,s", [(4, 1, 2), (6, 2, 2)])
    def test_seeded_random_mappings(self, n, k, s):
        rng = Random(1000 + n)
        for trial in range(15):
            f = BooleanMapping(n, tuple(rng.randrange(1 << n) for _ in range(1 << n)))
            circuit, report = synth_mapping(f, k, s)
            assert realized_mapping(circuit).images == f.images, trial
            assert report.gate_counts[3] <= report.p * n * (1 << (n - k))
            assert report.gate_counts[4] <= n * (1 << (n - k))
            assert report.ancilla_counts[4] == n
            assert all(len(g.controls) <= 2 for g in circuit.gates)

    def test_stage_accounting_matches_circuit(self, rng):
        f = BooleanMapping(6, tuple(rng.randrange(64) for _ in range(64)))
        circuit, report = synth_mapping(f, 2, 2)
        assert report.total_gates == len(circuit.gates)
        assert report.total_ancillas == circuit.q

    def test_parameter_validation(self):
        f = BooleanMapping(4, tuple(range(16)))
        with pytest.raises(ParameterError):
            synth_mapping(f, 2, 0)  # k >= n/2
        with pytest.raises(ParameterError):
            synth_mapping(f, 1, 3)  # s != n - 2k

    def test_permutations_are_mappings_too(self, rng):
        images = list(range(16))
        rng.shuffle(images)
        f = BooleanMapping(4, tuple(images))
        circuit, _ = synth_mapping(f, 1, 2)
        assert realized_mapping(circuit).images == tuple(images)

    def test_psi_waiver_reported(self):
        f = BooleanMapping(4, tuple(range(16)))
        _, report = synth_mapping(f, 1, 2)
        # 2^1 / 2 = 1 < log2(4): unsatisfiable at this scale, waived.
        assert report.psi_waived is True


class TestStageBoundaries:
    def test_coordinate_lines_match_ring_sums(self, rng):
        # Every coordinate function f_{i,j}, lifted over all n-bit inputs,
        # is the truth table of some line before stage S5 starts.
        n, k, s = 6, 2, 2
        f = BooleanMapping(n, tuple(rng.randrange(64) for _ in range(64)))
        circuit, report = synth_mapping(f, k, s)
        before_s5 = circuit.gates[: report.total_gates - report.gate_counts[4]]
        tables = set(sweep_tables(circuit.m, n, before_s5))
        for i in range(1 << (n - k)):
            for j in range(n):
                expected = 0
                for w in range(1 << n):
                    sigma = w & ((1 << k) - 1)
                    if (f.images[sigma | (i << k)] >> j) & 1:
                        expected |= 1 << w
                assert expected in tables, (i, j)

    def test_controls_are_written_before_read(self, rng):
        f = BooleanMapping(4, tuple(rng.randrange(16) for _ in range(16)))
        circuit, _ = synth_mapping(f, 1, 2)
        written = set(range(circuit.n))
        for gate in circuit.gates:
            for c in gate.controls:
                assert c in written, f"line {c} read before first write"
            written.add(gate.target)

    def test_outputs_never_retargeted_after_final_write(self, rng):
        f = BooleanMapping(4, tuple(rng.randrange(16) for _ in range(16)))
        circuit, report = synth_mapping(f, 1, 2)
        stage5_start = report.total_gates - report.gate_counts[4]
        for gate in circuit.gates[:stage5_start]:
            assert gate.target not in circuit.outputs
