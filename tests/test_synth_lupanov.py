"""Conjunction banks, XOR banks and the staged mapping synthesis."""
import math
from random import Random

import pytest

from rcsynth import (
    BooleanMapping,
    CapacityError,
    ParameterError,
    realized_mapping,
    synth_mapping,
)
from rcsynth.bounds import PHI_REGISTRY
from rcsynth.circuit import MAX_LINES
from rcsynth.synth_lupanov import (
    LineAllocator,
    choose_params,
    conjunction_bank,
    conjunction_gate_count,
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
        alloc = LineAllocator(MAX_LINES - 6)
        with pytest.raises(CapacityError):
            conjunction_bank((0, 1, 2, 3), alloc)


class TestXorBank:
    def test_single_line_needs_no_gates(self):
        alloc = LineAllocator(2)
        gates, bank = xor_bank((0,), alloc)
        assert gates == []
        assert bank == {1: 0}
        assert alloc.next_free == 2

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_subset_lines_exhaustive(self, s):
        alloc = LineAllocator(s)
        gates, bank = xor_bank(tuple(range(s)), alloc)
        assert sorted(bank) == list(range(1, 1 << s))  # every nonempty subset
        assert alloc.next_free - s == (1 << s) - 1 - s
        assert len(gates) == 2 * ((1 << s) - 1 - s)
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
            gates, _ = xor_bank(tuple(range(s)), LineAllocator(s))
            counts[s] = len(gates)
        assert counts == {2: 2, 4: 22}


class TestChooseParams:
    def test_n12_example(self):
        assert choose_params(12) == 5

    def test_s_is_n_minus_2k(self):
        for n in range(3, 11):
            k = choose_params(n)
            assert 1 <= k < n / 2
            _, report = synth_mapping(BooleanMapping(n, (0,) * (1 << n)), k)
            assert (report.k, report.s) == (k, n - 2 * k)
            assert report.p == -((1 << k) // -report.s)

    def test_matches_phi_formula(self):
        # k = ceil(n / phi(n)) with the lupanov phi, clamped to s = n - 2k >= 1.
        phi = PHI_REGISTRY["lupanov"]
        for n in range(3, 1 << 12):
            assert choose_params(n) == min(math.ceil(n / phi(n)), (n - 1) // 2), n

    def test_small_n_rejected(self):
        assert choose_params(3) == 1
        for n in (1, 2):
            with pytest.raises(ParameterError):
                choose_params(n)


class TestSynthMapping:
    def test_constant_zero(self):
        f = BooleanMapping(4, (0,) * 16)
        circuit, report = synth_mapping(f, 1)
        assert realized_mapping(circuit).images == (0,) * 16
        assert report.gate_counts[3] == 0  # no output gates
        assert len(report.gate_counts) == len(report.ancilla_counts) == 4

    def test_identity_n4(self):
        f = BooleanMapping(4, tuple(range(16)))
        circuit, report = synth_mapping(f, 1)
        assert realized_mapping(circuit).images == tuple(range(16))
        assert report.p == 1

    def test_forced_k2_on_n8_has_single_group(self):
        rng = Random(5)
        f = BooleanMapping(8, tuple(rng.randrange(256) for _ in range(256)))
        circuit, report = synth_mapping(f, 2)
        assert (report.k, report.s, report.p) == (2, 4, 1)
        assert realized_mapping(circuit).images == f.images

    @pytest.mark.parametrize("n,k,s", [(4, 1, 2), (6, 2, 2)])
    def test_seeded_random_mappings(self, n, k, s):
        rng = Random(1000 + n)
        for trial in range(15):
            f = BooleanMapping(n, tuple(rng.randrange(1 << n) for _ in range(1 << n)))
            circuit, report = synth_mapping(f, k)
            assert realized_mapping(circuit).images == f.images, trial
            assert report.s == s
            assert report.gate_counts[3] <= report.p * n * (1 << (n - k))
            assert report.ancilla_counts[3] == n
            assert all(len(g.controls) <= 2 for g in circuit.gates)

    def test_stage_accounting_matches_circuit(self, rng):
        f = BooleanMapping(6, tuple(rng.randrange(64) for _ in range(64)))
        circuit, report = synth_mapping(f, 2)
        assert sum(report.gate_counts) == len(circuit)
        assert sum(report.ancilla_counts) == circuit.q

    def test_parameter_validation(self):
        f = BooleanMapping(4, tuple(range(16)))
        with pytest.raises(ParameterError):
            synth_mapping(f, 2)  # k >= n/2

    def test_permutations_are_mappings_too(self, rng):
        images = list(range(16))
        rng.shuffle(images)
        f = BooleanMapping(4, tuple(images))
        circuit, _ = synth_mapping(f, 1)
        assert realized_mapping(circuit).images == tuple(images)

    def test_psi_waiver_reported(self):
        f = BooleanMapping(4, tuple(range(16)))
        _, report = synth_mapping(f, 1)
        # 2^1 / 2 = 1 < log2(4): unsatisfiable at this scale, waived.
        assert report.psi_waived is True


class TestStageBoundaries:
    def test_coordinate_lines_match_ring_sums(self, rng):
        # Every nonzero restriction of a coordinate function f_{i,j} to a
        # group of s first-bank minterms, lifted over all n-bit inputs, is the
        # truth table of its XOR-bank line before the output stage starts.
        n, k = 6, 2
        f = BooleanMapping(n, tuple(rng.randrange(64) for _ in range(64)))
        circuit, report = synth_mapping(f, k)
        assert report.p == 2
        before_s4 = circuit.gates[: len(circuit) - report.gate_counts[3]]
        tables = set(sweep_tables(circuit.m, n, before_s4))
        checked = 0
        for i in range(1 << (n - k)):
            for j in range(n):
                for start in range(0, 1 << k, report.s):
                    expected = 0
                    for w in range(1 << n):
                        sigma = w & ((1 << k) - 1)
                        if start <= sigma < start + report.s and (
                            f.images[sigma | (i << k)] >> j
                        ) & 1:
                            expected |= 1 << w
                    if expected:
                        assert expected in tables, (i, j, start)
                        checked += 1
        assert checked == report.gate_counts[3]  # one output gate per restriction

    def test_controls_are_written_before_read(self, rng):
        f = BooleanMapping(4, tuple(rng.randrange(16) for _ in range(16)))
        circuit, _ = synth_mapping(f, 1)
        written = set(range(circuit.n))
        for gate in circuit.gates:
            for c in gate.controls:
                assert c in written, f"line {c} read before first write"
            written.add(gate.target)

    def test_outputs_never_retargeted_after_final_write(self, rng):
        f = BooleanMapping(4, tuple(rng.randrange(16) for _ in range(16)))
        circuit, report = synth_mapping(f, 1)
        stage4_start = len(circuit) - report.gate_counts[3]
        for gate in circuit.gates[:stage4_start]:
            assert gate.target not in circuit.outputs
