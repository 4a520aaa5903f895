"""Conjunction banks, the accumulator walk, the (k, s) chooser and the
staged mapping synthesis."""
from collections import Counter
from itertools import count
from random import Random

import pytest

from rcsynth import (
    BooleanMapping,
    CapacityError,
    ContractError,
    ParameterError,
    realized_mapping,
    synth_mapping,
)
from rcsynth import synth_lupanov
from rcsynth.synth_lupanov import (
    choose_params,
    conjunction_bank,
    conjunction_gate_count,
    xor_walk,
)
from conftest import sweep_tables


def random_mapping(n, rng):
    return BooleanMapping(n, tuple(rng.randrange(1 << n) for _ in range(1 << n)))


def admissible(n, k):
    """Every s whose walks take at most n 2^n gates, for which
    synth_mapping builds the circuit."""
    return [s for s in range(1, (1 << k) + 1) if synth_lupanov._walk_gate_count(k, s) <= n << n]


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
    # An int v stands for the lines 0..v-1 in order; a tuple is a permuted
    # line order, whose bit i of an assignment sets input line lines[i].
    @pytest.mark.parametrize("lines", [1, 2, 3, 4, 6, 8, 10, (2, 0, 1), (3, 1, 0, 2)])
    def test_lines_hold_every_minterm(self, lines):
        if type(lines) is int:
            lines = tuple(range(lines))
        v = len(lines)
        fresh = count(v)
        gates, bank = conjunction_bank(lines, fresh)
        assert len(gates) == conjunction_gate_count(v)
        assert len(bank) == 1 << v
        tables = sweep_tables(next(fresh), v, gates)
        for assignment, line in enumerate(bank):
            w = sum(((assignment >> i) & 1) << lines[i] for i in range(v))
            expected = 1 << w  # minterm truth table
            assert tables[line] == expected, (lines, assignment)

    @pytest.mark.parametrize("lines", [(), (0, 1, 0)], ids=["empty", "repeated"])
    def test_rejects_empty_or_repeated_lines(self, lines):
        with pytest.raises(ParameterError):
            conjunction_bank(lines, count(3))

    def test_base_case_reuses_input_line(self):
        gates, bank = conjunction_bank((0,), count(1))
        assert bank[1] == 0
        assert bank[0] == 1
        assert len(gates) == 2

    def test_fresh_line_accounting(self):
        fresh = count(2)
        gates, _ = conjunction_bank((0, 1), fresh)
        assert next(fresh) - 2 == 6  # 2 negations + 4 products


class TestXorBank:
    """The XORs of a group's subsets, one at a time on the accumulator."""

    def test_single_line_needs_no_gates(self):
        # A group of one first-bank line is read directly: s = 1 walks
        # nothing and draws no accumulator, and at k = 2, s = 3 the second
        # group (one line) adds nothing to the first one's 2^3 walk gates.
        f = BooleanMapping(4, tuple(range(16)))
        _, report = synth_mapping(f, 2, 1)
        assert (report.gate_counts[2], report.ancilla_counts[2]) == (0, 0)
        _, report = synth_mapping(f, 2, 3)
        assert (report.p, report.gate_counts[2], report.ancilla_counts[2]) == (2, 8, 1)

    # An int s stands for the lines 0..s-1 in order; a tuple is a permuted
    # line order, whose bit i of a subset mask selects line lines[i].
    @pytest.mark.parametrize("lines", [1, 2, 3, 4, (2, 0, 1), (3, 1, 0, 2)])
    def test_subset_lines_exhaustive(self, lines):
        if type(lines) is int:
            lines = tuple(range(lines))
        s = len(lines)
        steps = xor_walk(lines, s)  # the accumulator is line s
        masks = [mask for mask, _ in steps]
        assert len(steps) == 1 << s
        assert sorted(masks[:-1]) == list(range(1, 1 << s)) and masks[-1] == 0
        inputs = sweep_tables(s, s, [])
        for g, mask in enumerate(masks):
            tables = sweep_tables(s + 1, s, [gate for _, gate in steps[: g + 1]])
            expected = 0
            for i in range(s):
                if (mask >> i) & 1:
                    expected ^= inputs[lines[i]]
            assert tables[s] == expected, (lines, g)
            assert tables[:s] == inputs  # the group lines are only read

    @pytest.mark.parametrize("lines", [(), (0, 1, 0)], ids=["empty", "repeated"])
    def test_rejects_empty_or_repeated_lines(self, lines):
        with pytest.raises(ParameterError):
            xor_walk(lines, 3)

    def test_frozen_counts(self):
        counts = {s: len(xor_walk(tuple(range(s)), s)) for s in (2, 4)}
        assert counts == {2: 4, 4: 16}


class TestChooseParams:
    def test_n12_example(self):
        # `rand map --n 12 --seed 2`: the README's trade of gates for lines.
        f = random_mapping(12, Random(2))
        assert choose_params(f) == (4, 8)
        results = {}
        for k in (None, 5, 6):
            circuit, report = synth_mapping(f, k)
            results[report.k, report.s] = (len(circuit), circuit.m)
        assert results == {(4, 8): (6981, 365), (5, 8): (7377, 249), (6, 8): (8365, 213)}

    def test_report_echoes_the_choice(self):
        for n in range(2, 11):
            f = random_mapping(n, Random(n))
            k, s = choose_params(f)
            assert 1 <= k <= n - 1 and 1 <= s <= 1 << k
            _, report = synth_mapping(f)
            assert (report.k, report.s) == (k, s)
            assert report.p == -((1 << k) // -s)

    @pytest.mark.parametrize("kind", ["random", "sparse", "zero"])
    def test_fewest_gates_then_fewer_lines_then_larger_k(self, kind):
        # Every admissible (k, s), built: the chooser's pick, over all k and
        # for each k alone, is the least (gates, lines, -k, s).
        rng = Random(len(kind))
        for n in range(2, 7):
            images = [rng.randrange(1 << n) for _ in range(1 << n)]
            if kind != "random":
                images = [x if kind == "sparse" and rng.random() < 0.1 else 0 for x in images]
            f = BooleanMapping(n, tuple(images))
            keys = {}
            for k in range(1, n):
                for s in admissible(n, k):
                    circuit, _ = synth_mapping(f, k, s)
                    keys[k, s] = (len(circuit), circuit.m, -k, s)
            best = min(keys.values())
            assert choose_params(f) == (-best[2], best[3]), (n, best)
            for k in range(1, n):
                best = min(key for (kk, _), key in keys.items() if kk == k)
                assert choose_params(f, k) == (k, best[3]), (n, k)

    @pytest.mark.parametrize("kind", ["random", "sparse", "periodic"])
    def test_output_gate_bound_never_exceeds_the_count(self, kind):
        # Periodic: points 2 and 3 of every 6 map to all ones, which leaves
        # zero groups of 4 between ones spaced so that no block of 3 fits
        # in them: a block wider than (w + 1) // 2 would break the bound.
        rng = Random(7)
        for n in (3, 4, 5, 7):
            images = [rng.randrange(1 << n) for _ in range(1 << n)]
            if kind == "sparse":
                images = [x if rng.random() < 0.2 else 0 for x in images]
            if kind == "periodic":
                images = [(1 << n) - 1 if x % 6 in (2, 3) else 0 for x in range(1 << n)]
            outputs = synth_lupanov._OutputGates(BooleanMapping(n, tuple(images)))
            for k in range(1, n):
                for s in range(1, (1 << k) + 1):
                    assert outputs.lower(k, s) <= outputs.exact(k, s), (n, k, s)

    def test_small_n_rejected(self):
        assert choose_params(BooleanMapping(2, (0, 1, 2, 3)))[0] == 1
        with pytest.raises(ParameterError, match="^lupanov mode needs n >= 2, got n=1: "):
            choose_params(BooleanMapping(1, (0, 1)))


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
        assert (report.s, report.p) == (2, 1)

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
            circuit, report = synth_mapping(f, k, s)
            assert realized_mapping(circuit).images == f.images, trial
            assert report.s == s
            assert report.gate_counts[3] <= report.p * n * (1 << (n - k))
            assert report.ancilla_counts[3] == n
            assert all(len(controls) <= 2 for controls, _ in circuit.gates)

    def test_stage_accounting_matches_circuit(self, rng):
        f = BooleanMapping(6, tuple(rng.randrange(64) for _ in range(64)))
        circuit, report = synth_mapping(f, 2)
        assert sum(report.gate_counts) == len(circuit)
        assert sum(report.ancilla_counts) == circuit.q

    def test_line_limit_checked_before_building(self, monkeypatch):
        # k = 1, s = 2 on n = 21 lays out 1,050,880 lines, more than MAX_LINES.
        def unreachable(*args):
            raise AssertionError("a bank was built before the line limit was checked")

        monkeypatch.setattr(synth_lupanov, "conjunction_bank", unreachable)
        with pytest.raises(CapacityError, match="needs 1050880 lines"):
            synth_mapping(BooleanMapping(21, tuple(range(1 << 21))), 1, 2)

    def test_wrong_stage_line_count_raises(self, monkeypatch):
        bank = synth_lupanov.conjunction_bank

        def one_line_too_many(lines, fresh):
            if lines == (0,):
                next(fresh)
            return bank(lines, fresh)

        monkeypatch.setattr(synth_lupanov, "conjunction_bank", one_line_too_many)
        message = "^lupanov stages use 26 lines, their layout has 25$"
        with pytest.raises(ContractError, match=message):
            synth_mapping(BooleanMapping(4, tuple(range(16))), 1, 2)

    def test_parameter_validation(self):
        f = BooleanMapping(4, tuple(range(16)))
        cases = [
            (4, None, "^need an int 1 <= k <= n - 1, got k=4, n=4$"),
            (1, 3, "^need an int 1 <= s <= 2\\^k, got s=3, k=1$"),
            (2, 0, "^need an int 1 <= s <= 2\\^k, got s=0, k=2$"),
            (3, 8, "^s=8 at k=3 walks 256 gates, more than n 2\\^n = 64$"),
        ]
        for k, s, message in cases:
            with pytest.raises(ParameterError, match=message):
                synth_mapping(f, k, s)

    @pytest.mark.parametrize("k", [1.0, True])
    def test_k_must_be_an_int(self, k):
        f = BooleanMapping(4, tuple(range(16)))
        with pytest.raises(ParameterError, match=f"^need an int 1 <= k <= n - 1, got k={k!r}, n=4$"):
            synth_mapping(f, k)

    def test_permutations_are_mappings_too(self, rng):
        images = list(range(16))
        rng.shuffle(images)
        f = BooleanMapping(4, tuple(images))
        circuit, _ = synth_mapping(f, 1)
        assert realized_mapping(circuit).images == tuple(images)


class TestStageBoundaries:
    def test_coordinate_lines_match_ring_sums(self, rng):
        # Every nonzero restriction of a coordinate function f_{i,j} to a
        # group of first-bank minterms, lifted over all n-bit inputs, is the
        # truth table of the line each output gate reads it from (the
        # accumulator, or the group's one line) when it fires, paired with
        # second-bank minterm i.  Groups of 3 and 1 at k = 2, s = 3.
        n, k, s = 6, 2, 3
        f = BooleanMapping(n, tuple(rng.randrange(64) for _ in range(64)))
        circuit, report = synth_mapping(f, k, s)
        assert report.p == 2
        expected = Counter()
        for i in range(1 << (n - k)):
            minterm = sum(1 << w for w in range(1 << n) if w >> k == i)
            for j, out in enumerate(circuit.outputs):
                for start in range(0, 1 << k, s):
                    restriction = 0
                    for w in range(1 << n):
                        sigma = w & ((1 << k) - 1)
                        if start <= sigma < start + s and (f.images[sigma | (i << k)] >> j) & 1:
                            restriction |= 1 << w
                    if restriction:
                        expected[out, frozenset((minterm, restriction))] += 1
        tables = sweep_tables(circuit.m, n, [])
        full = (1 << (1 << n)) - 1
        fired = Counter()
        for controls, target in circuit.gates:
            if target in circuit.outputs:
                fired[target, frozenset(tables[c] for c in controls)] += 1
            value = full
            for c in controls:
                value &= tables[c]
            tables[target] ^= value
        assert fired == expected
        assert sum(fired.values()) == report.gate_counts[3]  # one per restriction

    def test_controls_are_written_before_read(self, rng):
        f = BooleanMapping(4, tuple(rng.randrange(16) for _ in range(16)))
        circuit, _ = synth_mapping(f, 1)
        written = set(range(circuit.n))
        for controls, target in circuit.gates:
            for c in controls:
                assert c in written, f"line {c} read before first write"
            written.add(target)

    def test_outputs_never_retargeted_after_final_write(self, rng):
        # Only the output gates write the outputs, and nothing reads them.
        f = BooleanMapping(4, tuple(rng.randrange(16) for _ in range(16)))
        circuit, report = synth_mapping(f, 1, 2)
        outputs = set(circuit.outputs)
        writes = [controls for controls, target in circuit.gates if target in outputs]
        assert len(writes) == report.gate_counts[3]
        assert all(len(controls) == 2 for controls in writes)
        assert not any(outputs & set(controls) for controls, _ in circuit.gates)
