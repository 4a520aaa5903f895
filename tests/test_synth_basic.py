"""Block synthesis and no-ancilla synthesis of (even) permutations."""
import marshal
import os
import signal
import threading
import time
from collections import Counter
from itertools import permutations as all_orderings
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from rcsynth.circuit import simulate
from rcsynth.perm import transposition_stream
from rcsynth import synth_basic
from rcsynth.synth_basic import _canonicalize, synth_block
from conftest import (
    naive_mapping,
    random_even_permutation,
    random_permutation,
    run_word,
    transpositions_product,
)


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
    """The default block size follows the measured rule, with or without
    the n - 3 clean helpers: k = 2 on two lines, 4 on three and four, 8
    from five, 16 from eight and 32 from fourteen (gate totals in
    BENCH_framechoice.json)."""

    # Default k on n lines, for ancilla budget 0 and n - 3 alike.
    MEASURED = {
        3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 16, 9: 16, 10: 16, 11: 16, 12: 16, 13: 16, 14: 32,
        15: 32, 16: 32,
    }

    def test_default_follows_measured_table(self):
        rng = Random(3)
        for n, k in self.MEASURED.items():
            assert synth_basic._default_block_size(n) == k, n
            if n > 9:
                continue  # synthesized up to n = 9 only, to keep the test fast
            for budget in (0, n - 3):
                p = random_even_permutation(n, rng) if budget == 0 else random_permutation(n, rng)
                default, _ = synth_even_permutation(p, ancilla_budget=budget)
                forced, _ = synth_even_permutation(p, k=k, ancilla_budget=budget)
                assert default == forced, (n, budget)

    def test_default_admissible_on_every_line_count(self):
        for n in range(2, 65):
            for budget in {0, max(n - 3, 0)}:
                synth_basic._validate_block_size(synth_basic._default_block_size(n), n, budget)

    def test_default_no_more_gates_than_four(self):
        # Totals over seeds 1-2, the instances `rcsynth rand even-perm` (budget
        # 0) and `rand perm` (budget n - 3) write; the rule is measured on
        # totals, so one instance alone may favour k = 4.
        for n in range(3, 9):
            for budget in {0, n - 3}:
                totals = {None: 0, 4: 0}
                for seed in (1, 2):
                    make = random_even_permutation if budget == 0 else random_permutation
                    p = make(n, Random(seed))
                    for k in totals:
                        circuit, _ = synth_even_permutation(p, k=k, ancilla_budget=budget)
                        assert naive_mapping(circuit) == list(p.images), (n, budget, k)
                        totals[k] += len(circuit)
                assert totals[None] <= totals[4], (n, budget, totals)

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
                assert all(len(controls) <= 2 for controls, _ in gates)

    def test_clean_core_variant(self, rng):
        # k = 8: conjugators with three controls go through the helpers too.
        n = 6
        ancillas = tuple(range(n, 2 * n - 3))
        widest = 0
        for _ in range(8):
            group = random_group(n, 4, rng)
            conjugators, _ = _canonicalize([x for t in group for x in t], n)
            widest = max([widest] + [len(controls) for controls, _ in conjugators])
            ok, gates = block_realizes_group(group, n, ancillas)
            assert ok
            assert len(gates) <= block_upper(n, 8)
            # clean helpers must be restored on every input
            circuit = Circuit(2 * n - 3, n, tuple(gates), tuple(range(n)))
            for w in range(1 << n):
                _, final = simulate(circuit, w)
                assert final >> n == 0
        assert widest == 3

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
        # Dropping the last line of every NOT group, control set and CNOT
        # group leaves the emitted gates short of the canonical form, while
        # the closed-form row updates are untouched; the check runs the
        # gates and, as a typed error unlike an assert, survives -O.
        positions = synth_basic._bit_positions
        monkeypatch.setattr(synth_basic, "_bit_positions", lambda v: positions(v)[:-1])
        with pytest.raises(ContractError, match=r"rows \[12, 15, 9, 10\]"):
            synth_block(((0, 3), (5, 6)), 4)

    def test_split_pair_postcondition_raises(self, monkeypatch):
        # Gates that end by swapping lines 0 and 1 still land the rows on the
        # core gate's subcube, 12..15, but each transposition then differs in
        # bit 1, so the core gate would swap the wrong points.
        sweep = synth_basic._sweep
        swap = [((0,), 1), ((1,), 0), ((0,), 1)]
        monkeypatch.setattr(
            synth_basic, "_sweep", lambda gates, tables, full: sweep(gates + swap, tables, full)
        )
        with pytest.raises(ContractError, match=r"rows \[12, 14, 15, 13\], not pairs"):
            synth_block(((0, 3), (5, 6)), 4)

    def test_pair_score_halves_pinned_block(self):
        # k = 8 on 5 lines.  Scoring each row together with its partner at
        # the next slot places this block with 13 conjugators, one with
        # three controls, and 33 gates in all; placing each row by its own
        # cost alone took 24 conjugators, one with three controls, and 55
        # gates.  (Scoring only the rows within one bit of the cheapest took
        # 12 basis conjugators here.)
        group = ((4, 9), (0, 31), (6, 7), (27, 26))
        conjugators, frame = _canonicalize([x for t in group for x in t], 5)
        assert (len(conjugators), frame) == (13, 0)
        assert sorted(len(controls) for controls, _ in conjugators)[-2:] == [2, 3]
        ok, gates = block_realizes_group(group, 5)
        assert ok
        # The three-control conjugator expands to 4 gates; the core gate
        # (3, 4) -> 0 is a 2-CNOT.
        assert len(gates) == 2 * (12 + 4) + 1

    def test_every_row_scored(self):
        # k = 8 on 5 lines.  At slot 4 the row that scores best lies 4 bits
        # from the slot while the cheapest lies 1 bit from it.  Scoring only
        # the rows within one bit of the cheapest placed this block with 22
        # conjugators, two with three controls, and 57 gates in all.
        group = ((13, 30), (27, 15), (9, 1), (12, 3))
        conjugators, frame = _canonicalize([x for t in group for x in t], 5)
        assert (len(conjugators), frame) == (16, 0)
        assert all(len(controls) <= 2 for controls, _ in conjugators)
        ok, gates = block_realizes_group(group, 5)
        assert ok
        assert len(gates) == 2 * 16 + 1

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pivots_of_one_kind_move_the_partner_alike(self, data):
        # The pair score tries only the lowest high bit of v that the
        # partner w holds and the lowest that it lacks.  That rests on this
        # premise, checked here on the gates themselves: every pivot p of
        # one kind leaves w at the same cost from slot r + 1.  The gates of
        # p are the CNOT fan-out of (v ^ r) & ~p from line p, then the gate
        # with controls on the bits of r and target p.
        n = data.draw(st.integers(3, 9), label="n")
        lgk = data.draw(st.integers(2, n - 1), label="log2 k")
        k = 1 << lgk
        r = 2 * data.draw(st.integers(1, k // 2 - 1), label="r / 2")
        v = data.draw(st.integers(k, (1 << n) - 1), label="v")
        w = data.draw(st.integers(0, (1 << n) - 1).filter(lambda x: x != v), label="w")

        def lines(x):
            return tuple(b for b in range(n) if x >> b & 1)

        costs = {True: set(), False: set()}
        for j in lines(v >> lgk << lgk):
            p = 1 << j
            gates = [((j,), b) for b in lines((v ^ r) & ~p)] + [(lines(r), j)]
            assert run_word(gates, v) == r
            d = run_word(gates, w) ^ (r + 1)
            costs[bool(w & p)].add(d.bit_count() + (0 < d < k) * (n + 1))
        assert len(costs[True]) <= 1 and len(costs[False]) <= 1, costs

    def test_eight_point_block(self, rng):
        # k = 8 exercises generalized conjugators through borrowed expansion.
        group = random_group(6, 4, rng)
        ok, gates = block_realizes_group(group, 6)
        assert ok
        assert len(gates) <= block_upper(6, 8)


class TestFrame:
    """Each block's core gate targets the lowest line on which the most of
    its pairs differ."""

    @pytest.mark.parametrize(
        "n, group, conjugators",
        [
            # Both pairs differ on lines 0 and 1: the tie keeps line 0.
            (4, ((0, 3), (5, 6)), [
                ((0, 1), 2), ((2,), 1), ((0,), 2), ((2,), 1), ((1,), 2), ((0, 1), 2),
                ((), 2), ((), 3),
            ]),
            # Every pair differs on line 0, one on line 1: line 0 leads.
            (5, ((4, 9), (0, 31), (6, 7), (27, 26)), [
                ((), 1), ((), 2), ((3,), 2), ((0, 1), 3), ((3,), 2), ((3,), 4), ((2,), 3),
                ((1, 2), 3), ((3,), 1), ((3,), 2), ((0, 1, 2), 3), ((), 3), ((), 4),
            ]),
        ],
        ids=["tie", "lead"],
    )
    def test_line_0_kept(self, n, group, conjugators):
        # The conjugators are those of the rows as given, core target 0.
        assert _canonicalize([x for t in group for x in t], n) == (conjugators, 0)
        ok, gates = block_realizes_group(group, n)
        assert ok
        assert gates[len(gates) // 2] == (tuple(range(len(group).bit_length(), n)), 0)

    def test_line_where_all_pairs_differ(self):
        # Every pair differs on line 2 alone.  With the core gate on line 2
        # the block takes 6 conjugators and 13 gates; on line 0 it took 12
        # conjugators and 25 gates.
        group = ((1, 5), (10, 14), (16, 20), (27, 31))
        conjugators, frame = _canonicalize([x for t in group for x in t], 5)
        assert (len(conjugators), frame) == (6, 2)
        ok, gates = block_realizes_group(group, 5)
        assert ok
        assert len(gates) == 13 < 25
        assert gates[6] == ((3, 4), 2)  # the core gate, relabeled to target line 2


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
        assert all(len(controls) <= 2 for controls, _ in circuit.gates)

    @pytest.mark.parametrize(
        "n, k, budget", [(6, 4, 0), (8, 16, 0), (8, 16, 5)], ids=["6-4", "8-16", "8-16-helpers"]
    )
    def test_each_distinct_gate_expanded_once(self, n, k, budget, monkeypatch):
        # The core gate repeats in every block of one size; at k = 16 some
        # conjugators have three or more controls too.  With n - 3 helpers
        # every such gate, conjugator or core, goes through the first c - 2
        # of them, and none borrows data lines.
        # Each block's gates are expanded in its own frame, then relabeled,
        # so the gates decomposed are those `_canonicalize` emits in it.
        p = (random_permutation if budget else random_even_permutation)(n, Random(n))
        generalized = set()
        for group in transposition_stream(p, k // 2):
            conjugators, _ = _canonicalize([x for t in group for x in t], n)
            core = tuple(range((2 * len(group)).bit_length() - 1, n)), 0
            generalized.update(g for g in conjugators + [core] if len(g[0]) >= 3)
        if k == 16:
            assert any(len(controls) >= 3 and target != 0 for controls, target in generalized)
        calls = Counter()
        names = ("decompose_clean", "decompose_borrowed")
        used, unused = names if budget else names[::-1]
        expand = getattr(synth_basic, used)

        def counting(controls, target, helpers):
            if budget:
                assert helpers == tuple(range(n, n + len(controls) - 2))
            calls[(tuple(controls), target)] += 1
            return expand(controls, target, helpers)

        monkeypatch.setattr(synth_basic, used, counting)
        monkeypatch.setattr(synth_basic, unused, None)  # any call fails
        circuit, _ = synth_even_permutation(p, k=k, ancilla_budget=budget)
        assert calls == Counter(generalized)
        assert naive_mapping(circuit) == list(p.images)

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
        circuit, _ = synth_even_permutation(p, k=8, ancilla_budget=2)
        assert circuit.m == 7
        assert realized_mapping(circuit).images == p.images
        for w in range(32):
            _, final = simulate(circuit, w)
            assert final >> 5 == 0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ParameterError):
            synth_even_permutation(Permutation.identity(5), ancilla_budget=1)

    @pytest.mark.parametrize(
        "n, kwargs, message",
        [
            (5, {"k": 4.0}, r"k=4\.0 must be an int power of two >= 2"),
            (5, {"ancilla_budget": 2.0}, r"ancilla budget must be the int 0 or n-3, got 2\.0"),
            (4, {"ancilla_budget": True}, "ancilla budget must be the int 0 or n-3, got True"),
        ],
        ids=["k-float", "budget-float", "budget-bool"],
    )
    def test_parameters_must_be_ints(self, n, kwargs, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            synth_even_permutation(Permutation.identity(n), **kwargs)

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


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper is forked")
class TestForkedHalf:
    """At n = 10 the default k = 16 gives 130 groups, so one forked helper
    builds the second half of the blocks.  The tests let the process run on
    two CPUs whatever the host has, and count the forks."""

    N = 10

    @pytest.fixture(autouse=True)
    def time_limit(self):
        # A helper that is never reaped would hang the call; fail instead.
        def expire(signum, frame):
            raise TimeoutError("synthesis did not return within 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.fixture(params=[0, 7], ids=["budget-0", "helpers"])
    def case(self, request):
        budget = request.param
        p = (random_permutation if budget else random_even_permutation)(self.N, Random(self.N))
        groups = transposition_stream(p, synth_basic._default_block_size(self.N) // 2)
        assert len(groups) >= synth_basic._FORK_MIN_GROUPS
        return p, budget, groups

    @pytest.fixture
    def forks(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pids, fork = [], os.fork

        def counting_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        return pids

    @staticmethod
    def serial(monkeypatch, p, budget):
        def refuse():
            raise OSError("fork refused")

        with monkeypatch.context() as m:
            m.setattr(os, "fork", refuse)
            return synth_even_permutation(p, ancilla_budget=budget)

    @staticmethod
    def fail_on(monkeypatch, should_fail, error=ContractError):
        build = synth_basic.synth_block

        def failing(group, *args, **kwargs):
            if should_fail(group):
                raise error(f"block {group} failed")
            return build(group, *args, **kwargs)

        monkeypatch.setattr(synth_basic, "synth_block", failing)

    def test_serial_equals_forked(self, case, forks, monkeypatch):
        p, budget, _ = case
        forked = synth_even_permutation(p, ancilla_budget=budget)
        assert len(forks) == 1
        assert_no_child_left()
        assert self.serial(monkeypatch, p, budget) == forked
        assert len(forks) == 1
        assert realized_mapping(forked[0]).images == p.images

    @pytest.mark.parametrize("failure", ["raises", "killed", "no-data", "bad-data", "exit-1"])
    def test_helper_failure_rebuilt_here(self, case, forks, monkeypatch, failure):
        p, budget, _ = case
        want = self.serial(monkeypatch, p, budget)
        parent, build = os.getpid(), synth_basic.synth_block

        def in_helper(group, *args, **kwargs):
            if os.getpid() != parent:
                if failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ContractError("the helper failed")
            return build(group, *args, **kwargs)

        if failure in ("raises", "killed"):
            monkeypatch.setattr(synth_basic, "synth_block", in_helper)
        elif failure == "exit-1":
            # Well-formed data, but the helper exits 1 after writing it.
            monkeypatch.setattr(marshal, "dump", lambda value, pipe: pipe.write(marshal.dumps([])))
            exit_now = os._exit
            monkeypatch.setattr(os, "_exit", lambda status: exit_now(1))
        else:
            data = b"" if failure == "no-data" else b"\xff"
            monkeypatch.setattr(marshal, "dump", lambda value, pipe: pipe.write(data))
        assert synth_even_permutation(p, ancilla_budget=budget) == want
        assert len(forks) == 1
        assert_no_child_left()

    def test_helper_half_error_is_the_serial_one(self, case, forks, monkeypatch):
        p, budget, groups = case
        self.fail_on(monkeypatch, lambda group: group == groups[-1])
        with pytest.raises(ContractError) as serial:
            self.serial(monkeypatch, p, budget)
        with pytest.raises(ContractError) as forked:
            synth_even_permutation(p, ancilla_budget=budget)
        assert str(forked.value) == str(serial.value) == f"block {groups[-1]} failed"
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("error", [ContractError, KeyboardInterrupt])
    def test_own_half_error_reaps_the_helper(self, case, forks, monkeypatch, error):
        # The helper's half would take minutes: it is killed, not awaited.
        p, budget, groups = case
        parent, build = os.getpid(), synth_basic.synth_block

        def slow_helper(group, *args, **kwargs):
            if os.getpid() != parent:
                time.sleep(600)
            return build(group, *args, **kwargs)

        monkeypatch.setattr(synth_basic, "synth_block", slow_helper)
        self.fail_on(monkeypatch, lambda group: group == groups[0], error)
        with pytest.raises(error, match="failed"):
            synth_even_permutation(p, ancilla_budget=budget)
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("reason", ["few-groups", "one-cpu", "thread"])
    def test_serial_otherwise(self, case, forks, monkeypatch, reason):
        p, budget, _ = case
        stop = threading.Event()
        waiter = threading.Thread(target=stop.wait)
        if reason == "few-groups":
            p, budget = random_even_permutation(8, Random(8)), 0
            assert len(transposition_stream(p, 8)) < synth_basic._FORK_MIN_GROUPS
        elif reason == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            waiter.start()
        try:
            circuit, _ = synth_even_permutation(p, ancilla_budget=budget)
        finally:
            stop.set()
            if reason == "thread":
                waiter.join(10)
        assert not waiter.is_alive()
        assert forks == []
        assert realized_mapping(circuit).images == p.images
