"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""
import math
import itertools
from random import Random

import pytest

from rcsynth import (
    BooleanMapping,
    Circuit,
    Gate,
    Permutation,
    realized_mapping,
    serialize_permutation,
    synth_even_permutation,
    synth_mapping,
)
from rcsynth.bounds import block_upper, gate_set_size, pair_block_upper, shannon_lower
from rcsynth.perm import is_even, transposition_stream
from rcsynth.synth_basic import synth_block
from rcsynth.synth_lupanov import conjunction_bank, conjunction_gate_count
from rcsynth.toffoli import decompose_borrowed, decompose_clean, decompose_garbage
from rcsynth.cli import main
from conftest import random_even_permutation, run_word, sweep_tables

BASIC_NS = (4, 5, 6, 7, 8)
BASIC_RUNS = 100


@pytest.fixture(scope="module")
def basic_sweep():
    """Criterion-1 synthesis runs, shared by the block-budget criteria."""
    results = {}
    for n in BASIC_NS:
        rng = Random(1000 + n)
        mismatches = 0
        block_counts = []
        totals = []
        for _ in range(BASIC_RUNS):
            p = random_even_permutation(n, rng)
            gates = []
            for group in transposition_stream(p, 2):
                block_gates = synth_block(group, n)
                block_counts.append((n, 2 * len(group), len(block_gates)))
                gates.extend(block_gates)
            circuit = Circuit(n, n, tuple(gates), tuple(range(n)))
            if realized_mapping(circuit).images != p.images:
                mismatches += 1
            totals.append(len(gates))
        results[n] = (mismatches, block_counts, totals)
    return results


def test_criterion_1_oracle_equivalence_basic(basic_sweep):
    total_runs = 0
    for n in BASIC_NS:
        mismatches, _, totals = basic_sweep[n]
        assert mismatches == 0, f"n={n}: {mismatches} mismatches"
        total_runs += len(totals)
    print(
        f"\nACCEPTANCE 1 PASS: {total_runs} synthesized circuits "
        f"(n in {BASIC_NS}, k=4) all reproduce their target permutation"
    )


def test_criterion_2_block_budget(basic_sweep):
    checked = 0
    for n in BASIC_NS:
        _, block_counts, _ = basic_sweep[n]
        for bn, k, count in block_counts:
            assert count <= block_upper(bn, k), (bn, k, count)
            checked += 1
    assert block_upper(8, 4) == 460
    print(
        f"\nACCEPTANCE 2 PASS: {checked} blocks within "
        "12n + k*2^(k+1) + 32k log2 k - 10 log2 k (n=8, k=4 budget 460)"
    )


def test_criterion_3_pair_block_bound(basic_sweep):
    checked = 0
    for n in BASIC_NS:
        _, block_counts, _ = basic_sweep[n]
        for bn, k, count in block_counts:
            if k == 4:
                assert count <= pair_block_upper(bn), (bn, count)
                checked += 1
    print(f"\nACCEPTANCE 3 PASS: {checked} pair blocks within 12n + 364")


def test_criterion_4_toffoli_decompositions():
    for k in range(3, 9):
        m = k + 2
        controls, target = tuple(range(k)), k
        oracle = Gate(controls, target)

        borrowed = decompose_borrowed(controls, target, (k + 1,))
        assert len(borrowed) <= 8 * k
        for w in range(1 << m):
            assert run_word(borrowed, w) == run_word([oracle], w), ("borrowed", k, w)

        helpers = tuple(range(k + 1, 2 * k - 1))
        clean = decompose_clean(controls, target, helpers)
        assert len(clean) == 2 * k - 3
        garbage = decompose_garbage(controls, target, helpers)
        assert len(garbage) == k - 1
        visible = (1 << (k + 1)) - 1
        for w in range(1 << (k + 1)):  # helper-zero subspace
            want = run_word([oracle], w)
            assert run_word(clean, w) == want, ("clean", k, w)
            assert run_word(garbage, w) & visible == want, ("garbage", k, w)
    print(
        "\nACCEPTANCE 4 PASS: k=3..8 replacements exhaustive "
        "(borrowed <= 8k, clean = 2k-3 restoring helpers, garbage = k-1)"
    )


def test_criterion_5_conjunction_bank():
    for v in range(1, 11):
        fresh = itertools.count(v)
        gates, bank = conjunction_bank(tuple(range(v)), fresh)
        assert len(gates) == conjunction_gate_count(v)
        tables = sweep_tables(next(fresh), v, gates)
        for assignment in range(1 << v):
            assert tables[bank[assignment]] == 1 << assignment, (v, assignment)
    assert conjunction_gate_count(4) == 2 * 4 + 24
    assert conjunction_gate_count(10) == 2 * 10 + 1120
    print(
        "\nACCEPTANCE 5 PASS: conjunction banks v=1..10 exhaustively correct "
        "with gate counts 2v + C(v), C(4)=24, C(10)=1120"
    )


def test_criterion_6_lupanov_mode():
    runs = 0
    for n, k in ((4, 1), (6, 2)):
        rng = Random(5000 + n)
        for _ in range(50):
            f = BooleanMapping(n, tuple(rng.randrange(1 << n) for _ in range(1 << n)))
            circuit, report = synth_mapping(f, k)
            assert realized_mapping(circuit).images == f.images
            assert report.gate_counts[3] <= report.p * n * (1 << (n - k))
            assert report.ancilla_counts[3] == n
            runs += 1
    print(
        f"\nACCEPTANCE 6 PASS: {runs} random mappings realized exactly "
        "with L4 <= p n 2^(n-k), q4 = n"
    )


def test_criterion_7_bound_formulas():
    assert shannon_lower(4, 0) == pytest.approx(4.0)
    assert shannon_lower(8, 0) == pytest.approx(168.0)
    for n in range(1, 13):
        count = 0
        for target in range(n):
            count += 1
            count += n - 1
            count += (n - 1) * (n - 2) // 2
        assert gate_set_size(n) == count, n
    assert gate_set_size(4) == 28
    print(
        "\nACCEPTANCE 7 PASS: shannon_lower(4,0)=4.0, shannon_lower(8,0)=168.0, "
        "gate_set_size matches enumeration for n<=12 (n=4 gives 28)"
    )


def test_criterion_8_parity_gate(tmp_path, capsys):
    rejected = synthesized = 0
    for n in (4, 5):
        rng = Random(42 + n)
        for trial in range(5):
            images = list(range(1 << n))
            rng.shuffle(images)
            p = Permutation(n, tuple(images))
            if is_even(p):
                images[0], images[1] = images[1], images[0]
                p = Permutation(n, tuple(images))
            perm_path = tmp_path / f"odd_{n}_{trial}.perm"
            perm_path.write_text(serialize_permutation(p))
            circ_path = tmp_path / f"odd_{n}_{trial}.circ"

            code = main(["synth", "basic", str(perm_path), "-o", str(circ_path)])
            assert code == 3, f"odd permutation must exit 3, got {code}"
            rejected += 1

            code = main(["synth", "lupanov", str(perm_path), "-o", str(circ_path)])
            assert code == 0
            code = main(["verify", str(circ_path), str(perm_path)])
            assert code == 0
            synthesized += 1
    capsys.readouterr()
    print(
        f"\nACCEPTANCE 8 PASS: {rejected} odd permutations rejected in basic "
        f"mode (exit 3) and all {synthesized} synthesized and verified in "
        "lupanov mode"
    )


def test_criterion_9_growth_trend():
    means = {}
    for n in (6, 8, 10):
        rng = Random(7000 + n)
        totals = []
        for _ in range(30):
            p = random_even_permutation(n, rng)
            circuit, _ = synth_even_permutation(p, k=4)
            totals.append(len(circuit))
        means[n] = sum(totals) / len(totals)
    factors = {
        (a, b): math.sqrt(means[b] / means[a]) for a, b in ((6, 8), (8, 10))
    }
    reference = {
        (a, b): math.sqrt((b * 2**b) / (a * 2**a)) for a, b in ((6, 8), (8, 10))
    }
    lines = [
        f"mean[{n}]={means[n]:.0f}" for n in (6, 8, 10)
    ] + [
        f"factor/{a}->{b} per n-step: {factors[(a, b)]:.2f} "
        f"(n*2^n reference {reference[(a, b)]:.2f}, window [1.5, 4.5])"
        for (a, b) in factors
    ]
    in_window = all(1.5 <= f <= 4.5 for f in factors.values())
    verdict = "within" if in_window else "OUTSIDE"
    print(
        "\nACCEPTANCE 9 PASS (reported, not hard-asserted): "
        + "; ".join(lines)
        + f"; factors {verdict} the window"
    )
    assert all(f > 0 for f in factors.values())
