"""Bound formula evaluation against enumeration and exact arithmetic."""
import math

import pytest

from rcsynth import ParameterError
from rcsynth.bounds import (
    PHI_REGISTRY,
    block_upper,
    bound_table,
    epsilon,
    gate_set_size,
    gluhov_bound,
    no_ancilla_upper,
    pair_block_upper,
    shannon_lower,
    simple_lower,
)


def enumerate_gates(n):
    """Brute-force count of distinct NOT/CNOT/2-CNOT gates on n lines."""
    count = 0
    for target in range(n):
        count += 1  # NOT
        count += n - 1  # CNOT controls
        others = n - 1
        count += others * (others - 1) // 2  # 2-CNOT control pairs
    return count


class TestShannonLower:
    def test_frozen_values(self):
        assert shannon_lower(4, 0) == pytest.approx(4.0)
        assert shannon_lower(8, 0) == pytest.approx(168.0)

    def test_weakly_decreasing_in_q(self):
        for n in (4, 6, 8):
            values = [shannon_lower(n, q) for q in (0, 1, 4, 16, 64)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ParameterError):
            shannon_lower(1, 0)
        with pytest.raises(ParameterError):
            shannon_lower(4, -1)


class TestGateSetSize:
    def test_frozen_values(self):
        assert gate_set_size(2) == 4
        assert gate_set_size(3) == 12
        assert gate_set_size(4) == 28

    def test_matches_enumeration(self):
        for n in range(1, 13):
            assert gate_set_size(n) == enumerate_gates(n)


class TestGluhovBound:
    def test_n2(self):
        # ceil(log_4 (4!/2)) = ceil(log_4 12) = 2
        assert gluhov_bound(2) == 2

    def test_exact_integer_oracle(self):
        for n in range(2, 15):
            r = gate_set_size(n)
            group = math.factorial(1 << n) // 2
            length = 0
            power = 1
            while power < group:
                power *= r
                length += 1
            assert gluhov_bound(n) == length

    def test_frozen_exact_values_n17_to_20(self):
        # ceil(log_r ((2^n)! / 2)) in exact integer arithmetic.
        assert [gluhov_bound(n) for n in range(17, 21)] == [182302, 379516, 788500, 1635278]

    def test_monotone(self):
        values = [gluhov_bound(n) for n in range(2, 12)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestSimpleLower:
    def test_frozen_value(self):
        assert simple_lower(8) == pytest.approx(8 * 256 / 9.0)

    def test_domain(self):
        with pytest.raises(ParameterError):
            simple_lower(3)


class TestNoAncillaUpper:
    def test_returns_value_and_epsilon(self):
        value = no_ancilla_upper(16, "one")
        eps = epsilon(16, "one")
        assert eps == pytest.approx(1 / 6 + (8 / 3) * 4 * 2 / 16)
        denom = math.log2(16) - math.log2(math.log2(16))
        assert value == pytest.approx(3 * 16 * (1 << 20) * (1 + eps) / denom)

    def test_invalid_phi_rejected(self):
        # log2(n) >= n / log2(n) for n <= 16, so the denominator collapses.
        with pytest.raises(ParameterError):
            no_ancilla_upper(8, "log2")

    def test_domain(self):
        with pytest.raises(ParameterError):
            no_ancilla_upper(3, "one")

    def test_dominates_simple_lower(self):
        for n in range(8, 65):
            for phi_id in PHI_REGISTRY:
                try:
                    value = no_ancilla_upper(n, phi_id)
                except ParameterError:
                    continue
                assert value >= simple_lower(n), (n, phi_id)

    def test_sandwich_with_shannon_lower(self):
        violations = []
        for n in range(8, 65):
            for phi_id in PHI_REGISTRY:
                try:
                    value = no_ancilla_upper(n, phi_id)
                except ParameterError:
                    continue
                if shannon_lower(n, 0) > value:
                    violations.append((n, phi_id))
        assert violations == []


class TestBlockUpper:
    def test_frozen_values(self):
        assert block_upper(8, 4) == 460
        assert block_upper(4, 4) == 412
        assert pair_block_upper(8) == 460

    def test_pair_block_is_k4_case(self):
        for n in range(3, 20):
            assert block_upper(n, 4) == pair_block_upper(n)

    def test_validation(self):
        with pytest.raises(ParameterError):
            block_upper(8, 6)
        with pytest.raises(ParameterError):
            block_upper(2, 4)
        for k in (4.0, True):
            with pytest.raises(ParameterError, match=f"^k={k!r} must be an int power of two >= 2$"):
                block_upper(8, k)


class TestBuildReport:
    def test_fields_present_for_n8(self):
        table = bound_table(8, 0, "one")
        values = {name: value for name, value, _ in table}
        assert values["gate_set_size"] == gate_set_size(8)
        assert values["shannon_lower"] == pytest.approx(168.0)
        assert values["no_ancilla_upper"] is not None
        assert values["block_upper_k4"] == block_upper(8, 4)
        assert values["ref_6n2^n"] == 6 * 8 * 256
        assert [name for name, _, _ in table] == [
            "n", "q", "gate_set_size", "shannon_lower", "gluhov_bound", "simple_lower",
            "no_ancilla_upper", "no_ancilla_epsilon", "block_upper_k4", "block_upper_k8",
            "block_upper_k16", "ref_7n2^n", "ref_6n2^n",
        ]

    def test_small_n_flags_no_ancilla_upper(self):
        rows = {name: (value, note) for name, value, note in bound_table(3, 0)}
        assert rows["no_ancilla_upper"] == (None, "requires n >= 4")
        assert rows["simple_lower"] == (None, "requires n >= 4")
        assert rows["block_upper_k8"][0] is None
        assert rows["gluhov_bound"][1] == "heuristic"

    def test_nonnegative_for_reasonable_points(self):
        for n in (4, 6, 8, 12):
            values = {name: value for name, value, _ in bound_table(n, 0, "one")}
            assert values["shannon_lower"] >= 0
            assert values["gate_set_size"] > 0
            assert values["gluhov_bound"] > 0

    @pytest.mark.parametrize("n, q", [(1, 0), (1001, 0), (4, -1)])
    def test_outside_shannon_domain_raises(self, n, q):
        with pytest.raises(ParameterError):
            bound_table(n, q)
