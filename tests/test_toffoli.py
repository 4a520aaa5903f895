"""Generalized-gate replacement: borrowed, clean and garbage regimes."""
import pytest

from rcsynth import CapacityError, Gate, ParameterError
from rcsynth.toffoli import decompose_borrowed, decompose_clean, decompose_garbage
from conftest import run_word


def borrowed(k, helpers):
    return decompose_borrowed(tuple(range(k)), k, tuple(helpers))


def with_helpers(decompose, k):
    """k controls on lines 0..k-1, target k, helpers k+1..2k-2."""
    return decompose(tuple(range(k)), k, tuple(range(k + 1, 2 * k - 1)))


class TestBorrowed:
    def test_passthrough_below_three_controls(self):
        for k in (0, 1, 2):
            assert borrowed(k, (k + 1,)) == [Gate(tuple(range(k)), k)]

    def test_clean_and_garbage_passthrough_below_three_controls(self):
        for k in (0, 1, 2):
            gate = Gate(tuple(range(k)), k)
            assert decompose_garbage(tuple(range(k)), k, ()) == [gate]
            assert decompose_clean(tuple(range(k)), k, ()) == [gate]

    @pytest.mark.parametrize("k", range(3, 9))
    def test_single_borrow_full_state_equivalence(self, k):
        # m = k + 2 lines: k controls, target, one borrowed line of any value.
        gates = borrowed(k, [k + 1])
        assert len(gates) <= 8 * k
        assert all(len(controls) <= 2 for controls, _ in gates)
        oracle = Gate(tuple(range(k)), k)
        for w in range(1 << (k + 2)):
            assert run_word(gates, w) == run_word([oracle], w)

    @pytest.mark.parametrize("k", range(3, 7))
    def test_many_borrows_full_state_equivalence(self, k):
        helpers = tuple(range(k + 1, 2 * k - 1))
        gates = borrowed(k, helpers)
        assert len(gates) == 4 * (k - 2)
        oracle = Gate(tuple(range(k)), k)
        for w in range(1 << (2 * k - 1)):
            assert run_word(gates, w) == run_word([oracle], w)

    def test_needs_a_free_line(self):
        with pytest.raises(CapacityError):
            decompose_borrowed((0, 1, 2), 3, ())

    def test_frozen_counts(self):
        counts = {
            k: len(borrowed(k, [k + 1])) for k in range(3, 9)
        }
        assert counts == {3: 4, 4: 10, 5: 16, 6: 24, 7: 32, 8: 40}


class TestClean:
    @pytest.mark.parametrize("k", range(3, 9))
    def test_count_and_helper_restoration(self, k):
        gates = with_helpers(decompose_clean, k)
        assert len(gates) == 2 * k - 3
        oracle = Gate(tuple(range(k)), k)
        for w in range(1 << (k + 1)):  # helpers start at zero
            after = run_word(gates, w)
            assert after == run_word([oracle], w)  # helpers end at zero too

    def test_three_controls_shape(self):
        gates = decompose_clean((0, 1, 2), 3, (4,))
        assert gates == [Gate((0, 1), 4), Gate((2, 4), 3), Gate((0, 1), 4)]

    def test_four_controls_count(self):
        gates = decompose_clean((0, 1, 2, 3), 4, (5, 6))
        assert len(gates) == 5

    def test_wrong_helper_count_rejected(self):
        with pytest.raises(ParameterError):
            decompose_clean((0, 1, 2, 3), 4, (5,))


class TestGarbage:
    @pytest.mark.parametrize("k", range(3, 9))
    def test_count_and_target_column(self, k):
        gates = with_helpers(decompose_garbage, k)
        assert len(gates) == k - 1
        oracle = Gate(tuple(range(k)), k)
        visible = (1 << (k + 1)) - 1
        dirty_seen = False
        for w in range(1 << (k + 1)):
            after = run_word(gates, w)
            assert after & visible == run_word([oracle], w)
            if after >> (k + 1):
                dirty_seen = True
        assert dirty_seen, "garbage mode must leave some helper nonzero"

    def test_three_controls_count(self):
        gates = decompose_garbage((0, 1, 2), 3, (4,))
        assert len(gates) == 2

    def test_wrong_helper_count_rejected(self):
        with pytest.raises(ParameterError):
            decompose_garbage((0, 1, 2, 3), 4, (5, 6, 7))
