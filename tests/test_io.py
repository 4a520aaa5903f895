"""File format parsing and serialization round trips."""
import pytest

from rcsynth import (
    BooleanMapping,
    Circuit,
    FormatError,
    Gate,
    Permutation,
    parse_circuit,
    parse_mapping,
    parse_permutation,
    parse_spec_table,
    serialize_circuit,
    serialize_mapping,
    serialize_permutation,
)
from conftest import random_circuit


class TestParseCircuit:
    def test_basic_cnot_file(self):
        text = "lines 2\ninputs 2\noutputs 0 1\nc 0 1\n"
        c = parse_circuit(text)
        assert c.m == 2 and c.n == 2
        assert c.outputs == (0, 1)
        assert c.gates == (Gate((0,), 1),)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\nlines 2\n\ninputs 2  # trailing\noutputs 0 1\nn 0\n"
        c = parse_circuit(text)
        assert c.gates == (Gate((), 0),)

    def test_duplicate_line_in_gate_rejected(self):
        text = "lines 3\ninputs 3\noutputs 0 1 2\nt 0 0 1\n"
        with pytest.raises(FormatError):
            parse_circuit(text)

    def test_index_beyond_line_count_rejected(self):
        text = "lines 2\ninputs 2\noutputs 0 1\nc 0 2\n"
        with pytest.raises(FormatError):
            parse_circuit(text)

    def test_malformed_header_rejected(self):
        with pytest.raises(FormatError):
            parse_circuit("inputs 2\nlines 2\noutputs 0 1\n")
        with pytest.raises(FormatError):
            parse_circuit("lines two\ninputs 2\noutputs 0 1\n")
        with pytest.raises(FormatError):
            parse_circuit("lines 2\ninputs 2\n")

    def test_x_line_is_unknown_gate_kind(self):
        text = "lines 4\ninputs 4\noutputs 0 1 2 3\nc 0 1\nx 0 1 2 3\n"
        with pytest.raises(FormatError, match="^line 5: unknown gate kind 'x'$"):
            parse_circuit(text)

    def test_unknown_gate_kind_rejected(self):
        with pytest.raises(FormatError):
            parse_circuit("lines 2\ninputs 2\noutputs 0 1\nz 0\n")

    def test_wrong_arg_count_rejected(self):
        with pytest.raises(FormatError):
            parse_circuit("lines 2\ninputs 2\noutputs 0 1\nc 0\n")


class TestSerializeCircuit:
    def test_round_trip_random_circuits(self, rng):
        for _ in range(20):
            m = rng.randrange(2, 7)
            n = rng.randrange(1, m + 1)
            c = random_circuit(m, rng.randrange(0, 15), rng, n=n)
            assert parse_circuit(serialize_circuit(c)) == c

    def test_generalized_gate_rejected(self):
        # A circuit cannot hold a gate that has no file form.
        with pytest.raises(ValueError, match="outside the basis"):
            Circuit(4, 4, (Gate((0, 1, 2), 3),), (0, 1, 2, 3))

    def test_header_comments_emitted(self):
        c = Circuit(2, 2, (), (0, 1))
        text = serialize_circuit(c, header_comments=["seed 42"])
        assert text.startswith("# seed 42\n")
        assert parse_circuit(text) == c


class TestTables:
    def test_permutation_round_trip(self, rng):
        images = list(range(16))
        rng.shuffle(images)
        p = Permutation(4, tuple(images))
        assert parse_permutation(serialize_permutation(p)) == p

    def test_mapping_round_trip(self, rng):
        images = tuple(rng.randrange(8) for _ in range(8))
        f = BooleanMapping(3, images)
        assert parse_mapping(serialize_mapping(f)) == f

    def test_permutation_must_be_bijection(self):
        with pytest.raises(FormatError):
            parse_permutation("perm 1\n0 0\n")

    def test_wrong_entry_count_rejected(self):
        with pytest.raises(FormatError):
            parse_permutation("perm 2\n0 1 2\n")

    def test_huge_bit_count_rejected_before_shifting(self):
        # The decimal form of 2^20000 alone exceeds Python's int-to-str limit.
        with pytest.raises(ValueError, match=r"expected 2\^20000 images, got 2"):
            BooleanMapping(20000, (0, 1))

    def test_value_out_of_range_rejected(self):
        with pytest.raises(FormatError):
            parse_mapping("map 1\n0 2\n")

    def test_spec_table_dispatch(self):
        assert isinstance(parse_spec_table("perm 1\n1 0\n"), Permutation)
        table = parse_spec_table("map 1\n1 1\n")
        assert isinstance(table, BooleanMapping)
        with pytest.raises(FormatError):
            parse_spec_table("lines 2\ninputs 2\noutputs 0 1\n")
