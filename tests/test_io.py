"""File format parsing and serialization round trips."""
import re

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
import rcsynth.circuit as rcircuit
import rcsynth.io as rio
from rcsynth.bounds import gate_set_size
from conftest import all_basis_gates, gate_line, random_circuit


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "missing `lines` header line"),
            ("lines 2\n", "missing `inputs` header line"),
            ("lines 2\ninputs 2\n", "missing `outputs` header line"),
            ("inputs 2\nlines 2\n", "line 1: expected `lines <value>`, got 'inputs 2'"),
            ("lines 2\noutputs 0 1\n", "line 2: expected `inputs <value>`, got 'outputs 0 1'"),
            ("lines 2\ninputs 2\nc 0 1\n", "line 3: expected `outputs ...`, got 'c 0 1'"),
            ("lines two\n", "line 1: `lines` value is not an integer"),
            ("lines 2 3\n", "line 1: expected `lines <value>`, got 'lines 2 3'"),
            ("lines 2\ninputs 2\noutputs 0 x\n", "line 3: outputs must be integers"),
            ("lines 2\ninputs 2\noutputs 0 1\nz 0\n", "line 4: unknown gate kind 'z'"),
            ("lines 2\ninputs 2\noutputs 0 1\nc 0\n", "line 4: `c` takes 2 arguments"),
            ("lines 2\ninputs 2\noutputs 0 1\nc 0 y\n", "line 4: gate arguments must be integers"),
            # A syntax error wins over an earlier line fault.
            ("lines 2\ninputs 2\noutputs 0 1\nc 0 2\nz 0\n", "line 5: unknown gate kind 'z'"),
            (
                "# top\nlines 2\n\ninputs 2\noutputs 0 1\n\n# note\nc 0 1\n  \nc 0 2\n",
                "line 10: target 2 out of range [0, 2)",
            ),
            ("lines 2\ninputs 2\noutputs 0 0\nc 0 1\n", "outputs must name 2 distinct lines"),
        ],
    )
    def test_messages(self, text, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_circuit(text)


def test_more_distinct_gates_than_the_parser_keeps():
    # Every basis gate on 24 lines, over 4,096 distinct texts, then a repeat
    # of an early text and of the last one, which shares the gate of its
    # first occurrence.
    m = 24
    gates = all_basis_gates(m)
    assert len(gates) > 5000
    gate_lines = [gate_line(gate) for gate in gates]
    head = f"lines {m}\ninputs {m}\noutputs {' '.join(map(str, range(m)))}\n"
    valid = head + "\n".join(gate_lines + [gate_lines[1], gate_lines[-1]]) + "\n"
    expected = Circuit(m, m, gates + [gates[1], gates[-1]], range(m))
    parsed = parse_circuit(valid)
    assert parsed == expected
    assert parsed.gates[-1] is parsed.gates[len(gates) - 1]
    assert serialize_circuit(expected) == valid
    faulty = head + "\n".join(gate_lines + ["c 3 24", gate_lines[1]]) + "\n"
    line = 3 + len(gates) + 1
    with pytest.raises(FormatError, match=f"^line {line}: target 24 out of range"):
        parse_circuit(faulty)


@pytest.mark.parametrize("count", [10, 20])
def test_first_faulty_index_named_when_gates_repeat(count, monkeypatch):
    # On m = 3 lines the basis has 12 gates; 20 gates must repeat, so the
    # circuit is checked per distinct gate, 10 gate by gate.  Each gate comes
    # twice in a row, so the faulty one, first at index 7 (file line 12 under
    # one comment and the header), is only the fifth distinct gate; it
    # repeats near the end.
    m = 3
    basis = all_basis_gates(m)
    assert len(basis) == gate_set_size(m) == 12
    gates = [basis[i // 2] for i in range(count)]
    gates[7] = gates[count - 2] = Gate((0,), 3)
    scanned = []
    find = rcircuit.find_gate_fault

    def recording(gates, m):
        scanned.append(len(gates))
        return find(gates, m)

    monkeypatch.setattr(rcircuit, "find_gate_fault", recording)
    with pytest.raises(ValueError, match=r"^gate 7: target 3 out of range \[0, 3\)$"):
        Circuit(m, m, gates, range(m))
    # Above the basis size the first scan sees each distinct gate once.
    assert scanned[0] == (len(set(gates)) if count > 12 else count)
    text = "# faulty\n" + "".join(
        f"{line}\n" for line in ["lines 3", "inputs 3", "outputs 0 1 2", *map(gate_line, gates)]
    )
    with pytest.raises(FormatError, match=r"^line 12: target 3 out of range \[0, 3\)$"):
        parse_circuit(text)


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("comments", [0, 15, 16, 17, 300])
def test_circuit_inputs_reads_the_header_alone(comments, line_end):
    # The header sits below any number of comment lines, under each line
    # end.  Reading stops at `inputs`, so the bad `x 0` gate line is never
    # parsed, and a bad header fails as the whole-file parse does.
    lines = ["# c"] * comments + ["lines 3", "inputs 2", "outputs 0 1", "c 0 1", "x 0"]
    text = line_end.join(lines) + line_end
    assert rio.circuit_inputs(text) == 2
    for bad in (text.replace("inputs 2", "inputs two"), text.replace("lines 3", "# 3")):
        with pytest.raises(FormatError) as header:
            rio.circuit_inputs(bad)
        with pytest.raises(FormatError) as whole:
            parse_circuit(bad)
        assert str(header.value) == str(whole.value)


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

    def test_each_comment_line_is_commented(self):
        c = Circuit(2, 2, (Gate((0,), 1),), (0, 1))
        comments = ["", "a\x0cb", "x\ny.perm", "c\r\nd\re"]
        text = serialize_circuit(c, comments)
        assert text == (
            "# \n# a\x0cb\n# x\n# y.perm\n# c\n# d\n# e\nlines 2\ninputs 2\noutputs 0 1\nc 0 1\n"
        )
        assert serialize_mapping(BooleanMapping(1, (1, 1)), comments) == (
            "# \n# a\x0cb\n# x\n# y.perm\n# c\n# d\n# e\nmap 1\n1 1\n"
        )


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# only a comment\n", "empty file"),
            ("lines 2\n", "expected a `perm` or `map` file, found 'lines'"),
            ("perm 1 2\n1 0\n", "line 1: expected `perm <value>`, got 'perm 1 2'"),
            ("map x\n1 0\n", "line 1: `map` value is not an integer"),
            ("map 1\n1 y\n", "line 2: 'y' is not an integer"),
            ("perm 1\n0 0\n", "not a bijection"),
        ],
    )
    def test_spec_table_messages(self, text, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_spec_table(text)

    def test_spec_table_reads_text_once(self, monkeypatch):
        calls = []
        original = rio._records
        monkeypatch.setattr(rio, "_records", lambda text: calls.append(text) or original(text))
        assert parse_spec_table("map 1\n1 1\n").images == (1, 1)
        assert len(calls) == 1


# Characters that str.splitlines() breaks lines at, but that are not line
# ends in these files, where lines end at \n, \r\n or \r only.
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineEnds:
    @pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=ascii)
    def test_comment_runs_to_line_end(self, char):
        head = f"lines 2\ninputs 2\noutputs 0 1\n# a{char}b\n"
        assert parse_circuit(head + "c 0 1\n").gates == (Gate((0,), 1),)
        with pytest.raises(FormatError, match=r"^line 5: target 2 out of range"):
            parse_circuit(head + "c 0 2\n")
        assert parse_permutation(f"perm 1\n# a{char}b\n1 0\n").images == (1, 0)
        assert parse_spec_table(f"# a{char}b\nmap 1\n1 1\n").images == (1, 1)

    def test_crlf_and_cr_end_lines(self):
        with pytest.raises(FormatError, match=r"^line 5: target 2 out of range"):
            parse_circuit("lines 2\r\ninputs 2\routputs 0 1\r\n# a\rc 0 2\n")
        assert parse_mapping("map 1\r# a\r\n1 1").images == (1, 1)
