"""Property tests: the circuit parser on fuzzed and on repeated input and
against a record-by-record oracle, the record reader against a regex line
split, the serialize/parse round trip on generated circuits and tables
under any header comments, serialized gate lines against a gate-by-gate
writer, the gate check against a float or bool twin of an earlier gate, the
word/column transposes, simulation against the oracle, each arm of the
sweep against a word oracle, the borrowed-line Toffoli expansion on any
line layout, block canonicalization gate by gate, and basic and lupanov
synthesis against the oracle."""
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rcsynth import (
    BooleanMapping,
    Circuit,
    FormatError,
    Gate,
    ParameterError,
    Permutation,
    parse_circuit,
    parse_mapping,
    parse_permutation,
    parse_spec_table,
    realized_mapping,
    serialize_circuit,
    serialize_mapping,
    serialize_permutation,
    synth_even_permutation,
    synth_mapping,
)
import rcsynth.io as rio
from rcsynth import synth_lupanov
from rcsynth.circuit import _sweep, columns_of, simulate, truth_table_masks, words_of
from rcsynth.perm import is_even
from rcsynth.synth_basic import _canonicalize
from rcsynth.toffoli import decompose_borrowed
from conftest import (
    all_basis_gates,
    gate_line,
    naive_circuit,
    naive_mapping,
    naive_run,
    run_bits,
    run_word,
    split_records,
    sweep_tables,
)
from test_io import NOT_LINE_ENDS

HEADER = "lines 4\ninputs 3\noutputs 0 1 2\n"

tokens = st.one_of(
    st.integers(-3, 6).map(str),
    st.sampled_from(["", "x", "1.5", "0x1", "#", "9" * 30, "-0", "+2", "٣"]),
)
gate_lines = st.builds(
    lambda letter, args: " ".join([letter, *args]),
    st.sampled_from(["n", "c", "t", "x", "z", "nc", "N"]),
    st.lists(tokens, max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(gate_lines, max_size=8))
def test_fuzzed_gate_lines_raise_only_format_errors(lines):
    text = HEADER + "\n".join(lines) + "\n"
    try:
        circuit = parse_circuit(text)
    except FormatError as exc:
        # A bad gate line is named by its line number in the file.
        assert re.match(r"line \d+: ", str(exc)), str(exc)
        return
    assert circuit.m == 4 and len(circuit.gates) <= len(lines)


# Messages of a gate line that does not parse; any other gate fault is
# found only once every line has parsed.
SYNTAX_FAULT = re.compile(r"line \d+: (unknown gate kind|`.` takes|gate arguments must)")


@st.composite
def repeated_gate_lines(draw):
    """Gate lines drawn with replacement from a pool of at most 5 fuzzed or
    valid lines, so that texts repeat."""
    valid = st.sampled_from(["n 3", "c 0 1", "c  2 1", "t 0 1 2", "t 3 1 0"])
    pool = draw(st.lists(st.one_of(gate_lines, valid), min_size=1, max_size=5))
    return draw(st.lists(st.sampled_from(pool), max_size=30))


@settings(max_examples=300, deadline=None)
@given(repeated_gate_lines())
def test_repeated_fuzzed_lines_parse_as_each_line_alone(lines):
    # Oracle: each line parsed alone under HEADER, as file line 4.
    alone = []
    for line in lines:
        try:
            alone.append(parse_circuit(HEADER + line + "\n").gates)
        except FormatError as exc:
            alone.append(str(exc))
    faults = [(i, a) for i, a in enumerate(alone) if isinstance(a, str)]
    text = HEADER + "\n".join(lines) + "\n"
    if not faults:
        assert parse_circuit(text).gates == tuple(g for gates in alone for g in gates)
        return
    # The first line that does not parse, else the first faulty gate.
    i, message = next((f for f in faults if SYNTAX_FAULT.match(f[1])), faults[0])
    expected = message.replace("line 4: ", f"line {4 + i}: ", 1)
    try:
        parse_circuit(text)
    except FormatError as exc:
        assert str(exc) == expected
    else:
        raise AssertionError(f"parsed, expected {expected!r}")


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_fuzzed_text_raises_only_format_errors(text):
    try:
        parse_circuit(text)
    except FormatError:
        pass


# Line ends, comment marks, blanks, digits, letters and characters that
# str.splitlines() would break at, joined into file texts.
record_texts = st.lists(
    st.sampled_from(
        ["\n", "\r", "\r\n", "#", " ", "\t", "0", "7", "a", "Z", "\x00", "é", "ж", *NOT_LINE_ENDS]
    ),
    max_size=60,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(record_texts)
def test_records_match_regex_split_oracle(text):
    assert list(rio._records(text)) == split_records(text)


def spell(gate, seps, lead, comment):
    """A gate line: the tokens of gate_line(gate) joined by seps, after
    lead, before comment."""
    tokens = gate_line(gate).split()
    return lead + "".join(t + sep for t, sep in zip(tokens[:-1], seps)) + tokens[-1] + comment


comments = st.one_of(
    st.just(""),
    st.sampled_from(["#", " # c 0 1", "\t#x"]),
    st.sampled_from(NOT_LINE_ENDS).map(lambda char: f"  # a{char}b"),
)
# Syntax faults, then range faults, on 3 lines.
FAULT_LINES = ["x 0 1", "c 0", "t 0 1 y", "n 0 1", "c 0 3", "t 0 5 1", "c 1 1", "t 2 2 0", "n -1"]


@st.composite
def repeated_circuit_texts(draw):
    r"""Circuit texts on 3 lines whose gate records repeat a few gates, each
    spelled several ways, among blank and comment-only lines, with \n, \r
    and \r\n line ends; sometimes a fault follows the repeats."""
    pool = draw(st.lists(st.sampled_from(all_basis_gates(3)), min_size=1, max_size=4))
    spelled = st.builds(
        spell,
        st.sampled_from(pool),
        st.lists(st.sampled_from([" ", "  ", "\t"]), min_size=3, max_size=3),
        st.sampled_from(["", " ", "\t "]),
        comments,
    )
    other = st.one_of(st.sampled_from(["", "  ", "\t", "# note"]), comments)
    body = draw(st.lists(st.one_of(spelled, spelled, other), min_size=20, max_size=80))
    fault = draw(st.lists(st.sampled_from(FAULT_LINES), max_size=1))
    tail = draw(st.lists(st.one_of(spelled, other), max_size=4))
    lines = ["lines 3", "inputs 2 # two", "outputs 1 0", *body, *fault, *tail]
    ends = st.sampled_from(["\n", "\r", "\r\n"])
    ends = draw(st.lists(ends, min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=300, deadline=None)
@given(repeated_circuit_texts())
def test_parse_circuit_matches_record_oracle(text):
    expected = naive_circuit(text)
    try:
        circuit = parse_circuit(text)
    except FormatError as exc:
        assert str(exc) == expected
    else:
        assert circuit == expected


@st.composite
def circuits(draw, max_lines=6, max_gates=12):
    m = draw(st.integers(1, max_lines))
    n = draw(st.integers(1, m))
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        target = draw(st.integers(0, m - 1))
        others = [line for line in range(m) if line != target]
        controls = draw(
            st.lists(st.sampled_from(others), unique=True, max_size=min(2, len(others)))
            if others
            else st.just([])
        )
        gates.append(Gate(controls, target))
    outputs = draw(st.permutations(range(m)))[:n]
    return Circuit(m, n, tuple(gates), tuple(outputs))


comment_lists = st.lists(st.text(), max_size=4)


@settings(max_examples=200, deadline=None)
@given(circuits(max_lines=40), comment_lists)
def test_serialize_parse_round_trip(circuit, comments):
    assert parse_circuit(serialize_circuit(circuit, comments)) == circuit


@settings(max_examples=200, deadline=None)
@given(circuits(max_lines=3, max_gates=60), comment_lists)
def test_serialized_gates_match_per_gate_lines(circuit, comments):
    # The serializer formats each distinct gate once and writes its repeats
    # by lookup; the text must equal a gate-by-gate writer's.
    text = serialize_circuit(circuit, comments)
    head = serialize_circuit(Circuit(circuit.m, circuit.n, (), circuit.outputs), comments)
    assert text == head + "".join(f"{gate_line(g)}\n" for g in circuit.gates)
    assert parse_circuit(text) == circuit


@st.composite
def twinned_gates(draw):
    """A drawn circuit, an index j, and its gates with gate j replaced by a
    twin of an earlier gate: equal to that gate, with one line a float or,
    for line 0 or 1, a bool."""
    circuit = draw(circuits(max_lines=3, max_gates=60))
    assume(len(circuit) >= 2)
    j = draw(st.integers(1, len(circuit) - 1))
    controls, target = circuit.gates[draw(st.integers(0, j - 1))]
    lines = [*controls, target]
    k = draw(st.integers(0, len(lines) - 1))
    lines[k] = draw(st.sampled_from([float, bool] if lines[k] < 2 else [float]))(lines[k])
    gates = list(circuit.gates)
    gates[j] = tuple(lines[:-1]), lines[-1]
    return circuit, j, gates


@settings(max_examples=200, deadline=None)
@given(twinned_gates())
def test_twin_of_an_earlier_gate_rejected_at_its_index(case):
    circuit, j, gates = case
    reason = f"{re.escape(repr(gates[j]))} has a line that is not an int"
    with pytest.raises(ValueError, match=f"^gate {j}: {reason}$"):
        Circuit(circuit.m, circuit.n, gates, circuit.outputs)


@st.composite
def tables(draw):
    n = draw(st.integers(1, 4))
    size = 1 << n
    if draw(st.booleans()):
        return Permutation(n, tuple(draw(st.permutations(range(size)))))
    images = draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
    return BooleanMapping(n, tuple(images))


@settings(max_examples=200, deadline=None)
@given(tables(), comment_lists)
def test_table_serialize_parse_round_trip(table, comments):
    if isinstance(table, Permutation):
        assert parse_permutation(serialize_permutation(table, comments)) == table
    else:
        assert parse_mapping(serialize_mapping(table, comments)) == table
    assert parse_spec_table(serialize_mapping(table, comments)).images == table.images


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_simulate_matches_oracle_on_every_input(circuit):
    for w in range(1 << circuit.n):
        assert simulate(circuit, w) == naive_run(circuit, w)
    assert realized_mapping(circuit).images == tuple(naive_mapping(circuit))


word_lists = st.integers(1, 12).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=64),
    )
)


@settings(max_examples=200, deadline=None)
@given(word_lists)
def test_columns_words_round_trip(case):
    width, words = case
    columns = columns_of(words, width)
    assert len(columns) == width
    for j, column in enumerate(columns):
        assert all((column >> x) & 1 == (w >> j) & 1 for x, w in enumerate(words))
    assert words_of(columns, len(words)) == tuple(words)


@st.composite
def wide_gate_lists(draw):
    """(m, gates): m = 1..8 lines and plain (controls, target) pairs with
    0..5 distinct ascending controls, none of them the target."""
    m = draw(st.integers(1, 8))
    gates = []
    for _ in range(draw(st.integers(0, 30))):
        target = draw(st.integers(0, m - 1))
        others = [line for line in range(m) if line != target]
        count = draw(st.integers(0, min(5, len(others))))
        gates.append((tuple(sorted(draw(st.permutations(others))[:count])), target))
    return m, gates


@settings(max_examples=200, deadline=None)
@given(wide_gate_lists())
def test_sweep_matches_word_oracle(case):
    # Every arm of the sweep, three or more controls included, against
    # run_word on each of the 2^m words.
    m, gates = case
    size = 1 << m
    tables = _sweep(gates, truth_table_masks(m), (1 << size) - 1)
    assert words_of(tables, size) == tuple(run_word(gates, x) for x in range(size))


@st.composite
def borrowed_layouts(draw):
    """(controls, target, helpers): k = 3..6 controls and 1..k helpers on
    distinct lines, at most 10 lines in all, in any order."""
    k = draw(st.integers(3, 6))
    h = draw(st.integers(1, min(k, 10 - k - 1)))
    lines = draw(st.permutations(range(10)))[: k + 1 + h]
    return lines[:k], lines[k], lines[k + 1 :]


@settings(max_examples=60, deadline=None)
@given(borrowed_layouts())
def test_borrowed_expansion_equals_generalized_gate(layout):
    # Every state of every line, helpers included, maps as under the one
    # k-controlled gate.
    controls, target, helpers = layout
    gates = decompose_borrowed(controls, target, helpers)
    assert all(len(c) <= 2 for c, _ in gates)
    m = max(controls + [target] + helpers) + 1
    for w in range(1 << m):
        bits = [(w >> i) & 1 for i in range(m)]
        assert run_bits(gates, list(bits)) == run_bits([(controls, target)], bits)


@st.composite
def block_rows(draw):
    """(rows, n): k distinct n-bit rows, n = 2..9 and k = 2^j for any j < n,
    in any order."""
    n = draw(st.integers(2, 9))
    k = 1 << draw(st.integers(1, n - 1))
    return list(draw(st.permutations(range(1 << n)))[:k]), n


@settings(max_examples=100, deadline=None)
@given(block_rows())
def test_canonicalize_gates_move_each_row_to_its_slot(case):
    # The frame is the lowest line on which the most pairs differ, counted
    # here bit by bit.  With lines 0 and that line swapped in each row, the
    # conjugators run one at a time on each row through run_word, which
    # shares no code with the sweep that the package's own check runs.  They
    # take the rows onto the subcube of the core gate, and rows 2i and
    # 2i + 1, one transposition, onto two points that differ in bit 0 alone.
    # The swapped rows keep line 0 and give the same conjugators.
    rows, n = case
    conjugators, frame = _canonicalize(rows, n)
    differ = [sum((a ^ b) >> j & 1 for a, b in zip(rows[::2], rows[1::2])) for j in range(n)]
    assert frame == differ.index(max(differ))
    swapped = [x ^ (1 | 1 << frame) if (x ^ x >> frame) & 1 else x for x in rows]
    lgk = len(rows).bit_length() - 1
    high = (1 << n) - (1 << lgk)
    images = [run_word(conjugators, r) for r in swapped]
    assert sorted(images) == [i | high for i in range(len(rows))]
    assert all(a ^ b == 1 for a, b in zip(images[::2], images[1::2]))
    assert all(list(cs) == sorted(set(cs)) and t not in cs for cs, t in conjugators)
    assert _canonicalize(swapped, n) == (conjugators, 0)


@st.composite
def basic_targets(draw):
    """(permutation, k, ancilla budget) with n = 1..7 and k a power of two;
    odd permutations only where the lines or the helpers admit them."""
    n = draw(st.integers(1, 7))
    budget = draw(st.sampled_from(sorted({0, max(n - 3, 0)})))
    images = list(draw(st.permutations(range(1 << n))))
    p = Permutation(n, tuple(images))
    if n >= 4 and budget == 0 and not is_even(p):
        images[0], images[1] = images[1], images[0]
        p = Permutation(n, tuple(images))
    k = 1 << draw(st.integers(1, max(n - 1, 1)))  # log2 k < n
    return p, k, budget


def is_plain_gate(gate) -> bool:
    """Whether gate is an exact (controls, target) tuple whose controls are
    an exact tuple in strictly ascending order."""
    controls = gate[0]
    return (
        type(gate) is tuple and len(gate) == 2 and type(controls) is tuple
        and all(a < b for a, b in zip(controls, controls[1:]))
    )


@settings(max_examples=60, deadline=None)
@given(basic_targets())
def test_basic_synthesis_matches_oracle_and_inverts(target):
    p, k, budget = target
    try:
        circuit, _ = synth_even_permutation(p, k=k, ancilla_budget=budget)
    except ParameterError:
        assume(False)
    runs = [naive_run(circuit, w) for w in range(1 << p.n)]
    assert [output for output, _ in runs] == list(p.images)
    # Every helper line ends at 0 again on every input.
    assert all(final >> p.n == 0 for _, final in runs)
    assert all(map(is_plain_gate, circuit.gates))
    # c followed by its reversed gates fixes every state of all m lines.
    m = circuit.m
    round_trip = circuit.gates + tuple(reversed(circuit.gates))
    assert sweep_tables(m, m, round_trip) == sweep_tables(m, m, [])


@st.composite
def lupanov_targets(draw):
    """(mapping, k, s) with n = 2..8, any bank width 1 <= k <= n - 1 and any
    group size 1 <= s <= 2^k whose walks take at most n 2^n gates."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    sizes = [s for s in range(1, (1 << k) + 1) if synth_lupanov._walk_gate_count(k, s) <= n << n]
    s = draw(st.sampled_from(sizes))
    images = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1 << n, max_size=1 << n))
    return BooleanMapping(n, tuple(images)), k, s


@settings(max_examples=60, deadline=None)
@given(lupanov_targets())
def test_lupanov_synthesis_matches_oracle_on_fixed_lines(target):
    f, k, s = target
    circuit, report = synth_mapping(f, k, s)
    runs = [naive_run(circuit, w) for w in range(1 << f.n)]
    assert [output for output, _ in runs] == list(f.images)
    # The accumulator, drawn just before the outputs, ends at 0 on every
    # input: each walk clears it.
    acc = circuit.m - f.n - 1
    assert s == 1 or all((final >> acc) & 1 == 0 for _, final in runs)
    # The lines are the closed-form layout, and every ancilla but the
    # outputs is written by some gate.
    banks = synth_lupanov.conjunction_gate_count(k) + synth_lupanov.conjunction_gate_count(f.n - k)
    assert circuit.m == banks + f.n + (s > 1) == f.n + sum(report.ancilla_counts)
    written = {target for _, target in circuit.gates}
    assert set(range(f.n, circuit.m)) - set(circuit.outputs) <= written
    assert all(map(is_plain_gate, circuit.gates))
