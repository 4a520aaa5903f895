"""Property tests: the circuit parser on fuzzed input, the serialize/parse
round trip on generated circuits and tables under any header comments, the
word/column transposes, simulation against the oracle, and basic and lupanov
synthesis against the oracle."""
import re

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
from rcsynth.circuit import columns_of, simulate, words_of
from rcsynth.perm import is_even
from conftest import naive_mapping, naive_run, sweep_tables

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


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_fuzzed_text_raises_only_format_errors(text):
    try:
        parse_circuit(text)
    except FormatError:
        pass


@st.composite
def circuits(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, m))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
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
@given(circuits(), comment_lists)
def test_serialize_parse_round_trip(circuit, comments):
    assert parse_circuit(serialize_circuit(circuit, comments)) == circuit


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


@settings(max_examples=60, deadline=None)
@given(basic_targets())
def test_basic_synthesis_matches_oracle_and_inverts(target):
    p, k, budget = target
    try:
        circuit, _ = synth_even_permutation(p, k=k, ancilla_budget=budget)
    except ParameterError:
        assume(False)
    assert naive_mapping(circuit) == list(p.images)
    # c followed by its reversed gates fixes every state of all m lines.
    m = circuit.m
    round_trip = circuit.gates + tuple(reversed(circuit.gates))
    assert sweep_tables(m, m, round_trip) == sweep_tables(m, m, [])


@st.composite
def lupanov_targets(draw):
    """(mapping, k) with n = 3..8 and any bank width 1 <= k < n/2."""
    n = draw(st.integers(3, 8))
    k = draw(st.integers(1, (n - 1) // 2))
    images = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1 << n, max_size=1 << n))
    return BooleanMapping(n, tuple(images)), k


@settings(max_examples=60, deadline=None)
@given(lupanov_targets())
def test_lupanov_synthesis_matches_oracle_on_fixed_lines(target):
    f, k = target
    circuit, report = synth_mapping(f, k)
    assert naive_mapping(circuit) == list(f.images)
    # The lines depend only on (n, k), and every ancilla but the outputs is
    # written by some gate.
    zero, _ = synth_mapping(BooleanMapping(f.n, (0,) * (1 << f.n)), k)
    assert circuit.m == zero.m
    written = {gate.target for gate in circuit.gates}
    assert set(range(f.n, circuit.m)) - set(circuit.outputs) <= written
