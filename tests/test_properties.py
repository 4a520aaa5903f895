"""Property tests: the circuit parser on fuzzed input, and the
serialize/parse round trip on generated circuits."""
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from rcsynth import Circuit, FormatError, Gate, parse_circuit, serialize_circuit

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
@given(st.lists(gate_lines, max_size=8), st.booleans())
def test_fuzzed_gate_lines_raise_only_format_errors(lines, allow_generalized):
    text = HEADER + "\n".join(lines) + "\n"
    try:
        circuit = parse_circuit(text, allow_generalized=allow_generalized)
    except FormatError as exc:
        # A bad gate line is named by its line number in the file.
        assert re.match(r"line \d+: ", str(exc)), str(exc)
        return
    assert circuit.m == 4 and len(circuit.gates) <= len(lines)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80), st.booleans())
def test_fuzzed_text_raises_only_format_errors(text, allow_generalized):
    try:
        parse_circuit(text, allow_generalized=allow_generalized)
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


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_serialize_parse_round_trip(circuit):
    assert parse_circuit(serialize_circuit(circuit)) == circuit
