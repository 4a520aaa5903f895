"""The CLI exit-code contract under generated argv, files and RCSYNTH_CAP.

Every `cli.main` call returns 0 ok, 1 mismatch, 2 invalid input or 3
constraint, or argparse exits with 2; no other exception escapes.  A
successful `synth` writes circuit text that `parse_circuit` reads back and
that `verify` accepts against the table it was synthesized from.  The drawn
files have n <= 6 and `rand --n` stays at most 7, so no call builds a table
of more than 2^7 points, whatever cap is drawn.  Run with
`--hypothesis-show-statistics` to see the exit-code histogram.
"""
import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import event, given, settings
from hypothesis import strategies as st

from rcsynth import Permutation, parse_circuit
from rcsynth.bounds import PHI_REGISTRY
from rcsynth.circuit import MAX_CAP
from rcsynth.cli import main
from rcsynth.perm import is_even

# Stand-ins in drawn argv for the paths the test makes: one drawn file of
# each kind, a path that does not exist, a directory, and the output file.
PERM, MAP, CIRCUIT, MISSING, FOLDER, OUT = (
    "<perm>", "<map>", "<circuit>", "<missing>", "<folder>", "<out>"
)


@st.composite
def table_text(draw, keyword, n):
    if keyword == "perm":
        images = draw(st.permutations(range(1 << n)))
        # Most drawn permutations are made even, which basic mode needs at
        # n >= 4 without ancillas.
        if draw(st.integers(0, 3)) and not is_even(Permutation(n, images)):
            images[:2] = images[1::-1]
    else:
        images = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1 << n, max_size=1 << n))
    return f"# drawn\n{keyword} {n}\n" + " ".join(map(str, images)) + "\n"


@st.composite
def circuit_text(draw, n):
    m = n + draw(st.integers(0, 3))
    lines = [f"lines {m}", f"inputs {n}", "outputs " + " ".join(map(str, range(n)))]
    for _ in range(draw(st.integers(0, 12))):
        width = draw(st.integers(0, min(2, m - 1)))
        wires = draw(st.permutations(range(m)))[: width + 1]
        lines.append(" ".join(["nct"[width], *map(str, wires)]))
    return "\n".join(lines) + "\n"


@st.composite
def maybe_defective(draw, texts):
    """A drawn text, or one time in four the same text with one drawn
    defect, as bytes."""
    text = draw(texts)
    if draw(st.integers(0, 3)):
        return text.encode()
    defect = draw(st.sampled_from(["truncate", "token", "line", "bytes"]))
    if defect == "truncate":
        text = text[: draw(st.integers(0, len(text)))]
    elif defect == "token":
        tokens = text.split(" ")
        i = draw(st.integers(0, len(tokens) - 1))
        tokens[i] = draw(st.sampled_from(["", "x", "-1", "1.5", "99", "70000", "t", "perm"]))
        text = " ".join(tokens)
    elif defect == "line":
        text += draw(st.text(alphabet="nct perm map lines 0123-#\r\n", max_size=12)) + "\n"
    elif defect == "bytes":
        return text.encode()[:-1] + b"\xff\xfe\n"
    return text.encode()


# One n for the three files, so a circuit and a table may be compared.  n is
# drawn evenly (integers would favour 1, where lupanov mode refuses every
# file), and shrinks to 3.
file_sets = st.sampled_from([3, 4, 5, 6, 1, 2]).flatmap(lambda n: st.tuples(
    maybe_defective(table_text("perm", n)),
    maybe_defective(table_text("map", n)),
    maybe_defective(circuit_text(n)),
))


def one(values):
    """A drawn one of `values`, as a one-token list."""
    return st.sampled_from(values).map(lambda v: [v])


def command(*parts):
    """argv from its parts: a plain string is always there, and a strategy
    of token lists gives its own tokens."""
    drawn = [st.just([p]) if isinstance(p, str) else p for p in parts]
    return st.tuples(*drawn).map(lambda chunks: [token for chunk in chunks for token in chunk])


def option(name, values):
    """Either nothing or `name` followed by one drawn token list."""
    return st.just([]) | values.map(lambda v: [name, *v])


numbers = st.integers(-2, 40).map(str)
block_sizes = one(["2", "4", "8", "16", "32", "1", "3", "0", "-4", "x", "", "0x4"])
outputs = st.sampled_from([[], [], ["-o", OUT], ["--output", FOLDER]])

argvs = st.one_of(
    command(
        "bounds",
        option("--n", st.lists(numbers, min_size=1, max_size=3)),
        option("--q", st.lists(numbers, max_size=2)),
        option("--phi", one([*PHI_REGISTRY, "bogus"])),
        option("--csv", st.just([])),
        option("-o", one([OUT, FOLDER])),
    ),
    # Each mode on its own kind of file with options valid at every n, then
    # any mode on any path with any options.
    command("synth", "basic", PERM, option("--no-verify", st.just([])), outputs),
    command("synth", "lupanov", MAP, option("--no-verify", st.just([])), outputs),
    command(
        "synth",
        one(["basic", "lupanov", "bogus"]),
        one([PERM, MAP, CIRCUIT, MISSING, FOLDER]),
        option("--k", block_sizes),
        option("--ancillas", one(["0", "3", "-1", "x"])),
        option("--no-verify", st.just([])),
        outputs,
    ),
    command(
        "verify",
        one([CIRCUIT, CIRCUIT, CIRCUIT, PERM, MISSING, FOLDER]),
        one([PERM, MAP, PERM, MAP, CIRCUIT, MISSING, FOLDER]),
    ),
    command(
        "simulate",
        one([CIRCUIT, CIRCUIT, CIRCUIT, MAP, MISSING, FOLDER]),
        st.integers(-1, 70).map(lambda v: [str(v)]) | one(["0b101", "0x1f", "zz", "", "1_0"]),
    ),
    command(
        "rand",
        one(["even-perm", "perm", "map", "bogus"]),
        option("--n", st.integers(-2, 7).map(lambda v: [str(v)])),
        option("--seed", st.integers(-5, 5).map(lambda v: [str(v)])),
        outputs,
    ),
    command("stats", one([CIRCUIT, CIRCUIT, CIRCUIT, PERM, MISSING, FOLDER])),
    # Free tokens; no `h` in the alphabet, so no prefix of --help or -h.
    st.lists(st.text(alphabet="abckno-0123 .", max_size=6), max_size=4),
)

COMMANDS = [["bounds"], ["synth"], ["verify"], ["simulate"], ["rand"], ["stats"]]
caps = st.one_of(
    st.none(),
    st.none(),
    st.integers(-1, MAX_CAP).map(str),
    st.integers(MAX_CAP + 1, 10**9).map(str),
    st.sampled_from(["abc", "", "2.5"]),
)


def run_main(argv):
    """(exit code, stdout); the code is "argparse" when argparse exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, (argv, exc.code, err.getvalue())
            return "argparse", out.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    return code, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(argvs, file_sets, caps)
def test_cli_contract(argv, file_set, cap):
    with tempfile.TemporaryDirectory() as folder:
        root = Path(folder)
        where = {MISSING: root / "missing", FOLDER: root / "folder", OUT: root / "out"}
        where[FOLDER].mkdir()
        for name, content in zip((PERM, MAP, CIRCUIT), file_set):
            where[name] = root / name.strip("<>")
            where[name].write_bytes(content)
        argv = [str(where.get(token, token)) for token in argv]
        with mock.patch.dict(os.environ):
            os.environ.pop("RCSYNTH_CAP", None)
            if cap is not None:
                os.environ["RCSYNTH_CAP"] = cap
            code, stdout = run_main(argv)
        event(f"exit {code}")
        event(f"{argv[0] if argv[:1] in COMMANDS else '(free tokens)'}: exit {code}")
        if argv[:1] == ["synth"] and code == 0:
            circuit_path = where[OUT]
            if str(circuit_path) not in argv:
                circuit_path.write_text(stdout, encoding="utf-8")
            parse_circuit(circuit_path.read_text(encoding="utf-8"))
            with mock.patch.dict(os.environ):
                os.environ.pop("RCSYNTH_CAP", None)
                assert run_main(["verify", str(circuit_path), argv[2]])[0] == 0
