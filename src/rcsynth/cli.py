"""Command-line front end: synthesis, verification, simulation, bounds and
instance generation.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input or format,
3 constraint violation (parity, parameters, capacity, synthesis contract).
"""
from __future__ import annotations

import argparse
import io as stringio
import os
import sys
from pathlib import Path
from random import Random

from . import bounds as bounds_mod
from .circuit import (
    Circuit, check_sweep_cap, count_gates, realized_mapping, resolve_cap, simulate
)
from .errors import CapacityError, ContractError, FormatError, ParameterError, ParityError
from .io import (
    circuit_inputs,
    parse_circuit,
    parse_permutation,
    parse_spec_table,
    serialize_circuit,
    serialize_mapping,
    serialize_permutation,
)
from .perm import BooleanMapping, Permutation, is_even
from .synth_basic import synth_even_permutation
from .synth_lupanov import choose_params, synth_mapping

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_CONSTRAINT = 3


def _fmt(value: float) -> str:
    return str(round(value, 6))


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from None


def _write_or_print(text: str, path: str | None, report_lines: list[str]) -> None:
    """Circuit text goes to the output file, or to stdout with the report on
    stderr so the circuit stays machine readable."""
    if path is None:
        sys.stdout.write(text)
        for line in report_lines:
            print(line, file=sys.stderr)
    else:
        _write(path, text)
        for line in report_lines:
            print(line)


def _check_against_table(circuit: Circuit, table: BooleanMapping) -> int:
    realized = realized_mapping(circuit).images
    if realized == table.images:
        return EXIT_OK
    w = next(w for w, image in enumerate(realized) if image != table.images[w])
    print(
        f"mismatch at input {w}: circuit gives {realized[w]}, expected {table.images[w]}",
        file=sys.stderr,
    )
    return EXIT_MISMATCH


def _bound_line(name: str, value: float | None, note: str) -> str:
    line = f"{name} {'n/a' if value is None else _fmt(value)}"
    return f"{line} ({note})" if note else line


def cmd_bounds(args: argparse.Namespace) -> int:
    tables = [bounds_mod.bound_table(n, q, args.phi) for n in args.n for q in args.q]
    if args.csv:
        import csv
        buf = stringio.StringIO()
        writer = csv.writer(buf)
        writer.writerow(name for name, _, _ in tables[0])
        for table in tables:
            writer.writerow("" if value is None else _fmt(value) for _, value, _ in table)
        text = buf.getvalue()
    else:
        text = "\n".join(
            "".join(_bound_line(*row) + "\n" for row in table) for table in tables
        )
    _write_or_print(text, args.output, [])
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    text = _read(args.input)
    if args.mode == "lupanov" and args.ancillas is not None:
        raise ParameterError("--ancillas applies to basic mode only")
    target = (parse_permutation if args.mode == "basic" else parse_spec_table)(text)
    if not args.no_verify:
        check_sweep_cap(target.n)  # fail before synthesis, not after it
    if args.mode == "basic":
        ancillas = args.ancillas if args.ancillas is not None else 0
        circuit, report = synth_even_permutation(target, k=args.k, ancilla_budget=ancillas)
        report_lines = [
            f"synthesized basic circuit: lines {circuit.m}, gates {len(circuit)}",
            f"gate counts: NOT {report.nots}, CNOT {report.cnots}, 2-CNOT {report.toffolis}",
            f"ancillas {circuit.q}",
        ]
    else:
        k, s = choose_params(target, args.k)
        circuit, stage = synth_mapping(target, k, s)
        report_lines = [
            f"synthesized lupanov circuit: lines {circuit.m}, gates {len(circuit)}",
            f"parameters: k {stage.k}, s {stage.s}, p {stage.p}",
            "stage gates " + " ".join(f"L{i}={v}" for i, v in enumerate(stage.gate_counts, 1)),
            "stage ancillas " + " ".join(f"q{i}={v}" for i, v in enumerate(stage.ancilla_counts, 1)),
        ]
    verified_note = []
    if not args.no_verify:
        code = _check_against_table(circuit, target)
        if code != EXIT_OK:
            return code
        verified_note = [f"verified against {args.input} on all {1 << circuit.n} inputs"]
    circuit_text = serialize_circuit(
        circuit, header_comments=[f"rcsynth synth {args.mode} from {args.input}"]
    )
    _write_or_print(circuit_text, args.output, report_lines + verified_note)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    table = parse_spec_table(_read(args.spec))
    check_sweep_cap(table.n)  # fail before parsing the circuit, not after it
    text = _read(args.circuit)
    n = circuit_inputs(text)  # compare bit counts before parsing the gates
    if n != table.n:
        raise FormatError(f"bit counts differ: circuit has n={n}, table has n={table.n}")
    circuit = parse_circuit(text)
    code = _check_against_table(circuit, table)
    if code == EXIT_OK:
        print(f"match on all {1 << circuit.n} inputs")
    return code


def cmd_simulate(args: argparse.Namespace) -> int:
    circuit = parse_circuit(_read(args.circuit))
    try:
        word = int(args.input, 0)
    except ValueError:
        raise FormatError(f"cannot parse input literal {args.input!r}") from None
    output, final = simulate(circuit, word)
    print(f"input  0b{word:0{circuit.n}b} ({word})")
    print(f"output 0b{output:0{circuit.n}b} ({output})")
    print(f"final  0b{final:0{circuit.m}b} ({final})")
    return EXIT_OK


def cmd_rand(args: argparse.Namespace) -> int:
    cap = resolve_cap()
    if not 1 <= args.n <= cap:
        raise ParameterError(f"need 1 <= n <= {cap} (RCSYNTH_CAP), got n={args.n}")
    rng = Random(args.seed)
    size = 1 << args.n
    header = [f"rcsynth rand {args.kind}", f"n {args.n} seed {args.seed}"]
    if args.kind == "map":
        images = tuple(rng.randrange(size) for _ in range(size))
        text = serialize_mapping(BooleanMapping(args.n, images), header)
    else:
        images = list(range(size))
        rng.shuffle(images)
        p = Permutation(args.n, tuple(images))
        if args.kind == "even-perm" and not is_even(p):
            images[0], images[1] = images[1], images[0]
            p = Permutation(args.n, tuple(images))
        text = serialize_permutation(p, header)
    _write_or_print(text, args.output, [])
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    circuit = parse_circuit(_read(args.circuit))
    report = count_gates(circuit)
    print(f"lines {circuit.m}")
    print(f"inputs {circuit.n}")
    print(f"ancillas {circuit.q}")
    print(f"gates {len(circuit)}")
    print(f"NOT {report.nots}")
    print(f"CNOT {report.cnots}")
    print(f"2-CNOT {report.toffolis}")
    try:
        table = bounds_mod.bound_table(circuit.n, circuit.q)
    except ParameterError as exc:
        table = [("shannon_lower", None, str(exc))]
    for row in table:
        if row[0] in ("shannon_lower", "simple_lower", "block_upper_k4"):
            print(_bound_line(*row))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcsynth",
        description="Reversible circuit synthesis and verification over "
        "NOT, CNOT and 2-CNOT gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="evaluate complexity bound formulas")
    p_bounds.add_argument("--n", type=int, nargs="+", required=True)
    p_bounds.add_argument("--q", type=int, nargs="+", default=[0])
    p_bounds.add_argument("--phi", choices=sorted(bounds_mod.PHI_REGISTRY), default="one")
    p_bounds.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    p_bounds.add_argument("-o", "--output", default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_synth = sub.add_parser("synth", help="synthesize a circuit from a table file")
    p_synth.add_argument("mode", choices=["basic", "lupanov"])
    p_synth.add_argument("input", help="permutation file (basic) or mapping file")
    p_synth.add_argument("-o", "--output", default=None)
    p_synth.add_argument("--k", type=int, default=None, help="block size or bank width")
    p_synth.add_argument(
        "--ancillas", type=int, default=None, help="ancilla budget for basic mode (0 or n-3)"
    )
    p_synth.add_argument("--no-verify", action="store_true")
    p_synth.set_defaults(func=cmd_synth)

    p_verify = sub.add_parser("verify", help="check a circuit against a table file")
    p_verify.add_argument("circuit")
    p_verify.add_argument("spec")
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="run a circuit on one input word")
    p_sim.add_argument("circuit")
    p_sim.add_argument("input", help="input word, decimal or 0b/0x literal")
    p_sim.set_defaults(func=cmd_simulate)

    p_rand = sub.add_parser("rand", help="generate a random instance file")
    p_rand.add_argument("kind", choices=["even-perm", "perm", "map"])
    p_rand.add_argument("--n", type=int, required=True)
    p_rand.add_argument("--seed", type=int, default=0)
    p_rand.add_argument("-o", "--output", default=None)
    p_rand.set_defaults(func=cmd_rand)

    p_stats = sub.add_parser("stats", help="gate counts and bound context")
    p_stats.add_argument("circuit")
    p_stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # _read and _write wrap file errors, so stdout failed: a closed pipe
        # (no message) or a full device.  Point the descriptor at devnull so
        # the interpreter's final flush of what is still buffered stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (FormatError, ParityError, ParameterError, CapacityError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID if isinstance(exc, FormatError) else EXIT_CONSTRAINT


if __name__ == "__main__":
    sys.exit(main())
