"""Command-line front end: synthesis, verification, simulation, bounds and
instance generation.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input or format,
3 constraint violation (parity, parameters, capacity, synthesis contract).
"""
from __future__ import annotations

import argparse
import csv
import io as stringio
import sys
from pathlib import Path
from random import Random

from . import bounds as bounds_mod
from .circuit import Circuit, count_gates, realized_mapping, resolve_cap, simulate
from .errors import CapacityError, ContractError, FormatError, ParameterError, ParityError
from .io import (
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
    realized = realized_mapping(circuit)
    for w in range(1 << circuit.n):
        if realized.images[w] != table.images[w]:
            print(
                f"mismatch at input {w}: circuit gives {realized.images[w]}, "
                f"expected {table.images[w]}",
                file=sys.stderr,
            )
            return EXIT_MISMATCH
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    pairs = [(n, q) for n in args.n for q in args.q]
    reports = [bounds_mod.build_report(n, q, args.phi) for n, q in pairs]
    if args.csv:
        buf = stringio.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["n", "q", "gate_set_size", "shannon_lower", "gluhov_bound",
             "simple_lower", "no_ancilla_upper", "no_ancilla_epsilon"]
            + [f"block_upper_k{k}" for k in bounds_mod.BLOCK_UPPER_KS]
            + ["ref_7n2^n", "ref_6n2^n"]
        )
        for rep in reports:
            writer.writerow(
                [
                    rep.n,
                    rep.q,
                    rep.gate_set_size,
                    _fmt(rep.shannon_lower),
                    rep.gluhov_bound,
                    _fmt(rep.simple_lower) if rep.simple_lower is not None else "",
                    _fmt(rep.no_ancilla_upper) if rep.no_ancilla_upper is not None else "",
                    _fmt(rep.no_ancilla_epsilon) if rep.no_ancilla_epsilon is not None else "",
                ]
                + [
                    _fmt(rep.block_upper[k]) if k in rep.block_upper else ""
                    for k in bounds_mod.BLOCK_UPPER_KS
                ]
                + [rep.reference_constants["7n2^n"], rep.reference_constants["6n2^n"]]
            )
        text = buf.getvalue()
    else:
        lines = []
        for rep in reports:
            lines.append(f"n {rep.n}  q {rep.q}")
            lines.append(f"gate_set_size {rep.gate_set_size}")
            lines.append(f"shannon_lower {_fmt(rep.shannon_lower)}")
            lines.append(f"gluhov_bound {rep.gluhov_bound} (heuristic)")
            if rep.simple_lower is not None:
                lines.append(f"simple_lower {_fmt(rep.simple_lower)}")
            else:
                lines.append("simple_lower n/a (requires n >= 4)")
            if rep.no_ancilla_upper is not None:
                lines.append(
                    f"no_ancilla_upper {_fmt(rep.no_ancilla_upper)} "
                    f"(phi={args.phi}, epsilon={_fmt(rep.no_ancilla_epsilon)})"
                )
            else:
                lines.append(f"no_ancilla_upper n/a ({rep.no_ancilla_note})")
            for k, value in sorted(rep.block_upper.items()):
                lines.append(f"block_upper[k={k}] {_fmt(value)}")
            ref = rep.reference_constants
            lines.append(f"reference 7n2^n {ref['7n2^n']}  6n2^n {ref['6n2^n']}")
            lines.append("")
        text = "\n".join(lines)
    _write_or_print(text, args.output, [])
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    text = _read(args.input)
    if args.mode == "basic":
        target = parse_permutation(text)
        ancillas = args.ancillas if args.ancillas is not None else 0
        circuit, report = synth_even_permutation(target, k=args.k, ancilla_budget=ancillas)
        report_lines = [
            f"synthesized basic circuit: lines {circuit.m}, gates {len(circuit)}",
            f"gate counts: NOT {report.nots}, CNOT {report.cnots}, 2-CNOT {report.toffolis}",
            f"ancillas {circuit.q}",
        ]
    else:
        if args.ancillas is not None:
            raise ParameterError("--ancillas applies to basic mode only")
        target = parse_spec_table(text)
        k = args.k if args.k is not None else choose_params(target.n)
        circuit, stage = synth_mapping(target, k)
        report_lines = [
            f"synthesized lupanov circuit: lines {circuit.m}, gates {len(circuit)}",
            f"parameters: k {stage.k}, s {stage.s}, p {stage.p}"
            + (", psi constraint waived" if stage.psi_waived else ""),
            "stage gates " + " ".join(
                f"L{i + 1}={v}" for i, v in enumerate(stage.gate_counts)
            ),
            "stage ancillas " + " ".join(
                f"q{i + 1}={v}" for i, v in enumerate(stage.ancilla_counts)
            ),
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
    circuit = parse_circuit(_read(args.circuit))
    table = parse_spec_table(_read(args.spec))
    if circuit.n != table.n:
        print(
            f"bit counts differ: circuit has n={circuit.n}, table has n={table.n}",
            file=sys.stderr,
        )
        return EXIT_INVALID
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
    if not 0 <= word < (1 << circuit.n):
        raise FormatError(f"input {args.input} does not fit in {circuit.n} bits")
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
    if circuit.n < 2:
        print("shannon_lower n/a (requires n >= 2)")
    elif circuit.n > bounds_mod.MAX_BOUND_N:
        print(f"shannon_lower n/a (requires n <= {bounds_mod.MAX_BOUND_N})")
    else:
        print(f"shannon_lower {_fmt(bounds_mod.shannon_lower(circuit.n, circuit.q))}")
        if circuit.n >= 4:
            print(f"simple_lower {_fmt(bounds_mod.simple_lower(circuit.n))}")
            print(f"pair_block_upper {_fmt(bounds_mod.pair_block_upper(circuit.n))}")
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
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ParityError, ParameterError, CapacityError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    sys.exit(main())
