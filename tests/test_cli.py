"""Command-line behavior: exit codes, file handling, determinism."""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rcsynth import Circuit, Permutation, parse_circuit, parse_permutation, serialize_permutation
from rcsynth import cli
from rcsynth.circuit import MAX_CAP
from rcsynth.cli import build_parser, main
from rcsynth.perm import is_even


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_text_report_includes_shannon_line(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "4", "--q", "0")
        assert code == 0
        assert "shannon_lower 4.0" in out

    def test_n3_no_ancilla_message(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "3")
        assert code == 0
        assert "no_ancilla_upper n/a (requires n >= 4)" in out

    def test_text_rows_use_csv_names(self, capsys):
        _, csv_out, _ = run(capsys, "bounds", "--n", "3", "8", "--csv")
        header = csv_out.splitlines()[0].split(",")
        code, out, _ = run(capsys, "bounds", "--n", "3", "8")
        assert code == 0
        blocks = out.split("\n\n")
        assert len(blocks) == 2
        for block in blocks:
            assert [line.split()[0] for line in block.splitlines()] == header
        assert "gluhov_bound 215 (heuristic)" in blocks[1]
        assert "no_ancilla_upper 191158.29355 (phi=one)" in blocks[1]
        assert "block_upper_k8 n/a (k=8 needs log2 k < n=3)" in blocks[0]

    def test_csv_row_count(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "4", "8", "--q", "0", "1", "--csv")
        assert code == 0
        rows = [line for line in out.strip().splitlines() if line]
        assert len(rows) == 1 + 4  # header + (n, q) pairs

    def test_bad_args_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["bounds"])
        assert info.value.code == 2

    @pytest.mark.parametrize("fmt", [(), ("--csv",)])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, fmt):
        out = tmp_path / "missing" / "b.txt"
        code, _, err = run(capsys, "bounds", "--n", "4", *fmt, "-o", str(out))
        assert code == 2
        assert err.startswith(f"error: cannot write {out}")

    def test_n_beyond_float_range_exits_3(self, capsys):
        code, out, err = run(capsys, "bounds", "--n", "1100")
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_n_below_shannon_domain_exits_3(self, capsys):
        code, out, err = run(capsys, "bounds", "--n", "4", "1")
        assert code == 3
        assert out == "" and err == "error: requires n >= 2\n"


STDOUT_ARGVS = [["bounds", "--n", "4"], ["rand", "even-perm", "--n", "16"]]


def run_child(argv, stdout, unbuffered=False):
    """Run the CLI in a fresh interpreter with stdout on the given file."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "rcsynth.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60,
    )


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", STDOUT_ARGVS)
def test_closed_stdout_exits_2(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_child(argv, write_end, unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr and b"Exception" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", STDOUT_ARGVS)
def test_full_stdout_exits_2(argv):
    with open("/dev/full", "wb") as full:
        proc = run_child(argv, full)
    assert proc.returncode == 2
    assert proc.stderr.decode().startswith("error: cannot write stdout: ")
    assert proc.stderr.count(b"\n") == 1 and b"Traceback" not in proc.stderr


def test_cli_import_loads_no_dataclasses_inspect_or_csv():
    code = "import rcsynth.cli, sys; print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"[]\n", b"")


def test_bounds_csv_bytes_on_stdout():
    proc = run_child(["bounds", "--n", "4", "8", "--csv"], subprocess.PIPE)
    assert proc.returncode == 0 and proc.stdout.count(b"\r\n") == 3
    digest = "e8900153a56abdae27fa5259b02fcba0a01b345f6d0ee28a5829c7a21288e517"
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


class TestRand:
    def test_deterministic_for_fixed_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a.perm", tmp_path / "b.perm"
        run(capsys, "rand", "even-perm", "--n", "4", "--seed", "9", "-o", str(a))
        run(capsys, "rand", "even-perm", "--n", "4", "--seed", "9", "-o", str(b))
        assert a.read_text() == b.read_text()
        assert "seed 9" in a.read_text()

    def test_even_perm_is_even(self, tmp_path, capsys):
        for seed in range(6):
            path = tmp_path / f"p{seed}.perm"
            run(capsys, "rand", "even-perm", "--n", "4", "--seed", str(seed), "-o", str(path))
            assert is_even(parse_permutation(path.read_text()))

    def test_map_kind_not_necessarily_bijective(self, tmp_path, capsys):
        path = tmp_path / "f.map"
        code, _, _ = run(capsys, "rand", "map", "--n", "3", "--seed", "0", "-o", str(path))
        assert code == 0
        assert path.read_text().startswith("# rcsynth rand map")


    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "p.perm"
        code, _, err = run(capsys, "rand", "perm", "--n", "3", "-o", str(out))
        assert code == 2
        assert err.startswith(f"error: cannot write {out}")

    @pytest.mark.parametrize("kind, n", [("perm", "0"), ("map", "-1"), ("even-perm", "5")])
    def test_n_outside_one_to_cap_exits_3(self, capsys, monkeypatch, kind, n):
        monkeypatch.setenv("RCSYNTH_CAP", "4")
        code, out, err = run(capsys, "rand", kind, "--n", n)
        assert code == 3
        assert out == ""
        assert err == f"error: need 1 <= n <= 4 (RCSYNTH_CAP), got n={n}\n"

    @pytest.mark.parametrize("cap", [MAX_CAP + 1, 40])
    def test_cap_over_ceiling_exits_3(self, capsys, monkeypatch, cap):
        # The cap is read before rand draws a table; drawing one fails here.
        monkeypatch.setattr(cli, "Random", lambda seed: pytest.fail("rand built a table"))
        monkeypatch.setenv("RCSYNTH_CAP", str(cap))
        code, out, err = run(capsys, "rand", "perm", "--n", str(cap))
        assert (code, out) == (3, "")
        assert err == f"error: RCSYNTH_CAP={cap} exceeds its ceiling {MAX_CAP}\n"

    def test_cap_at_ceiling_accepted(self, capsys, monkeypatch):
        monkeypatch.setenv("RCSYNTH_CAP", str(MAX_CAP))
        code, out, _ = run(capsys, "rand", "perm", "--n", "3")
        assert code == 0
        assert parse_permutation(out).n == 3


class TestSynthAndVerify:
    def synth(self, tmp_path, capsys, seed=1, n=5, extra=()):
        perm = tmp_path / "p.perm"
        circ = tmp_path / "p.circ"
        run(capsys, "rand", "even-perm", "--n", str(n), "--seed", str(seed), "-o", str(perm))
        code, out, err = run(
            capsys, "synth", "basic", str(perm), "-o", str(circ), *extra
        )
        return code, perm, circ, out

    def test_synth_verify_round_trip(self, tmp_path, capsys):
        code, perm, circ, out = self.synth(tmp_path, capsys)
        assert code == 0
        assert "verified" in out
        code, out, _ = run(capsys, "verify", str(circ), str(perm))
        assert code == 0
        assert "match on all 32 inputs" in out

    def test_synth_own_check_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # A synthesizer whose circuit ends in a stray NOT on line 0: synth's
        # own check catches it, and no circuit file is written.
        def broken(*args, **kwargs):
            circuit, report = synthesize(*args, **kwargs)
            gates = circuit.gates + (((), 0),)
            return Circuit(circuit.m, circuit.n, gates, circuit.outputs), report

        synthesize = cli.synth_even_permutation
        monkeypatch.setattr(cli, "synth_even_permutation", broken)
        perm = tmp_path / "p.perm"
        circ = tmp_path / "p.circ"
        run(capsys, "rand", "even-perm", "--n", "5", "--seed", "1", "-o", str(perm))
        code, out, err = run(capsys, "synth", "basic", str(perm), "-o", str(circ))
        assert (code, out) == (1, "")
        assert err.startswith("mismatch at input ")
        assert not circ.exists()

    def test_line_break_in_spec_path(self, tmp_path, capsys):
        # `synth` writes the spec path into the circuit's header comment.
        perm = tmp_path / "x\ny.perm"
        circ = tmp_path / "out.circ"
        assert run(capsys, "rand", "even-perm", "--n", "3", "-o", str(perm))[0] == 0
        assert run(capsys, "synth", "basic", str(perm), "-o", str(circ))[0] == 0
        assert run(capsys, "verify", str(circ), str(perm))[0] == 0

    def test_identity_synthesizes_to_empty_circuit(self, tmp_path, capsys):
        perm = tmp_path / "id.perm"
        perm.write_text(serialize_permutation(Permutation.identity(4)))
        circ = tmp_path / "id.circ"
        code, _, _ = run(capsys, "synth", "basic", str(perm), "-o", str(circ))
        assert code == 0
        assert len(parse_circuit(circ.read_text()).gates) == 0

    def test_odd_permutation_exits_3(self, tmp_path, capsys):
        perm = tmp_path / "odd.perm"
        perm.write_text(serialize_permutation(Permutation.from_cycles(4, [(0, 1)])))
        code, _, err = run(capsys, "synth", "basic", str(perm))
        assert code == 3
        assert "odd" in err

    def test_odd_permutation_synthesizes_in_lupanov_mode(self, tmp_path, capsys):
        perm = tmp_path / "odd.perm"
        perm.write_text(serialize_permutation(Permutation.from_cycles(4, [(0, 1)])))
        circ = tmp_path / "odd.circ"
        code, out, _ = run(capsys, "synth", "lupanov", str(perm), "-o", str(circ))
        assert code == 0
        code, _, _ = run(capsys, "verify", str(circ), str(perm))
        assert code == 0

    def test_mutated_circuit_fails_verification(self, tmp_path, capsys):
        code, perm, circ, _ = self.synth(tmp_path, capsys, seed=3)
        lines = circ.read_text().strip().splitlines()
        del lines[-1]  # drop the final gate
        circ.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "verify", str(circ), str(perm))
        assert code == 1
        assert "mismatch at input" in err

    @pytest.mark.parametrize(
        "gates, code, message",
        [("", 0, "match on all 131072 inputs\n"),
         ("c 0 16\n", 1, "mismatch at input 1: circuit gives 65537, expected 1\n")],
        ids=["match", "mismatch"],
    )
    def test_verify_on_17_lines(self, tmp_path, capsys, gates, code, message):
        # Past n = 16 the image gather must stay O(n 2^n), or verify hangs.
        circ = tmp_path / "c.circ"
        outputs = " ".join(str(i) for i in range(17))
        circ.write_text(f"lines 17\ninputs 17\noutputs {outputs}\n{gates}")
        perm = tmp_path / "id.perm"
        perm.write_text(serialize_permutation(Permutation.identity(17)))
        got, out, err = run(capsys, "verify", str(circ), str(perm))
        assert got == code
        assert (out if code == 0 else err) == message

    def test_mismatched_n_exits_2(self, tmp_path, capsys):
        code, perm, circ, _ = self.synth(tmp_path, capsys)
        other = tmp_path / "other.perm"
        other.write_text(serialize_permutation(Permutation.identity(3)))
        code, _, err = run(capsys, "verify", str(circ), str(other))
        assert code == 2
        assert err == "error: bit counts differ: circuit has n=5, table has n=3\n"

    def test_bit_counts_compared_before_gates_are_parsed(self, tmp_path, capsys):
        circ = tmp_path / "c.circ"
        circ.write_text("lines 4\ninputs 4\noutputs 0 1 2 3\nx 0 1\n")
        spec = tmp_path / "p.perm"
        spec.write_text(serialize_permutation(Permutation.identity(3)))
        code, out, err = run(capsys, "verify", str(circ), str(spec))
        assert (code, out) == (2, "")
        assert err == "error: bit counts differ: circuit has n=4, table has n=3\n"

    @pytest.mark.parametrize(
        "bad, reason", [("c 0", "`c` takes 2 arguments"), ("c 0 2", "target 2 out of range [0, 2)")]
    )
    def test_bad_gate_after_more_distinct_lines_than_parser_keeps(
        self, tmp_path, capsys, bad, reason
    ):
        # Each gate line is distinct by its comment, over 4,096 of them, and
        # an early line repeats after the bad one.
        count = 4106
        body = [f"c 0 1  # {i}" for i in range(count)] + [bad, "c 0 1  # 0"]
        circ = tmp_path / "c.circ"
        circ.write_text("\n".join(["lines 2", "inputs 2", "outputs 0 1", *body]) + "\n")
        perm = tmp_path / "id.perm"
        perm.write_text(serialize_permutation(Permutation.identity(2)))
        code, out, err = run(capsys, "verify", str(circ), str(perm))
        assert (code, out) == (2, "")
        assert err == f"error: line {3 + count + 1}: {reason}\n"

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.perm"
        bad.write_text("perm 2\n0 1 2\n")
        code, _, err = run(capsys, "synth", "basic", str(bad))
        assert code == 2
        assert "error:" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent.circ", "/nonexistent.perm")
        assert code == 2

    def test_bad_lupanov_params_exit_3(self, tmp_path, capsys):
        f = tmp_path / "f.map"
        run(capsys, "rand", "map", "--n", "4", "-o", str(f))
        code, _, err = run(capsys, "synth", "lupanov", str(f), "--k", "4")
        assert code == 3
        assert err == "error: need an int 1 <= k <= n - 1, got k=4, n=4\n"

    def test_lupanov_k_alone_derives_s_and_p(self, tmp_path, capsys):
        f = tmp_path / "f.map"
        run(capsys, "rand", "map", "--n", "5", "--seed", "1", "-o", str(f))
        out_path = str(tmp_path / "f.circ")
        code, out, _ = run(capsys, "synth", "lupanov", str(f), "--k", "1", "-o", out_path)
        assert code == 0
        assert "parameters: k 1, s 2, p 1" in out

    @pytest.mark.parametrize("k", ["2", "3"])
    def test_basic_k_on_one_line_exits_3(self, tmp_path, capsys, k):
        # One line admits no block size; --k is rejected, not ignored.
        perm = tmp_path / "p.perm"
        run(capsys, "rand", "perm", "--n", "1", "--seed", "1", "-o", str(perm))
        code, out, err = run(capsys, "synth", "basic", str(perm), "--k", k)
        assert code == 3
        assert out == "" and err.startswith("error: k=")
        code, _, _ = run(capsys, "synth", "basic", str(perm), "-o", str(tmp_path / "p.circ"))
        assert code == 0

    def test_lupanov_rejects_ancillas(self, tmp_path, capsys):
        f = tmp_path / "f.map"
        run(capsys, "rand", "map", "--n", "5", "-o", str(f))
        code, _, err = run(capsys, "synth", "lupanov", str(f), "--ancillas", "2")
        assert code == 3
        assert err == "error: --ancillas applies to basic mode only\n"

    @pytest.mark.parametrize("header", ["perm 20000", "map 100000000000"])
    @pytest.mark.parametrize("command", ["verify", "synth"])
    def test_huge_table_header_exits_2(self, tmp_path, capsys, header, command):
        spec = tmp_path / "big.tbl"
        spec.write_text(f"{header}\n0 1\n")
        circ = tmp_path / "one.circ"
        circ.write_text("lines 1\ninputs 1\noutputs 0\n")
        if command == "verify":
            argv = ["verify", str(circ), str(spec)]
        else:
            argv = ["synth", "lupanov" if header.startswith("map") else "basic", str(spec)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: expected 2^") and err.count("\n") == 1

    @pytest.mark.parametrize("n,expected", [(3, 0)])
    def test_lupanov_default_params_from_three_lines(self, tmp_path, capsys, n, expected):
        f = tmp_path / "f.map"
        run(capsys, "rand", "map", "--n", str(n), "--seed", "1", "-o", str(f))
        code, _, err = run(capsys, "synth", "lupanov", str(f), "-o", str(tmp_path / "f.circ"))
        assert code == expected, err

    def test_lupanov_two_lines_admitted_one_refused(self, tmp_path, capsys):
        # n = 2 splits into banks over one input each; n = 1 cannot split.
        f = tmp_path / "f.map"
        run(capsys, "rand", "map", "--n", "2", "--seed", "1", "-o", str(f))
        code, out, err = run(capsys, "synth", "lupanov", str(f), "-o", str(tmp_path / "f.circ"))
        assert code == 0, err
        assert "synthesized lupanov circuit: lines 6, gates 6" in out
        run(capsys, "rand", "map", "--n", "1", "--seed", "1", "-o", str(f))
        code, out, err = run(capsys, "synth", "lupanov", str(f))
        assert code == 3 and out == ""
        assert err == (
            "error: lupanov mode needs n >= 2, got n=1: its two conjunction banks "
            "each need at least one input line\n"
        )

    def test_line_count_over_limit_exits_2(self, tmp_path, capsys):
        circ = tmp_path / "wide.circ"
        circ.write_text("lines 1048577\ninputs 1\noutputs 0\n")
        spec = tmp_path / "id.map"
        spec.write_text("map 1\n0 1\n")
        code, _, err = run(capsys, "verify", str(circ), str(spec))
        assert code == 2
        assert "exceed the limit" in err

    def test_non_integer_cap_env_exits_2(self, tmp_path, capsys, monkeypatch):
        perm = tmp_path / "p.perm"
        run(capsys, "rand", "even-perm", "--n", "4", "-o", str(perm))
        monkeypatch.setenv("RCSYNTH_CAP", "abc")
        code, _, err = run(capsys, "synth", "basic", str(perm))
        assert code == 2
        assert err == "error: RCSYNTH_CAP must be an integer, got 'abc'\n"

    @pytest.mark.parametrize(
        "mode, kind, synthesizer",
        [("basic", "even-perm", "synth_even_permutation"), ("lupanov", "map", "synth_mapping")],
    )
    def test_sweep_cap_checked_before_synthesis(
        self, tmp_path, capsys, monkeypatch, mode, kind, synthesizer
    ):
        spec = tmp_path / "f.tab"
        run(capsys, "rand", kind, "--n", "5", "-o", str(spec))
        calls = []
        real = getattr(cli, synthesizer)

        def record(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, synthesizer, record)
        monkeypatch.setenv("RCSYNTH_CAP", "4")
        code, out, err = run(capsys, "synth", mode, str(spec))
        assert (code, out, calls) == (3, "", [])
        assert err == "error: realized_mapping over 2^5 inputs exceeds cap 4\n"
        # Without the check after synthesis the cap does not apply.
        code, _, _ = run(capsys, "synth", mode, str(spec), "--no-verify")
        assert (code, len(calls)) == (0, 1)

    def test_verify_checks_cap_before_parsing_circuit(self, tmp_path, capsys, monkeypatch):
        spec = tmp_path / "f.map"
        run(capsys, "rand", "map", "--n", "5", "-o", str(spec))
        circ = tmp_path / "c.circ"
        circ.write_text("lines 5\ninputs 5\noutputs 0 1 2 3 4\n")
        calls = []

        def record(text):
            calls.append(text)
            return parse_circuit(text)

        monkeypatch.setattr(cli, "parse_circuit", record)
        monkeypatch.setenv("RCSYNTH_CAP", "4")
        code, out, err = run(capsys, "verify", str(circ), str(spec))
        assert (code, out, calls) == (3, "", [])
        assert err == "error: realized_mapping over 2^5 inputs exceeds cap 4\n"

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        perm = tmp_path / "p.perm"
        run(capsys, "rand", "even-perm", "--n", "4", "-o", str(perm))
        out = tmp_path / "missing" / "p.circ"
        code, _, err = run(capsys, "synth", "basic", str(perm), "-o", str(out))
        assert code == 2
        assert err.startswith(f"error: cannot write {out}")

    @pytest.mark.parametrize("flag", ["--phi", "--phi-lupanov", "--psi", "--s"])
    def test_phi_and_psi_are_not_synth_options(self, capsys, flag):
        # --k sets any bank width these flags could select, and the group
        # size s is then the one with the fewest gates for it.
        with pytest.raises(SystemExit) as info:
            main(["synth", "basic", "p.perm", flag, "log2"])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_ancilla_budget_flag(self, tmp_path, capsys):
        code, perm, circ, out = self.synth(
            tmp_path, capsys, extra=("--ancillas", "2")
        )
        assert code == 0
        assert parse_circuit(circ.read_text()).q == 2

    def test_circuit_to_stdout_when_no_output_given(self, tmp_path, capsys):
        perm = tmp_path / "p.perm"
        run(capsys, "rand", "even-perm", "--n", "4", "--seed", "2", "-o", str(perm))
        code, out, err = run(capsys, "synth", "basic", str(perm))
        assert code == 0
        assert out.startswith("#") or out.startswith("lines")
        assert "synthesized" in err
        parsed = parse_circuit(out)
        assert parsed.n == 4


class TestSimulate:
    def test_empty_circuit_echoes_input(self, tmp_path, capsys):
        circ = tmp_path / "c.circ"
        circ.write_text("lines 3\ninputs 3\noutputs 0 1 2\n")
        code, out, _ = run(capsys, "simulate", str(circ), "0b101")
        assert code == 0
        assert "output 0b101 (5)" in out

    def test_not_circuit_flips_bit(self, tmp_path, capsys):
        circ = tmp_path / "c.circ"
        circ.write_text("lines 2\ninputs 2\noutputs 0 1\nn 1\n")
        code, out, _ = run(capsys, "simulate", str(circ), "1")
        assert "output 0b11 (3)" in out

    def test_decimal_and_binary_literals(self, tmp_path, capsys):
        circ = tmp_path / "c.circ"
        circ.write_text("lines 3\ninputs 3\noutputs 0 1 2\n")
        _, out_dec, _ = run(capsys, "simulate", str(circ), "5")
        _, out_bin, _ = run(capsys, "simulate", str(circ), "0b101")
        assert out_dec == out_bin

    def test_oversized_input_exits_2(self, tmp_path, capsys):
        circ = tmp_path / "c.circ"
        circ.write_text("lines 2\ninputs 2\noutputs 0 1\n")
        for literal, value in (("7", 7), ("0b111", 7), ("-1", -1)):
            code, _, err = run(capsys, "simulate", str(circ), literal)
            assert code == 2
            assert err == f"error: input {value} does not fit in 2 bits\n", literal


@pytest.mark.parametrize(
    "command, kind",
    [("verify", "circuit"), ("verify", "table"), ("stats", "circuit"), ("synth", "table"),
     ("simulate", "circuit")],
)
def test_non_utf8_input_exits_2(tmp_path, capsys, command, kind):
    circ = tmp_path / "c.circ"
    circ.write_bytes(b"lines 2\ninputs 2\noutputs 0 1\n")
    table = tmp_path / "t.perm"
    table.write_bytes(b"perm 2\n0 1 2 3\n")
    bad = circ if kind == "circuit" else table
    bad.write_bytes(bad.read_bytes() + b"# \xff\n")
    argv = {
        "verify": ["verify", str(circ), str(table)],
        "stats": ["stats", str(circ)],
        "synth": ["synth", "basic", str(table)],
        "simulate": ["simulate", str(circ), "0"],
    }[command]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: cannot read {bad}: not UTF-8") and err.count("\n") == 1


class TestStats:
    def test_empty_circuit_zero_counts(self, tmp_path, capsys):
        circ = tmp_path / "c.circ"
        circ.write_text("lines 4\ninputs 4\noutputs 0 1 2 3\n")
        code, out, _ = run(capsys, "stats", str(circ))
        assert code == 0
        assert "gates 0" in out
        assert "shannon_lower 4.0" in out

    def test_counts_match_report(self, tmp_path, capsys):
        circ = tmp_path / "c.circ"
        circ.write_text("lines 4\ninputs 4\noutputs 0 1 2 3\nn 0\nc 0 1\nt 0 1 2\n")
        _, out, _ = run(capsys, "stats", str(circ))
        assert "NOT 1" in out
        assert "CNOT 1" in out
        assert "2-CNOT 1" in out

    def test_one_line_circuit(self, tmp_path, capsys):
        circ = tmp_path / "c.circ"
        circ.write_text("lines 1\ninputs 1\noutputs 0\nn 0\n")
        code, out, _ = run(capsys, "stats", str(circ))
        assert code == 0
        assert "lines 1\n" in out and "gates 1\n" in out
        assert "shannon_lower n/a (requires n >= 2)" in out

    def test_more_inputs_than_bounds_take(self, tmp_path, capsys):
        circ = tmp_path / "c.circ"
        outputs = " ".join(str(i) for i in range(1001))
        circ.write_text(f"lines 1001\ninputs 1001\noutputs {outputs}\n")
        code, out, _ = run(capsys, "stats", str(circ))
        assert code == 0
        assert "shannon_lower n/a (requires n <= 1000)\n" in out
        assert "simple_lower" not in out and "pair_block_upper" not in out

    @pytest.mark.parametrize(
        "n, rows",
        [
            (2, ["shannon_lower -0.666667", "simple_lower n/a (requires n >= 4)",
                 "block_upper_k4 n/a (k=4 needs log2 k < n=2)"]),
            (3, ["shannon_lower 0.682479", "simple_lower n/a (requires n >= 4)",
                 "block_upper_k4 400"]),
            (4, ["shannon_lower 4.0", "simple_lower 10.666667", "block_upper_k4 412"]),
        ],
    )
    def test_bound_rows(self, tmp_path, capsys, n, rows):
        circ = tmp_path / "c.circ"
        outputs = " ".join(str(i) for i in range(n))
        circ.write_text(f"lines {n}\ninputs {n}\noutputs {outputs}\n")
        code, out, _ = run(capsys, "stats", str(circ))
        assert code == 0
        assert out.splitlines()[-3:] == rows


class TestOptionInventory:
    # Every option of every subcommand; a new knob needs a deliberate edit here.
    EXPECTED = {
        "bounds": ["--n", "--q", "--phi", "--csv", "-o"],
        "synth": ["mode", "input", "-o", "--k", "--ancillas", "--no-verify"],
        "verify": ["circuit", "spec"],
        "simulate": ["circuit", "input"],
        "rand": ["kind", "--n", "--seed", "-o"],
        "stats": ["circuit"],
    }

    def test_subcommand_options(self):
        (sub,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        found = {
            name: [
                a.option_strings[0] if a.option_strings else a.dest
                for a in p._actions
                if not isinstance(a, argparse._HelpAction)
            ]
            for name, p in sub.choices.items()
        }
        assert found == self.EXPECTED
