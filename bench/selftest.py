"""Self-tests of the benchmark on the `tiny` workload (n <= 6); they take a
few seconds.

    python3 bench/selftest.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from numbers import Real
from pathlib import Path

import oracle
import run

BENCH = run.ROOT / "bench"


def bench_line(root: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", "tiny",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


class Workdir(unittest.TestCase):
    def setUp(self) -> None:
        run.OUT.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))

    def tearDown(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


class PrintedMetrics(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench_line(run.ROOT, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            line = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(line["correct"], proc.stderr)
            want = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual({k: v["unit"] for k, v in line["metrics"].items()}, want)
            for name, metric in line["metrics"].items():
                self.assertIsInstance(metric["value"], Real, name)


class WithoutSources(Workdir):
    def test_fails_without_printing_a_result(self):
        (self.tmp / "bench").mkdir()
        shutil.copy(run.ROOT / "BENCHMARK.json", self.tmp)
        for path in BENCH.glob("*.py"):
            shutil.copy(path, self.tmp / "bench")
        proc = bench_line(self.tmp, 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class Oracle(Workdir):
    def test_flags_a_circuit_with_one_gate_deleted(self):
        case = next(c for c in run.make_cases("tiny", 1, self.tmp) if c.inst.n == 4)
        self.assertEqual(run.cli_call("synth", case, self.tmp).code, 0)
        text = Path(case.circuit).read_text()
        oracle.check(text, case.inst.n, case.images, clean_ancillas=True)
        lines = text.splitlines()
        gates = [i for i, line in enumerate(lines) if line[:2] in ("n ", "c ", "t ")]
        del lines[gates[len(gates) // 2]]
        with self.assertRaises(oracle.OracleError):
            oracle.check("\n".join(lines), case.inst.n, case.images, clean_ancillas=True)

    def test_a_rejected_circuit_counts_as_a_failed_call(self):
        bench = run.Run("tiny", 1, False, self.tmp)
        bench.cases = [c for c in bench.cases if c.inst.n == 4]
        bench.round()
        bench.cases[0].images.reverse()
        bench.check_outputs()
        self.assertTrue(any("oracle rejects" in p for p in bench.problems))
        self.assertEqual([c.op for c in bench.calls if c.failed], ["synth"])

    def test_fingerprint_ignores_comment_lines(self):
        body = "lines 1\ninputs 1\noutputs 0\nn 0\n"
        self.assertEqual(oracle.fingerprint("# from a.perm\n" + body),
                         oracle.fingerprint("# from b.perm\n" + body))
        self.assertNotEqual(oracle.fingerprint(body), oracle.fingerprint(body + "n 0\n"))


class Predictions(Workdir):
    def test_lupanov_leaves_basic_layers_idle(self):
        bench = run.Run("tiny", 2, True, self.tmp)
        bench.round()
        synths = {o["case"]: o["counts"] for o in bench.ops if o["op"] == "synth"}
        for case in bench.cases:
            counts = synths[case.id]
            if case.inst.mode == "lupanov":
                self.assertEqual(counts.get("toffoli.calls", 0), 0)
                self.assertEqual(counts.get("synth_basic.blocks", 0), 0)
                self.assertGreater(counts["synth_lupanov.L1"], 0)
            else:
                self.assertGreater(counts["synth_basic.blocks"], 0)

    def test_a_renamed_call_site_makes_the_run_incorrect(self):
        bench = run.Run("tiny", 2, True, self.tmp)
        sb = bench.rc["synth_basic"]
        saved = sb.transposition_stream
        del sb.transposition_stream
        try:
            self.assertEqual(run.layers.missing_targets(bench.rc),
                             ["rcsynth.synth_basic.transposition_stream"])
            self.assertNotEqual(run.Run("tiny", 2, True, self.tmp).problems, [])
        finally:
            sb.transposition_stream = saved
        self.assertEqual(run.Run("tiny", 2, True, self.tmp).problems, [])


if __name__ == "__main__":
    unittest.main()
