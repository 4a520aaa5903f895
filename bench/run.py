"""rcsynth benchmark: end-to-end CLI metrics and per-layer spans.

    python3 bench/run.py --workload basic-n12 --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
Each workload is a closed loop with one client: every CLI process starts
after the previous one has exited.  Instance files come from the benchmark's
own seeded generator, never from `rcsynth rand`, so a change to the program
cannot change its own inputs.  One round runs `synth`, `verify` and `stats`
on every instance of the workload; rounds repeat until `--seconds` is spent.

--trace 0 times the real CLI, one child process per call, and prints the
end-to-end metrics, scaled to the speed of a reference loop timed around
each call (see REFERENCE).  --trace 1 also replays every call in-process, once
plain and once with spans around the calls into each module (see
layers.py), then makes one tracemalloc pass, and prints the per-layer
metrics.  Every synthesized circuit is checked outside the timed region by
the independent oracle in oracle.py.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; metric names and units come from BENCHMARK.json.
The full result, with provenance, fingerprints and failures, is written to
bench/out/, and the spans of a traced run beside it.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from random import Random
from time import perf_counter

import layers
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
ENTRY = "import sys; from rcsynth.cli import main; sys.exit(main())"
SETUP_SHARE = 0.1  # of the measured time, spent on setup samples between CLI calls
# A fixed pure-Python loop that imports nothing of the package, run in a
# fresh interpreter before the first CLI call, between calls and after the
# last.  On a shared host the speed swings by half within seconds, and the
# loop's time swings with it.  So each timed call or setup sample is scaled
# by REFERENCE_S over the mean of the reference times just before and just
# after it; on a shared 2-CPU Xeon host that cut the spread of single synth
# calls on basic-n12 from 0.36 to 0.15.
REFERENCE = "d = {}\nfor i in range(300000):\n    d[i & 4095] = d.get(i & 4095, 0) ^ (i * 40503 & 0xffff)\n"
REFERENCE_S = 0.15
REFERENCE_SHARE = 0.15  # of the measured time
OPS = ("synth", "verify", "stats")


@dataclass(frozen=True)
class Instance:
    kind: str  # "even-perm", "perm" or "map"
    n: int
    ancillas: bool = False

    @property
    def mode(self) -> str:
        return "lupanov" if self.kind == "map" else "basic"


WORKLOADS: dict[str, list[Instance]] = {
    # About 224k gates per instance on 12 lines; synth time is mostly
    # synth_basic, perm and toffoli, verify time mostly parsing.
    "basic-n12": [Instance("even-perm", 12)] * 2,
    # About 221k gates on 35k lines; verify time is mostly the sweep over
    # 65,536-bit tables and the per-input gather; basic-mode layers idle.
    # Not in BENCHMARK.json: with three workloads the run budget allows only
    # 35 s runs, too short for steady medians on a shared 2-CPU host; run it
    # by hand.
    "lupanov-n16": [Instance("map", 16)],
    # Process start, import and argparse dominate; also runs the k = 2 path
    # (n = 2), the clean decomposition (--ancillas) and stats on n = 1.
    "cli-small": [Instance("even-perm", n) for n in range(1, 9)]
    + [Instance("perm", n, ancillas=True) for n in range(4, 9)]
    + [Instance("map", n) for n in range(4, 9)],
    # Self-test size only, not listed in BENCHMARK.json.
    "tiny": [Instance("even-perm", n) for n in (3, 4, 6)]
    + [Instance("perm", 5, ancillas=True), Instance("map", 6)],
}


@dataclass
class Case:
    """One generated instance and its files."""

    id: str
    inst: Instance
    images: list[int]
    table: str
    circuit: str
    replay_circuit: str


@dataclass
class Call:
    op: str
    case: Case
    wall: float
    code: int
    peak_mb: float
    stdout: str
    stderr: str
    ref: int = 0  # index of the first reference sample after the call
    fingerprint: str = ""  # of the circuit a synth call wrote
    rejected: bool = False  # by the oracle

    @property
    def failed(self) -> bool:
        return self.code != 0 or "Traceback (most recent call last)" in self.stderr or self.rejected


def _is_odd(images: list[int]) -> bool:
    seen = [False] * len(images)
    cycles = 0
    for start in range(len(images)):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = images[x]
    return (len(images) - cycles) % 2 == 1


def generate(inst: Instance, rng: Random) -> list[int]:
    size = 1 << inst.n
    if inst.kind == "map":
        return [rng.randrange(size) for _ in range(size)]
    images = list(range(size))
    rng.shuffle(images)
    if inst.kind == "even-perm" and _is_odd(images):
        images[0], images[1] = images[1], images[0]
    return images


def table_text(inst: Instance, images: list[int]) -> str:
    keyword = "map" if inst.kind == "map" else "perm"
    rows = [" ".join(map(str, images[i : i + 16])) for i in range(0, len(images), 16)]
    return "\n".join([f"{keyword} {inst.n}"] + rows) + "\n"


def make_cases(workload: str, seed: int, workdir: Path) -> list[Case]:
    rng = Random(seed)
    cases = []
    for i, inst in enumerate(WORKLOADS[workload]):
        ident = f"{i:02d}-{inst.kind}-n{inst.n}" + ("-anc" if inst.ancillas else "")
        images = generate(inst, rng)
        table = workdir / f"{ident}.{'map' if inst.kind == 'map' else 'perm'}"
        table.write_text(table_text(inst, images), encoding="utf-8")
        cases.append(
            Case(ident, inst, images, str(table),
                 str(workdir / f"{ident}.circ"), str(workdir / f"{ident}.replay.circ"))
        )
    return cases


def cli_args(op: str, case: Case, replay: bool = False) -> list[str]:
    if op == "synth":
        out = case.replay_circuit if replay else case.circuit
        args = ["synth", case.inst.mode, case.table, "-o", out]
        if case.inst.ancillas:
            args += ["--ancillas", str(case.inst.n - 3)]
        return args
    if op == "verify":
        return ["verify", case.circuit, case.table]
    return ["stats", case.circuit]


def _child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(argv: list[str], workdir: Path) -> tuple[float, int, float, str, str]:
    """Run one child interpreter to completion.  Returns (wall seconds, exit
    code, peak RSS in MB, stdout, stderr); the peak comes from wait4."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable] + argv, stdout=out, stderr=err,
            stdin=subprocess.DEVNULL, env=_child_env(), cwd=workdir,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        wall,
        proc.returncode,
        usage.ru_maxrss / 1024,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def measure_setup(workdir: Path) -> float:
    """Wall time of a fresh interpreter importing the package."""
    wall, code, _, _, err = run_child(["-c", "import rcsynth, rcsynth.cli"], workdir)
    if code != 0:
        raise RuntimeError(f"cannot import rcsynth from {SRC}:\n{err}")
    return wall


def measure_reference(workdir: Path) -> float:
    wall, code, _, _, err = run_child(["-c", REFERENCE], workdir)
    if code != 0:
        raise RuntimeError(f"reference loop failed:\n{err}")
    return wall


def cli_call(op: str, case: Case, workdir: Path) -> Call:
    wall, code, peak, out, err = run_child(["-c", ENTRY] + cli_args(op, case), workdir)
    return Call(op, case, wall, code, peak, out, err)


def quartiles(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def reference_gates(mode: str, n: int) -> float:
    """The paper's growth rate: n 2^n / log2 n without ancillas (basic
    mode), 2^n with many (lupanov mode).  Undefined for n = 1."""
    return (1 << n) if mode == "lupanov" else n * (1 << n) / math.log2(n)


def provenance(seed: int) -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu_model": cpu or platform.processor()}


class Run:
    """State of one benchmark run: cases, CLI calls and traced replays."""

    def __init__(self, workload: str, seed: int, trace: bool, workdir: Path):
        self.trace, self.workdir = trace, workdir
        self.cases = make_cases(workload, seed, workdir)
        self.calls: list[Call] = []
        self.texts: dict[str, dict[str, str]] = {c.id: {} for c in self.cases}  # by fingerprint
        self.problems: list[str] = []
        self.ops: list[dict] = []  # traced replays
        self.rounds = 0
        self.setup: list[tuple[float, int]] = []  # (wall, index of the next reference)
        self.reference: list[float] = []
        self.start = perf_counter()  # of the measured time
        self.tracer = layers.Tracer()
        if trace:
            sys.path.insert(0, str(SRC))
            self.rc = {name: importlib.import_module(f"rcsynth.{name}")
                       for name in ("cli", "io", "synth_basic", "synth_lupanov", "bounds")}
            self.problems += [f"cannot trace {site}: no such name"
                              for site in layers.missing_targets(self.rc)]

    def _record_circuit(self, case: Case, path: str, source: str) -> str:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            self.problems.append(f"{case.id}: {source} wrote no circuit: {exc}")
            return ""
        fingerprint = oracle.fingerprint(text)
        self.texts[case.id].setdefault(fingerprint, text)
        return fingerprint

    def _replay(self, op: str, case: Case, call: Call) -> None:
        tracer, cli = self.tracer, self.rc["cli"]
        argv = cli_args(op, case, replay=True)
        # The first in-process replay of a call pays for growing the heap;
        # alternate which replay goes first so neither side always pays.
        plain_first = len(self.ops) % 2 == 0
        if plain_first:
            gc.collect()
            plain_code, plain_wall, _ = layers.replay(cli, argv)
        tracer.instance, tracer.counts = case.id, Counter()
        with layers.patched(layers.traced_replacements(tracer, self.rc)):
            gc.collect()
            root = tracer.open(f"op.{op}")
            code, wall, failure = layers.replay(cli, argv)
            tracer.close()
        if not plain_first:
            gc.collect()
            plain_code, plain_wall, _ = layers.replay(cli, argv)
        self.ops.append({
            "op": op, "case": case.id, "round": self.rounds, "cli_s": call.wall, "plain_s": plain_wall,
            "traced_s": wall, "counts": dict(tracer.counts),
            **layers.op_summary(tracer.spans, root, len(tracer.spans)),
        })
        if not code == plain_code == call.code:
            self.problems.append(
                f"{case.id}: {op} exit codes differ: cli {call.code}, "
                f"in-process {plain_code} and {code} {failure}".strip())
        if op == "synth" and code == 0:
            self._record_circuit(case, case.replay_circuit, "in-process synth")

    def round(self) -> None:
        for case in self.cases:
            for op in OPS:
                self.sample()
                call = cli_call(op, case, self.workdir)
                call.ref = len(self.reference)
                self.calls.append(call)
                if op == "synth":
                    if call.code != 0:
                        break
                    call.fingerprint = self._record_circuit(case, case.circuit, "cli synth")
                if self.trace:
                    self._replay(op, case, call)

    def sample(self) -> None:
        """A reference and a setup sample, each while its samples fill no
        more than its share of the time measured so far."""
        elapsed = perf_counter() - self.start
        if sum(self.reference) <= REFERENCE_SHARE * elapsed:
            self.reference.append(measure_reference(self.workdir))
        if sum(wall for wall, _ in self.setup) <= SETUP_SHARE * elapsed:
            self.setup.append((measure_setup(self.workdir), len(self.reference)))

    def scaled(self, wall: float, ref: int) -> float:
        """`wall` at reference speed, from the reference samples around it."""
        return wall * 2 * REFERENCE_S / (self.reference[ref - 1] + self.reference[ref])

    def measure(self, seconds: float) -> None:
        """Rounds until the time is spent; a round starts only if half of
        an average round still fits."""
        measure_setup(self.workdir)  # writes the bytecode cache
        self.start = perf_counter()
        while not self.rounds or (perf_counter() - self.start) * (1 + 0.5 / self.rounds) < seconds:
            self.round()
            self.rounds += 1
        self.reference.append(measure_reference(self.workdir))

    def check_outputs(self) -> list[dict]:
        """Oracle on every distinct circuit, outside the timed region, and
        the stats and verify outputs against it.  A synth call whose
        circuit the oracle rejects counts as failed."""
        instances = []
        for case in self.cases:
            texts = self.texts[case.id]
            if not texts:
                self.problems.append(f"{case.id}: no circuit was synthesized")
            elif len(texts) > 1:
                self.problems.append(f"{case.id}: repeated synth gave different circuits")
            for fingerprint, text in texts.items():
                try:
                    parsed = oracle.check(text, case.inst.n, case.images,
                                          clean_ancillas=case.inst.mode == "basic")
                except oracle.OracleError as exc:
                    self.problems.append(f"{case.id}: oracle rejects the circuit: {exc}")
                    for call in self.calls:
                        call.rejected |= call.case is case and call.fingerprint == fingerprint
                    continue
                if len(texts) == 1:
                    instances.append({
                        "id": case.id, "mode": case.inst.mode, "n": case.inst.n,
                        "gates": len(parsed.gates), "lines": parsed.m,
                        "ancillas": parsed.m - parsed.n,
                        "circuit_bytes": len(text.encode("utf-8")), "sha256": fingerprint,
                    })
        by_id = {i["id"]: i for i in instances}
        for call in self.calls:
            if call.failed or call.case.id not in by_id:
                continue
            if call.op == "stats":
                fields = dict(line.split(None, 1) for line in call.stdout.splitlines() if " " in line)
                want = by_id[call.case.id]
                if fields.get("gates") != str(want["gates"]) or fields.get("lines") != str(want["lines"]):
                    self.problems.append(f"{call.case.id}: stats disagrees with the oracle")
            if call.op == "verify" and not call.stdout.startswith("match on all"):
                self.problems.append(f"{call.case.id}: verify printed no match line")
        return instances


def e2e_metrics(run: Run, instances: list[dict]) -> dict:
    by_op = {op: [c for c in run.calls if c.op == op] for op in OPS}
    attempted = len(run.calls)
    failed = sum(c.failed for c in run.calls)
    sized = [i for i in instances if i["n"] >= 2]
    ratios = [i["gates"] / reference_gates(i["mode"], i["n"]) for i in sized if i["gates"]]
    return {
        "setup_s": statistics.median(run.scaled(wall, ref) for wall, ref in run.setup),
        **{f"{op}_s": statistics.median(run.scaled(c.wall, c.ref) for c in calls)
           for op, calls in by_op.items() if calls},
        "synth_peak_mb": max(c.peak_mb for c in by_op["synth"]),
        "verify_peak_mb": max(c.peak_mb for c in by_op["verify"]),
        "gates": sum(i["gates"] for i in instances),
        "circuit_lines": sum(i["lines"] for i in instances),
        "ancilla_lines": sum(i["ancillas"] for i in instances),
        "gate_ratio": sum(i["gates"] for i in sized) / sum(
            reference_gates(i["mode"], i["n"]) for i in sized),
        "gate_ratio_geomean": math.exp(statistics.fmean(map(math.log, ratios))) if ratios else 0.0,
        "ok_share": 1 - failed / attempted,
        "failed_share": failed / attempted,
    }


# Per-layer time metrics: (metric, op whose replays it is read from, span
# names, "dur" for inclusive or "self" for self time).  Each value is the
# mean per replay of that op within a round, median over rounds, so that a
# layer used by only some instances of a mixed workload still shows.
LAYER_TIMES = (
    ("perm.transposition_stream_s", "synth", ("perm.transposition_stream",), "dur"),
    ("synth_basic.synth_s", "synth", ("synth_basic.synth_even_permutation",), "dur"),
    ("synth_basic.block_self_s", "synth", ("synth_basic.synth_block",), "self"),
    ("toffoli.decompose_s", "synth", tuple(f"toffoli.{f}" for f in layers.TOFFOLI_FUNCTIONS), "dur"),
    ("synth_lupanov.synth_s", "synth", ("synth_lupanov.choose_params", "synth_lupanov.synth_mapping"), "dur"),
    ("circuit.construct_s", "synth", ("circuit.construct",), "dur"),
    ("circuit.count_gates_s", "stats", ("circuit.count_gates",), "dur"),
    ("circuit.realized_mapping_s", "verify", ("circuit.realized_mapping",), "dur"),
    ("io.parse_table_s", "verify", ("io.parse_table",), "dur"),
    ("io.parse_circuit_s", "verify", ("io.parse_circuit",), "dur"),
    ("io.serialize_s", "synth", ("io.serialize_circuit",), "dur"),
    ("bounds.stats_bounds_s", "stats", tuple(f"bounds.{f}" for f in layers.BOUNDS_FUNCTIONS), "dur"),
)
# Counts summed over the workload's instances, from each instance's first
# traced synth.
LAYER_COUNTS = ("perm.groups", "synth_basic.blocks", "toffoli.calls", "toffoli.gates_out") + tuple(
    f"synth_lupanov.{s}{i}" for s in "Lq" for i in range(1, 6))


def layer_metrics(run: Run, setup_s: float, instances: list[dict]) -> tuple[dict, dict]:
    ops = run.ops
    values: dict[str, float] = {}
    for metric, op, names, kind in LAYER_TIMES:
        per_round = [
            [sum(o[kind][name] for name in names) for o in ops if o["op"] == op and o["round"] == r]
            for r in range(run.rounds)
        ]
        values[metric] = statistics.median(statistics.fmean(s) for s in per_round if s) if ops else 0.0
    first_synth: dict[str, dict] = {}
    for o in ops:
        if o["op"] == "synth":
            first_synth.setdefault(o["case"], o["counts"])
    for key in LAYER_COUNTS:
        values[key] = sum(c.get(key, 0) for c in first_synth.values())
    maxima = run.tracer.maxima
    values["synth_basic.block_budget_use_max"] = maxima.get("synth_basic.block_budget_use_max", 0.0)
    values["circuit.table_bits"] = maxima.get("circuit.table_bits", 0)
    values["io.circuit_bytes"] = sum(i["circuit_bytes"] for i in instances)
    gates = {i["id"]: i["gates"] for i in instances}
    rates = [gates[o["case"]] / o["dur"]["io.parse_circuit"] for o in ops
             if o["op"] == "verify" and o["case"] in gates and o["dur"]["io.parse_circuit"]]
    values["io.parse_gates_per_s"] = statistics.median(rates) if rates else 0.0

    # Accounting: CLI wall = setup + top-level layer time + remainder.
    accounting = {}
    for op in OPS:
        mine = [o for o in ops if o["op"] == op]
        if not mine:
            continue
        top_names = sorted({name for o in mine for name in o["top"]})
        accounting[op] = {
            "cli_s": statistics.median(o["cli_s"] for o in mine),
            "setup_s": setup_s,
            "layers_s": statistics.median(o["layers_s"] for o in mine),
            "remainder_s": statistics.median(o["cli_s"] - setup_s - o["layers_s"] for o in mine),
            "layers": {name: statistics.median(o["top"][name] for o in mine) for name in top_names},
        }
        accounting[op]["largest_layer"] = max(
            accounting[op]["layers"], key=accounting[op]["layers"].get, default=None)
    overheads = [o["cli_s"] - setup_s - o["layers_s"] for o in ops if o["op"] in ("synth", "verify")]
    values["cli.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    values["trace.overhead_s"] = statistics.median(o["traced_s"] - o["plain_s"] for o in ops)
    return values, accounting


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    run = Run(workload, seed, trace, workdir)
    run.measure(seconds)
    instances = run.check_outputs()
    e2e = e2e_metrics(run, instances)
    result = {
        "workload": workload, "seconds": seconds, "trace": int(trace),
        "provenance": provenance(seed), "rounds": run.rounds,
        "attempted": len(run.calls), "failed": sum(c.failed for c in run.calls),
        "failures": [
            {"case": c.case.id, "op": c.op, "exit": c.code,
             "stderr": c.stderr.strip().splitlines()[-1] if c.stderr.strip() else ""}
            for c in run.calls if c.failed
        ],
        "problems": run.problems,
        "instances": instances,
        "timings": {
            "setup_s": quartiles([wall for wall, _ in run.setup]),
            "reference_s": quartiles(run.reference),
            **{f"{op}_s": quartiles([c.wall for c in run.calls if c.op == op])
               for op in OPS if any(c.op == op for c in run.calls)},
        },
        "end_to_end": e2e,
    }
    # Known defect (ROADMAP item 4d): stats exits 3 on a 1-line circuit.
    n1_stats = [c for c in run.calls if c.op == "stats" and c.case.inst.n == 1]
    result["n1_stats_share"] = len(n1_stats) / len(run.calls)
    result["failures_are_n1_stats"] = [id(c) for c in run.calls if c.failed] == list(map(id, n1_stats))
    if trace:
        seen, argvs = set(), []
        for case in run.cases:
            key = (case.inst.mode, case.inst.n, case.inst.ancillas)
            if key not in seen and run.texts[case.id]:
                seen.add(key)
                argvs.append(cli_args("synth", case, replay=True))
        layer_values, accounting = layer_metrics(run, statistics.median(wall for wall, _ in run.setup), instances)
        layer_values.update(layers.memory_pass(run.rc["cli"], argvs))
        result["per_layer"] = layer_values
        result["accounting"] = accounting
        result["spans"] = run.tracer.spans
    result["correct"] = not run.problems
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rcsynth" / "cli.py").is_file():
        print(f"error: no rcsynth sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        keys = ("name", "start", "end", "parent", "instance")
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
    Path(f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    values = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {result['rounds']} rounds, "
          f"{result['attempted']} CLI calls, {result['failed']} failed; "
          f"details in {stem.relative_to(ROOT)}.json")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
