"""Per-layer tracing for the benchmark's traced run.

The traced run replays each CLI call in-process through `rcsynth.cli.main`.
Spans are recorded by wrappers that this module installs, for the length of
one replay, on the names each module looks up at call time: the functions
the CLI calls in `io`, `synth_basic`, `synth_lupanov`, `circuit` and
`bounds`, and the `perm`, `toffoli` and `Circuit` names that `synth_basic`,
`synth_lupanov` and `io` call.  No file of the package is changed.

Spans are kept in memory as [name, start, end, parent index, instance id]
and written out when the run ends.  Allocation peaks come from a separate
`tracemalloc` pass so that tracking allocations does not inflate span times.
"""
from __future__ import annotations

import io
import traceback
import tracemalloc
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterator

BOUNDS_FUNCTIONS = ("shannon_lower", "simple_lower", "pair_block_upper", "block_upper")
TOFFOLI_FUNCTIONS = ("decompose_borrowed", "decompose_clean")


def block_budget(n: int, k: int) -> float:
    """The paper's per-block gate budget 12n + k 2^(k+1) + 32 k log2 k - 10 log2 k."""
    lgk = k.bit_length() - 1
    return 12 * n + k * (1 << (k + 1)) + 32 * k * lgk - 10 * lgk


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.instance = ""
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.instance])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if count is not None:
                count(self, args, result)
            return result

        return traced


def _gates_of(result) -> list:
    # synth_block returns (gates, log) today; ROADMAP item 2 drops the log.
    return result[0] if isinstance(result, tuple) else result


def _count_groups(tr: Tracer, args, result) -> None:
    tr.counts["perm.groups"] += len(result)


def _count_block(tr: Tracer, args, result) -> None:
    group, n = args[0], args[1]
    tr.counts["synth_basic.blocks"] += 1
    tr.note_max(
        "synth_basic.block_budget_use_max",
        len(_gates_of(result)) / block_budget(n, 2 * len(group)),
    )


def _count_decompose(tr: Tracer, args, result) -> None:
    tr.counts["toffoli.calls"] += 1
    tr.counts["toffoli.gates_out"] += len(result)


def _count_stages(tr: Tracer, args, result) -> None:
    stage = result[1]
    for i, value in enumerate(stage.gate_counts):
        tr.counts[f"synth_lupanov.L{i + 1}"] += value
    for i, value in enumerate(stage.ancilla_counts):
        tr.counts[f"synth_lupanov.q{i + 1}"] += value


def _count_table_bits(tr: Tracer, args, result) -> None:
    circuit = args[0]
    tr.note_max("circuit.table_bits", circuit.m << circuit.n)


def timing_patches(rc: dict[str, ModuleType]) -> list[tuple[ModuleType, str, str, Callable | None]]:
    """(module, attribute, span name, counter) for every call site traced."""
    cli, sb, sl, rio = rc["cli"], rc["synth_basic"], rc["synth_lupanov"], rc["io"]
    patches = [
        (cli, "parse_permutation", "io.parse_table", None),
        (cli, "parse_spec_table", "io.parse_table", None),
        (cli, "parse_circuit", "io.parse_circuit", None),
        (cli, "serialize_circuit", "io.serialize_circuit", None),
        (cli, "synth_even_permutation", "synth_basic.synth_even_permutation", None),
        (cli, "choose_params", "synth_lupanov.choose_params", None),
        (cli, "synth_mapping", "synth_lupanov.synth_mapping", _count_stages),
        (cli, "realized_mapping", "circuit.realized_mapping", _count_table_bits),
        (cli, "count_gates", "circuit.count_gates", None),
        (sb, "transposition_stream", "perm.transposition_stream", _count_groups),
        (sb, "plain_transpositions", "perm.plain_transpositions", _count_groups),
        (sb, "synth_block", "synth_basic.synth_block", _count_block),
        (sb, "Circuit", "circuit.construct", None),
        (sb, "count_gates", "circuit.count_gates", None),
        (sl, "Circuit", "circuit.construct", None),
        (rio, "Circuit", "circuit.construct", None),
    ]
    patches += [(sb, name, f"toffoli.{name}", _count_decompose) for name in TOFFOLI_FUNCTIONS]
    patches += [(rc["bounds"], name, f"bounds.{name}", None) for name in BOUNDS_FUNCTIONS]
    return patches


@contextmanager
def patched(replacements: list[tuple[ModuleType, str, Callable]]) -> Iterator[None]:
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, fn in replacements:
            setattr(module, attr, fn)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def missing_targets(rc: dict[str, ModuleType]) -> list[str]:
    """Call sites, as "module.attribute", that the package no longer has.
    Their layer metrics would read 0, so a run with any is not correct; the
    replay skips them so that it can still report the rest."""
    sites = [(module, attr) for module, attr, _, _ in timing_patches(rc)]
    sites += [(rc["cli"], attr) for attr, _ in MEMORY_PATCHES]
    return sorted({f"{m.__name__}.{attr}" for m, attr in sites if not hasattr(m, attr)})


def traced_replacements(tracer: Tracer, rc: dict[str, ModuleType]) -> list:
    return [
        (module, attr, tracer.wrap(name, getattr(module, attr), count))
        for module, attr, name, count in timing_patches(rc)
        if hasattr(module, attr)
    ]


def replay(cli: ModuleType, argv: list[str]) -> tuple[int, float, str]:
    """Run one CLI call in-process.  Returns (exit code, wall seconds,
    traceback text or "")."""
    sink = io.StringIO()
    failure = ""
    start = perf_counter()
    with redirect_stdout(sink), redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code, failure = -1, traceback.format_exc()
    return code, perf_counter() - start, failure


def op_summary(spans: list[list], root: int, end: int) -> dict:
    """Inclusive and self time per span name for the spans under `root`,
    and the total time of the spans directly under it."""
    dur: Counter = Counter()
    own: Counter = Counter()
    children: Counter = Counter()
    top: Counter = Counter()
    for idx in range(root + 1, end):
        name, start, stop, parent, _ = spans[idx]
        dur[name] += stop - start
        own[name] += stop - start
        children[parent] += stop - start
        if parent == root:
            top[name] += stop - start
    for idx in range(root + 1, end):
        own[spans[idx][0]] -= children[idx]
    return {"dur": dur, "self": own, "top": top, "layers_s": sum(top.values())}


MEMORY_PATCHES = (
    ("synth_even_permutation", "synth_basic.peak_mb"),
    ("synth_mapping", "synth_lupanov.peak_mb"),
    ("realized_mapping", "circuit.peak_mb"),
)


def memory_pass(cli: ModuleType, argvs: list[list[str]]) -> dict[str, float]:
    """Largest allocation peak, in MB, of the synthesis call and of the
    verification sweep, over the given synth replays.  Allocations are traced
    only inside those calls, because tracemalloc slows every allocation
    several times over; the peak counts what the call itself allocates."""
    peaks = {key: 0.0 for _, key in MEMORY_PATCHES}

    def track(key: str, fn: Callable) -> Callable:
        def tracked(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[key] = max(peaks[key], tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()

        return tracked

    replacements = [
        (cli, attr, track(key, getattr(cli, attr)))
        for attr, key in MEMORY_PATCHES
        if hasattr(cli, attr)
    ]
    with patched(replacements):
        for argv in argvs:
            replay(cli, argv)
    return peaks
