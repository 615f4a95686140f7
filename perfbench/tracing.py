"""The traced run: per-layer metrics from spans around each layer's calls.

The workload's commands run in this process through
``matroidkit.cli.main``, so they make the same calls into the same
public functions as the CLI subprocesses of the untraced run.  Passes
alternate: an untraced pass, then a traced pass in which every reference
that one matroidkit module holds to a boundary function of another (and
the ``MatroidView`` query methods) is swapped for a wrapper defined
here.  Nothing in ``src/`` changes; the wrappers are removed after each
traced pass.

A span covers one call into a layer.  Its self time is its duration
minus that of the spans it caused.  Each command is a root span; root
self time is the command's time outside every layer (argument parsing,
file input and output, printing), reported as ``trace.unattributed_s``.
Counters sit at the same boundaries.  Spans stay in memory and are
written out with the run's record.
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from workloads import COMMAND_LIMIT_S, RUN_DEADLINE_S, Command, Outcome, Sample

#: Fresh interpreters per import-time measurement; the median is kept.
IMPORT_RUNS = 3

#: Boundary functions: (module, attribute) -> span name.  Every module
#: attribute holding the same function object is wrapped, so calls made
#: through ``from .x import f`` names are caught as well.
SPANS: Dict[Tuple[str, str], str] = {
    ("descriptions", "parse"): "descriptions.parse",
    ("descriptions", "serialize"): "descriptions.serialize",
    ("descriptions", "validate"): "descriptions.validate",
    ("descriptions", "encode_from_oracle"): "descriptions.encode_from_oracle",
    ("descriptions", "to_view"): "descriptions.to_view",
    ("tables", "independence_table"): "tables.independence_table",
    ("tables", "rank_table"): "tables.rank_table",
    ("tables", "classify"): "tables.classify",
    ("tables", "family_masks"): "tables.family_masks",
    ("conversions", "convert"): "conversions.plan",
    ("reductions", "isomorphic"): "reductions.isomorphic",
    ("reductions", "detect_minor_fixed"): "reductions.detect_minor_fixed",
    ("reductions", "detect_minor_exhaustive"): "reductions.detect_minor_exhaustive",
    ("reductions", "intersect3_bases"): "reductions.intersect3_bases",
    ("reductions", "intersect3_bruteforce"): "reductions.intersect3_bruteforce",
    ("reductions", "encode_bipartite"): "reductions.encode_bipartite",
    ("reductions", "parse_3dm"): "reductions.reduce",
    ("reductions", "reduce_3dm"): "reductions.reduce",
    ("reductions", "reduce_subgraph_iso"): "reductions.reduce",
    ("reductions", "reduce_independent_set"): "reductions.reduce",
    ("reductions", "has_matching"): "reductions.verify",
    ("reductions", "subgraph_contains"): "reductions.verify",
    ("reductions", "graph_has_independent_set"): "reductions.verify",
    ("families", "uniform"): "families.build",
    ("families", "separation_family"): "families.build",
    ("families", "phi"): "families.build",
    ("families", "phi_r"): "families.build",
    ("families", "bicircular"): "families.build",
    ("families", "parse_graph"): "families.build",
    ("harness", "measure_family"): "harness.measure_family",
    ("harness", "render_table"): "harness.render",
    ("harness", "render_csv"): "harness.render",
}
#: The exhaustive fallback of ``convert`` is its call of
#: ``encode_from_oracle``; that reference gets its own span.
OVERRIDES = {("conversions", "encode_from_oracle"): "conversions.exhaustive"}
#: Functions counted, not timed: called up to millions of times.
COUNTED = (("bitsets", "check_mask"), ("bitsets", "max_ground"), ("descriptions", "description"))
CORE_METHODS = ("is_independent", "rank", "closure", "basis_of")
TABLE_KEYS = {"independence_table": "indep", "rank_table": "rank", "classify": "families"}
MODULES = ("bitsets", "core", "descriptions", "tables", "conversions",
           "families", "reductions", "harness", "cli")
LAYERS = ("descriptions", "tables", "conversions", "reductions", "families", "harness")


class CommandTimeout(BaseException):
    """Raised in the command by the interval timer at its time limit."""


class Memory:
    """Peak bytes allocated inside the tables layer, by tracemalloc.

    Tracing runs only while an outer table function is active, and is
    paused over the per-mask Python fill of ``independence_table``, which
    it would slow about fourfold; the filled table's bytes are added
    back when tracing resumes.
    """

    def __init__(self):
        self.depth = 0
        self.base = 0
        self.peak = 0
        self.max_peak = 0

    def _fold(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        self.peak = max(self.peak, self.base + peak)
        return self.base + current

    def enter(self):
        if self.depth == 0:
            self.base = self.peak = 0
            tracemalloc.start()
        self.depth += 1

    def leave(self):
        self.depth -= 1
        if self.depth == 0:
            self._fold()
            tracemalloc.stop()
            self.max_peak = max(self.max_peak, self.peak)

    def untraced(self, fill: Callable[[], object]):
        """Run ``fill`` with tracing paused; count its result's bytes."""
        current = self._fold()
        tracemalloc.stop()
        result = None
        try:
            result = fill()
            return result
        finally:
            self.base = current + getattr(result, "nbytes", 0)
            tracemalloc.start()


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, kit):
        self.kit = kit
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.open: List[int] = []
        self.counts: Counter = Counter()
        self.memory = Memory()
        self.command = -1
        self.minor_depth = 0
        self.saved: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def timed(self, name: str, call: Callable[[], object]):
        span_id = len(self.spans)
        parent = self.open[-1] if self.open else -1
        self.spans.append((span_id, parent, self.command, name, 0.0, 0.0))
        self.open.append(span_id)
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            self.open.pop()
            self.spans[span_id] = (span_id, parent, self.command, name, start, end)

    def span_wrapper(self, name: str, fn):
        tracer = self
        if name == "reductions.isomorphic":
            def isomorphic(*args, **kwargs):
                result = tracer.timed(name, lambda: fn(*args, **kwargs))
                tracer.counts["reductions.isomorphic.calls"] += 1
                tracer.counts["reductions.isomorphic.hits"] += result is not None
                tracer.counts["reductions.minor.iso_attempts"] += tracer.minor_depth > 0
                return result
            return isomorphic
        if name.startswith("reductions.detect_minor"):
            def detect(*args, **kwargs):
                tracer.minor_depth += 1
                try:
                    return tracer.timed(name, lambda: fn(*args, **kwargs))
                finally:
                    tracer.minor_depth -= 1
            return detect
        if name.startswith("tables."):
            return self.table_wrapper(name, fn)
        if name in ("descriptions.parse", "descriptions.serialize"):
            def listing(arg):
                result = tracer.timed(name, lambda: fn(arg))
                tracer.counts[f"{name}.sets"] += len((result if name.endswith("parse") else arg).sets)
                return result
            return listing
        return lambda *args, **kwargs: tracer.timed(name, lambda: fn(*args, **kwargs))

    def table_wrapper(self, name: str, fn):
        tracer, key = self, TABLE_KEYS.get(name.split(".")[1])

        def table(view, *args):
            if key is not None:
                cached = view._tables is not None and key in view._tables
                tracer.counts["tables.calls"] += 1
                if cached:
                    tracer.counts["tables.cache_hits"] += 1
                else:
                    tracer.counts["tables.builds"] += 1
                    tracer.counts["tables.cells"] += 1 << view.n
                if key == "indep" and not cached:
                    if tracer.memory.depth:
                        return tracer.timed(name, lambda: tracer.memory.untraced(lambda: fn(view)))
                    result = tracer.timed(name, lambda: fn(view))
                    tracer.memory.max_peak = max(tracer.memory.max_peak, result.nbytes)
                    return result
            tracer.memory.enter()
            try:
                return tracer.timed(name, lambda: fn(view, *args))
            finally:
                tracer.memory.leave()

        return table

    def edge_wrapper(self, fn):
        tracer = self
        return lambda desc, target: tracer.timed(
            f"conversions.{desc.kind}-{target}", lambda: fn(desc, target)
        )

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing and removing the wrappers ------------------------------

    def replace(self, owner, attr: str, value):
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        kit = self.kit
        modules = [getattr(kit, name) for name in MODULES]
        targets = [((m, a), SPANS[(m, a)], self.span_wrapper) for m, a in SPANS]
        targets.append((("conversions", "convert_edge"), None, lambda _, fn: self.edge_wrapper(fn)))
        targets += [(ma, f"{ma[0]}.{ma[1]}.calls", self.counter) for ma in COUNTED]
        for (module_name, attr), name, make in targets:
            fn = getattr(getattr(kit, module_name), attr)
            for module in modules:
                for held, value in list(vars(module).items()):
                    if value is fn:
                        override = OVERRIDES.get((module.__name__.rsplit(".", 1)[1], held))
                        self.replace(module, held, make(override or name, fn))
        view = kit.core.MatroidView
        for method in CORE_METHODS:
            self.replace(view, method, self.counter(f"core.{method}.calls", getattr(view, method)))

    def remove(self):
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            out[name] += end - start - child[span_id]
        return out


# -- running commands in process -------------------------------------------


def call(cli, argv: List[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()

    def expire(signum, frame):
        raise CommandTimeout()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, COMMAND_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code: Optional[int] = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except CommandTimeout:
                code = None
            except Exception:  # the CLI would print a traceback and exit 1
                traceback.print_exc()
                code = 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return Outcome(code, out.getvalue(), err.getvalue())


def run_pass(kit, commands: List[Command], tracer: Optional[Tracer], deadline: float):
    """Run every command once; return the pass wall time and a sample
    per command."""
    results = []
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        for i, command in enumerate(commands):
            if time.perf_counter() > deadline:
                results.append((command, 0.0, None))
                continue
            t0 = time.perf_counter()
            if tracer:
                tracer.command = i
                outcome = tracer.timed("command", lambda: call(kit.cli, command.argv))
            else:
                outcome = call(kit.cli, command.argv)
            results.append((command, time.perf_counter() - t0, outcome))
        wall = time.perf_counter() - start
    finally:
        if tracer:
            tracer.remove()
    samples = [
        Sample(c.name, seconds, failure="not run: run deadline" if o is None else c.check(o),
               known_defect=c.known_defect)
        for c, seconds, o in results
    ]
    return wall, samples


def import_seconds(root: Path, module: str) -> float:
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    runs = [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout)
        for _ in range(IMPORT_RUNS)
    ]
    return statistics.median(runs)


# -- the per-layer metrics -------------------------------------------------

#: Times reported in the JSON line as seconds: those no workload can leave
#: at zero.  Every span is also reported as its share of the traced pass,
#: which reads 0 % for a layer that a workload never calls.
ALWAYS_TIMED = (
    "cli.import_s", "cli.import_networkx_s", "descriptions.parse_s",
    "descriptions.serialize_s", "descriptions.to_view_s", "descriptions.self_s",
    "conversions.self_s", "trace.unattributed_s", "trace.wall_s", "trace.untraced_wall_s",
)


def time_metric_names(edges) -> List[str]:
    """Every span whose self time is reported, as '<layer>.<what>'."""
    names = list(dict.fromkeys(SPANS.values())) + list(OVERRIDES.values())
    return names + [f"conversions.{src}-{dst}" for src, dst in edges]


def emitted(metrics: Dict[str, Tuple[float, str]]) -> List[str]:
    """Names of the per-layer metrics that go into the JSON line."""
    return [name for name, (_, unit) in metrics.items() if unit != "s" or name in ALWAYS_TIMED]


def pass_metrics(tracer: Tracer, wall: float, edges) -> Dict[str, Tuple[float, str]]:
    selfs = tracer.self_times()
    counts = tracer.counts
    out = {f"{name}_s": (selfs.get(name, 0.0), "s") for name in time_metric_names(edges)}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(v for k, v in selfs.items() if k.startswith(layer + ".")), "s")
    out["trace.unattributed_s"] = (selfs.get("command", 0.0), "s")
    out["trace.wall_s"] = (wall, "s")
    for name in ("descriptions.parse.sets", "descriptions.serialize.sets",
                 "descriptions.description.calls", "tables.builds", "tables.cells",
                 "reductions.isomorphic.calls", "reductions.minor.iso_attempts",
                 "bitsets.check_mask.calls", "bitsets.max_ground.calls"):
        out[name] = (counts[name], "count")
    for method in CORE_METHODS:
        out[f"core.{method}.calls"] = (counts[f"core.{method}.calls"], "count")
    ratio = lambda part, whole: counts[part] / counts[whole] if counts[whole] else 0.0
    out["tables.cache_hit_ratio"] = (ratio("tables.cache_hits", "tables.calls"), "1")
    out["reductions.isomorphic.hit_ratio"] = (
        ratio("reductions.isomorphic.hits", "reductions.isomorphic.calls"), "1")
    out["tables.peak_alloc_mb"] = (tracer.memory.max_peak / 2 ** 20, "MB")
    return out


def run(root: Path, commands: List[Command], seconds: float):
    """Alternate untraced and traced in-process passes while another pair
    fits in ``seconds`` (at least one pair); return the per-layer metrics
    (medians over traced passes), notes and every command sample."""
    sys.path.insert(0, str(root / "src"))
    import matroidkit.cli  # noqa: F401  (imports every layer)

    kit = sys.modules["matroidkit"]
    edges = kit.conversions.EDGES
    imports = {
        "cli.import_s": (import_seconds(root, "matroidkit.cli"), "s"),
        "cli.import_networkx_s": (import_seconds(root, "networkx"), "s"),
    }
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    untraced: List[float] = []
    traced: List[Dict[str, Tuple[float, str]]] = []
    samples: List[Sample] = []
    while True:
        wall, got = run_pass(kit, commands, None, deadline)
        untraced.append(wall)
        samples += got
        tracer = Tracer(kit)
        traced_wall, got = run_pass(kit, commands, tracer, deadline)
        traced.append(pass_metrics(tracer, traced_wall, edges))
        samples += got
        elapsed = time.perf_counter() - start
        if elapsed + wall + traced_wall > min(seconds, RUN_DEADLINE_S):
            break
    metrics = dict(imports)
    for name, (_, unit) in traced[0].items():
        metrics[name] = (statistics.median(m[name][0] for m in traced), unit)
    metrics["trace.untraced_wall_s"] = (statistics.median(untraced), "s")
    metrics["trace.overhead_ratio"] = (
        metrics["trace.wall_s"][0] / metrics["trace.untraced_wall_s"][0], "1")
    wall = metrics["trace.wall_s"][0]
    for name in time_metric_names(edges) + list(LAYERS):
        spent = metrics[f"{name}_s" if "." in name else f"{name}.self_s"][0]
        metrics[f"{name}.share"] = (100.0 * spent / wall, "%")
    notes = {"pass_pairs": len(untraced), "spans_last_pass": len(tracer.spans)}
    return metrics, notes, samples, {"spans": tracer.spans}
