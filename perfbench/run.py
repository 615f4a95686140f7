"""End-to-end benchmark of the matroidkit command line.

Run from the root of a matroidkit checkout:

    python3 perfbench/run.py --workload edges --seed 1 --seconds 30 --trace 0

One bench process runs the workload's commands one at a time, each as a
``python -m matroidkit.cli ...`` subprocess (a closed loop with one
client), in passes over the whole command list, and checks every
command's output after its pass, outside the timed region.  Passes
repeat while another one fits in ``--seconds``; there are always at
least two.  A command over its time limit is killed and counts as
failed.

With ``--trace 1`` the same commands run in this process instead, through
``matroidkit.cli.main``, with spans around the calls into each layer
(see ``tracing.py``); that run reports the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it are a
readable report, and ``.perfbench/`` in the checkout receives the full
record of the run (environment, every sample, every failure).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

from workloads import BUILDERS, COMMAND_LIMIT_S, RUN_DEADLINE_S, Command, Outcome, Sample, build

#: Input generation runs this many times per run; setup_s is the median.
SETUPS = 3
#: Every run makes at least this many passes over its commands.
MIN_PASSES = 2
#: Variables that size numpy's BLAS/OpenMP thread pools; recorded as
#: found, never set, because they explain CPU time above wall time.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    samples: List[Sample] = field(default_factory=list)


def environment(root: Path) -> Dict[str, object]:
    def version(package: str) -> Optional[str]:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    sha = None
    if (root / ".git").exists():
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        sha = got.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "git_sha": sha,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "platform": platform.platform(),
    }


def set_up(name: str, seed: int, inputs: Path):
    """Generate the inputs and expected answers SETUPS times (the same
    each time); return the commands and the median generation time."""
    times = []
    for _ in range(SETUPS):
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        commands = build(name, seed, inputs)
        times.append(time.perf_counter() - start)
    return commands, statistics.median(times)


def tail(latencies: List[float]):
    """The latency at the highest percentile that leaves at least ten
    samples above it (the maximum when there are too few samples), that
    percentile, and the number of samples above it."""
    ordered = sorted(latencies)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


# -- subprocess runs -------------------------------------------------------


class Runner:
    """Runs commands as CLI subprocesses of the checkout's ``src``."""

    def __init__(self, root: Path, outputs: Path):
        self.outputs = outputs
        outputs.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.cwd = root

    def spawn(self, argv: List[str], slot: str):
        """Run one command to completion or its time limit; return the
        latency, the child's rusage and the exit code (None if killed)."""
        out_path, err_path = self.outputs / f"{slot}.out", self.outputs / f"{slot}.err"
        lock = threading.Lock()
        state = {"reaped": False, "killed": False}
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "matroidkit.cli", *argv],
                stdout=out, stderr=err, env=self.env, cwd=self.cwd,
            )

            def expire():
                with lock:
                    if not state["reaped"]:
                        state["killed"] = True
                        proc.kill()

            timer = threading.Timer(COMMAND_LIMIT_S, expire)
            timer.start()
            try:
                # wait without reaping, so a late kill cannot hit a reused pid
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                with lock:
                    state["reaped"] = True
                _, status, usage = os.wait4(proc.pid, 0)
                elapsed = time.perf_counter() - start
            finally:
                timer.cancel()
                timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if state["killed"] else proc.returncode
        return elapsed, usage, code

    def outcome(self, slot: str, code: Optional[int]) -> Outcome:
        read = lambda suffix: (self.outputs / f"{slot}{suffix}").read_text(
            encoding="utf-8", errors="replace"
        )
        return Outcome(code, read(".out"), read(".err"))

    def run_pass(self, commands: List[Command], deadline: float) -> Pass:
        results = []
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        for i, command in enumerate(commands):
            if time.perf_counter() > deadline:
                results.append((command, None, None))
                continue
            results.append((command, str(i), self.spawn(command.argv, str(i))))
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        run = Pass(wall, cpu)
        for command, slot, spawned in results:
            if spawned is None:
                run.samples.append(Sample(command.name, 0.0, failure="not run: run deadline"))
                continue
            elapsed, usage, code = spawned
            run.samples.append(Sample(
                command.name, elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                command.check(self.outcome(slot, code)), command.known_defect,
            ))
        return run


def measure(commands: List[Command], runner: Runner, seconds: float) -> List[Pass]:
    """Passes over the commands while another fits in ``seconds``."""
    passes: List[Pass] = []
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    while True:
        passes.append(runner.run_pass(commands, deadline))
        elapsed = time.perf_counter() - start
        longest = max(p.wall_s for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + longest > seconds:
            return passes
        if elapsed + longest > RUN_DEADLINE_S:
            return passes


def end_to_end(passes: List[Pass], setup_s: float):
    samples = [s for p in passes for s in p.samples if s.seconds > 0]
    value, percentile, above = tail([s.seconds for s in samples])
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "op_p50_s": (statistics.median(s.seconds for s in samples), "s"),
        "op_tail_s": (value, "s"),
        "peak_rss_mb": (max(s.max_rss_kb for s in samples) / 1024.0, "MB"),
    }
    notes = {"op_samples": len(samples), "op_tail_percentile": percentile,
             "op_tail_samples_above": above}
    return metrics, notes


# -- reporting -------------------------------------------------------------


def report(args, env, metrics, notes, all_samples, extra=None, emit=None) -> int:
    """Print the readable report and the JSON line (with the metrics
    named in ``emit``, default all); write the run's record."""
    attempted = len(all_samples)
    failures = [s for s in all_samples if s.failure]
    unexpected = [s for s in failures if not s.known_defect]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit}")
    for name, value in (notes or {}).items():
        print(f"  {name:44s} {value}")
    print(f"  {'fail_ratio':44s} {len(failures) / attempted:14.6f} 1"
          f"  ({len(failures)} of {attempted} commands)")
    seen = set()
    for s in failures:
        if (s.name, s.failure) in seen:
            continue
        seen.add((s.name, s.failure))
        tag = f"known defect: {s.known_defect}" if s.known_defect else "UNEXPECTED"
        print(f"  FAIL {s.name}: {s.failure} [{tag}]")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "notes": notes, **(extra or {}),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": [vars(s) for s in all_samples],
    }
    out = Path.cwd() / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: record["metrics"][k] for k in (emit or metrics)},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "matroidkit" / "cli.py").is_file():
        print(f"error: {root} is not a matroidkit checkout (no src/matroidkit/cli.py)",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    env = environment(root)
    commands, setup_s = set_up(args.workload, args.seed, work / "inputs")

    if args.trace:
        import tracing

        metrics, notes, samples, spans = tracing.run(root, commands, args.seconds)
        return report(args, env, metrics, notes, samples, spans, tracing.emitted(metrics))

    runner = Runner(root, work / "outputs")
    # compiles the program's bytecode and warms the file cache; untimed
    runner.spawn(["gen", "uniform", "1", "2"], "warmup")
    passes = measure(commands, runner, args.seconds)
    metrics, notes = end_to_end(passes, setup_s)
    notes["passes"] = len(passes)
    samples = [s for p in passes for s in p.samples]
    return report(args, env, metrics, notes, samples)


if __name__ == "__main__":
    sys.exit(main())
