"""Closed-loop benchmark of cycleramsey: one process, one client, no threads.

    python3 benchmarks/run.py --workload arrow-short --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, one after another
    python3 benchmarks/run.py --smoke                 # one job per workload, all checks

Each run builds its inputs from the seed, repeats passes over the workload's
fixed job list for ``--seconds`` (whole passes), checks every output
independently and prints the end-to-end metrics, then one JSON line. With
``--trace 1`` it first measures untraced, then traced, and prints the
per-layer metrics instead; spans go to ``.bench_out/``. The library is
imported from ``src/`` of the checkout and nothing else.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

# Time of ``calibration`` on the reference machine. Every reported time is
# wall time scaled by REF_CALIBRATION_S / (calibration measured next to it):
# on a shared host the same code runs up to 1.7x slower from one minute to
# the next, and the scaling cancels most of that drift.
REF_CALIBRATION_S = 0.0005

# The Petersen graph has no 7-cycle, so the search below always does the same
# exhaustive work: recursive bitmask DFS, like the library's own hot loops,
# which tracks the library's speed better than a plain arithmetic loop.
PETERSEN = oracles.adjacency(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)

# name -> unit of every end-to-end metric in the final JSON line
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

# Fixed-budget probes: node rate only, outside every workload's job list,
# because a change to what the node budget counts changes what they do.
PROBES = {"c8c8_n11": ((8, 8), 11, 1500), "c444_n11": ((4, 4, 4), 11, 150_000)}


def calibration() -> float:
    """Wall time of a fixed search: the machine's speed right now.

    The fastest of three runs, so that one interrupt does not count as a
    slow machine.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        oracles.has_cycle(PETERSEN, 7)
        best = min(best, time.perf_counter() - t0)
    return best


def timed(fn):
    """(fn(), wall time scaled to the reference speed, speed factor)."""
    before = calibration()
    t0 = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - t0
    factor = 2 * REF_CALIBRATION_S / (before + calibration())
    return out, elapsed * factor, factor


def import_library():
    """Import cycleramsey from ``src/`` of the checkout; (modules, seconds)."""
    src = ROOT / "src"
    if not (src / "cycleramsey" / "__init__.py").is_file():
        sys.exit(f"error: no library at {src / 'cycleramsey'}; run from a full checkout")
    sys.path.insert(0, str(src))

    def load():
        import cycleramsey.cli
        import cycleramsey.harness
        import cycleramsey.search

        return cycleramsey

    cycleramsey, elapsed, _ = timed(load)
    if Path(cycleramsey.__file__).resolve().parent != (src / "cycleramsey").resolve():
        sys.exit(f"error: imported cycleramsey from {cycleramsey.__file__}, not {src}")
    cr = types.SimpleNamespace(
        search=cycleramsey.search, harness=cycleramsey.harness, cli=cycleramsey.cli
    )
    return cr, elapsed


class Runner:
    """Runs jobs, times the library call, checks and compares every output."""

    def __init__(self):
        self.first: dict[int, str] = {}  # job index -> canonical output of its first run
        self.verdict: dict[int, tuple[str, str]] = {}  # job index -> (status, reason)
        self.failures: dict[str, str] = {}  # job name -> first failure reason
        self.wrong = False  # some output was wrong, invalid or non-deterministic
        self.reset()

    def reset(self) -> None:
        self.samples: list[float] = []  # scaled wall times of jobs that completed
        self.times: dict[int, list[float]] = defaultdict(list)  # job index -> every attempt
        self.factors: list[float] = []  # speed factor measured around each job
        self.attempted = self.failed = self.unknown = 0

    def _fail(self, job, reason: str, wrong: bool) -> None:
        self.failed += 1
        self.failures.setdefault(job.name, reason)
        self.wrong |= wrong

    def run(self, index: int, job, tracer=None) -> None:
        self.attempted += 1

        def call():
            span = tracer.begin(tracer.name_id("job")) if tracer else None
            try:
                return job.call(), None
            except Exception as exc:  # a crash is a failed job, never a stopped run
                return None, exc
            finally:
                if tracer:
                    tracer.finish(span)

        (out, exc), elapsed, factor = timed(call)
        self.times[index].append(elapsed)
        self.factors.append(factor)
        if exc is not None:
            self._fail(job, f"raised {type(exc).__name__}: {exc}", wrong=False)
            return
        try:
            text = job.canon(out)
            if index not in self.first:
                self.first[index] = text
                self.verdict[index] = (job.check(text), "")
            elif text != self.first[index]:
                self._fail(job, "output differs from the job's first run", wrong=True)
                return
        except Exception as exc:  # CheckFailed, or an output the check cannot read
            self.verdict[index] = ("failed", f"{type(exc).__name__}: {exc}")
        status, reason = self.verdict[index]
        if status == "failed":
            self._fail(job, reason, wrong=True)
            return
        self.unknown += status == "unknown"
        self.samples.append(elapsed)

    def measure(self, jobs, seconds: float, tail_pct: float, tracer=None) -> tuple[int, float]:
        """Whole passes until ``seconds`` have passed, at least two passes and
        10 samples beyond the tail percentile (capped at 3x ``seconds``)."""
        t0 = time.perf_counter()
        passes = 0
        while True:
            for index, job in enumerate(jobs):
                self.run(index, job, tracer)
            passes += 1
            elapsed = time.perf_counter() - t0
            beyond = len(self.samples) * (1 - tail_pct / 100)
            if passes >= 2 and elapsed >= seconds and (beyond >= 10 or elapsed >= 3 * seconds):
                return passes, elapsed

    def jobs_per_s(self) -> float:
        """Completed jobs per second of a pass timed at each job's median.

        Medians over passes keep a burst of machine noise in one pass from
        moving the figure; failed jobs cost their time and count for nothing.
        """
        pass_time = sum(statistics.median(t) for t in self.times.values())
        completed = len(self.samples) / self.attempted * len(self.times)
        return completed / pass_time if pass_time else 0.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def setup(cr, name: str, seed: int):
    """Inputs from the seed, graph files and a warm-up job, timed several times."""

    def one():
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
        jobs, smoke = workloads.build(cr, name, seed, workdir)
        smoke.call()
        return workdir, jobs, smoke

    durations = []
    for repeat in range(SETUP_REPEATS):
        (workdir, jobs, smoke), elapsed, _ = timed(one)
        durations.append(elapsed)
        if repeat < SETUP_REPEATS - 1:
            shutil.rmtree(workdir)
    return jobs, smoke, workdir, statistics.median(durations)


def end_to_end(runner: Runner, tail_pct: float, setup_s: float) -> dict:
    samples = runner.samples or [0.0]
    return {
        "setup_s": setup_s,
        "jobs_per_s": runner.jobs_per_s(),
        "job_p50_s": statistics.median(samples),
        "job_tail_s": percentile(samples, tail_pct),
        "failed_frac": runner.failed / runner.attempted,
        "unknown_frac": runner.unknown / runner.attempted,
        "ok_frac": 1 - runner.failed / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


PER_LAYER_UNITS = {
    "search.nodes": "count",
    "search.leaves": "count",
    "search.presence_prune_ratio": "ratio",
    "search.symmetry_prune_ratio": "ratio",
    "search.self_s": "s",
    "search.us_per_node": "us",
    "search.reverify_s": "s",
    "search.proposals": "count",
    "search.us_per_proposal": "us",
    "search.best_energy": "count",
    "search.nodes_per_s.c8c8_n11": "1/s",
    "search.nodes_per_s.c444_n11": "1/s",
    "cycles.has_cycle_of_length.calls": "count",
    "cycles.has_cycle_of_length.self_s": "s",
    "cycles.longest_cycle.calls": "count",
    "cycles.longest_cycle.self_s": "s",
    "cycles.longest_cycle.refused": "count",
    "matchings.maximum_matching.calls": "count",
    "matchings.maximum_matching.self_s": "s",
    "matchings.best_component_matching.self_s": "s",
    "matchings.tutte_partition.self_s": "s",
    "matchings.blossom_per_tutte": "ratio",
    "graphs.Graph.calls": "count",
    "graphs.Graph.self_s": "s",
    "graphs.components.self_s": "s",
    "graphs.bipartition.self_s": "s",
    "graphs.io_s": "s",
    "constructions.build_s": "s",
    "constructions.verify_claims.self_s": "s",
    "harness.samples": "count",
    "harness.self_s": "s",
    "harness.s_per_sample": "s",
    "bounds.self_s": "s",
    "cli.run.self_s": "s",
    "trace.jobs_per_s_untraced": "1/s",
    "trace.jobs_per_s_traced": "1/s",
    "trace.overhead_frac": "frac",
}


def per_layer(tracer, passes: int) -> dict:
    """Per-pass counts and self times by layer, from the traced phase."""
    own = tracer.self_times()
    calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
    for span, t in enumerate(own):
        name = tracer.names[tracer.name_of[span]]
        calls[name] += 1
        self_s[name] += t
        total_s[name] += tracer.end[span] - tracer.start[span]
    layer_self = defaultdict(float)
    for name, t in self_s.items():
        layer_self[name.split(".")[0]] += t

    stats = Counter()
    energies = []
    for name, out in tracer.results:
        if name == "harness.lemma_harness":
            stats["samples"] += out.samples
            continue
        s = out.stats
        stats.update(nodes=s.nodes, leaves=s.leaves, presence=s.presence_prunes,
                     symmetry=s.symmetry_prunes, proposals=s.proposals)
        if name == "search.arrow_randomized" and s.best_energy is not None:
            energies.append(s.best_energy)
    refused = sum(
        1 for span, err in tracer.errors.items()
        if err == "BudgetExceededError"
        and tracer.names[tracer.name_of[span]] == "cycles.longest_cycle"
    )
    tutte = tracer.name_id("matchings.tutte_partition")
    blossom = tracer.name_id("matchings.maximum_matching")
    in_tutte = sum(
        1 for span in range(len(own))
        if tracer.name_of[span] == blossom and tracer.has_ancestor(span, tutte)
    )

    def ratio(a, b):
        return a / b if b else 0.0

    def per_pass(x):
        return x / passes

    io = ("graphs.load_graph", "graphs.dump_graph", "graphs.load_coloring",
          "graphs.dump_coloring")
    builds = [n for n in total_s if n.startswith("constructions.build_")]
    return {
        "search.nodes": per_pass(stats["nodes"]),
        "search.leaves": per_pass(stats["leaves"]),
        "search.presence_prune_ratio": ratio(stats["presence"], stats["nodes"]),
        "search.symmetry_prune_ratio": ratio(stats["symmetry"], stats["nodes"]),
        "search.self_s": per_pass(layer_self["search"]),
        "search.us_per_node": 1e6 * ratio(self_s["search.arrow_exhaustive"], stats["nodes"]),
        "search.reverify_s": per_pass(total_s["search.coloring_avoids_all"]),
        "search.proposals": per_pass(stats["proposals"]),
        "search.us_per_proposal":
            1e6 * ratio(self_s["search.arrow_randomized"], stats["proposals"]),
        "search.best_energy": statistics.mean(energies) if energies else 0.0,
        "cycles.has_cycle_of_length.calls": per_pass(calls["cycles.has_cycle_of_length"]),
        "cycles.has_cycle_of_length.self_s": per_pass(self_s["cycles.has_cycle_of_length"]),
        "cycles.longest_cycle.calls": per_pass(calls["cycles.longest_cycle"]),
        "cycles.longest_cycle.self_s": per_pass(self_s["cycles.longest_cycle"]),
        "cycles.longest_cycle.refused": per_pass(refused),
        "matchings.maximum_matching.calls": per_pass(calls["matchings.maximum_matching"]),
        "matchings.maximum_matching.self_s": per_pass(self_s["matchings.maximum_matching"]),
        "matchings.best_component_matching.self_s":
            per_pass(self_s["matchings.best_component_matching"]),
        "matchings.tutte_partition.self_s": per_pass(self_s["matchings.tutte_partition"]),
        "matchings.blossom_per_tutte": ratio(in_tutte, calls["matchings.tutte_partition"]),
        "graphs.Graph.calls": per_pass(calls["graphs.Graph"]),
        "graphs.Graph.self_s": per_pass(self_s["graphs.Graph"]),
        "graphs.components.self_s": per_pass(self_s["graphs.components"]),
        "graphs.bipartition.self_s": per_pass(self_s["graphs.bipartition"]),
        "graphs.io_s": per_pass(sum(self_s[n] for n in io)),
        "constructions.build_s": per_pass(sum(total_s[n] for n in builds)),
        "constructions.verify_claims.self_s": per_pass(self_s["constructions.verify_claims"]),
        "harness.samples": per_pass(stats["samples"]),
        "harness.self_s": per_pass(layer_self["harness"]),
        "harness.s_per_sample": ratio(total_s["harness.lemma_harness"], stats["samples"]),
        "bounds.self_s": per_pass(layer_self["bounds"]),
        "cli.run.self_s": per_pass(self_s["cli.run"]),
    }


def probe_rates(cr) -> dict:
    """Nodes per (scaled) second of the fixed-budget decisions, untraced."""
    out = {}
    for name, (lengths, n, budget) in PROBES.items():
        inst = cr.search.ArrowInstance(n, tuple(cr.search.CycleTarget(x) for x in lengths))
        verdict, elapsed, _ = timed(lambda: cr.search.arrow_exhaustive(inst, budget=budget))
        out[f"search.nodes_per_s.{name}"] = verdict.stats.nodes / elapsed
    return out


def report(metrics: dict, units: dict, correct: bool, attempted: int, failed: int) -> None:
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(line), flush=True)


def run_workload(args) -> None:
    cr, import_s = import_library()
    OUT.mkdir(exist_ok=True)
    jobs, _, workdir, setup_s = setup(cr, args.workload, args.seed)
    tail_pct = workloads.TAIL_PCT[args.workload]
    runner = Runner()
    try:
        passes, elapsed = runner.measure(jobs, args.seconds, tail_pct)
        metrics = end_to_end(runner, tail_pct, import_s + setup_s)
        attempted, failed = runner.attempted, runner.failed
        print(f"workload {args.workload}  seed {args.seed}  {len(jobs)} jobs x {passes} passes"
              f"  {elapsed:.1f} s  closed loop, one client  speed factor"
              f" {statistics.median(runner.factors):.3f}")
        for name, value in metrics.items():
            unit = "frac" if name.endswith("_frac") else END_TO_END.get(name, "")
            note = f"  (p{tail_pct:g} of {len(runner.samples)} samples)" \
                if name == "job_tail_s" else ""
            print(f"  {name:<14} {value:.6g} {unit}{note}")
        if args.trace:
            runner.reset()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_passes, _ = runner.measure(jobs, args.seconds, tail_pct, tracer)
            finally:
                tracer.uninstall()
            layers = per_layer(tracer, traced_passes)
            layers.update(probe_rates(cr))
            untraced, traced = metrics["jobs_per_s"], runner.jobs_per_s()
            layers["trace.jobs_per_s_untraced"] = untraced
            layers["trace.jobs_per_s_traced"] = traced
            layers["trace.overhead_frac"] = 1 - traced / untraced if untraced else 0.0
            spans = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
            tracer.write(spans)
            print(f"traced {traced_passes} passes, {len(tracer.start)} spans -> {spans}")
            for name, value in layers.items():
                print(f"  {name:<42} {value:.6g} {PER_LAYER_UNITS[name]}")
            attempted += runner.attempted
            failed += runner.failed
            metrics, units = layers, PER_LAYER_UNITS
        else:
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, reason in runner.failures.items():
        print(f"  failed: {name}: {reason}")
    report(metrics, units, not runner.wrong, attempted, failed)


def run_smoke() -> None:
    """One job of each workload, run twice with every output check."""
    cr, _ = import_library()
    OUT.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    runner = Runner()
    for name in workloads.BUILDERS:
        workdir = Path(tempfile.mkdtemp(prefix=f"smoke-{name}-", dir=OUT))
        try:
            _, job = workloads.build(cr, name, 1, workdir)
            runner.first.clear()
            runner.verdict.clear()
            for _ in range(2):
                runner.run(0, job)
            print(f"smoke {name}: {job.name}: {runner.verdict.get(0, ('failed', ''))[0]}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for name, reason in runner.failures.items():
        print(f"  failed: {name}: {reason}")
    elapsed = time.perf_counter() - t0
    report({"smoke_s": elapsed}, {"smoke_s": "s"}, not runner.wrong,
           runner.attempted, runner.failed)
    if runner.failed:
        sys.exit(1)


def run_all(args) -> None:
    """Every workload in its own process, so each has its own peak memory."""
    merged, units = {}, {}
    correct, attempted, failed = True, 0, 0
    for name in workloads.BUILDERS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            merged[f"{name}.{metric}"] = value["value"]
            units[f"{name}.{metric}"] = value["unit"]
    report(merged, units, correct, attempted, failed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "arrow-short", "arrow-long", "anneal", "certify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        run_smoke()
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
