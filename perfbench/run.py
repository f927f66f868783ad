"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload paper-batched --seed 1 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics of ``BENCHMARK.json`` untraced; ``--trace 1`` alternates
untraced and traced in-process runs and reports the per-layer metrics
(``layers.py``).  Every run checks its outputs.  The last line of
standard output is the JSON result.  ``NOTES.md`` defines each metric,
the workloads (``workloads.py``) and why they were chosen.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed per invocation for ``setup_s``.
SETUP_PROBES = 5
#: Runs at one seed, at least: the repeat-determinism check needs two.
MIN_RUNS = 2
#: A probe that takes longer than this has hung.
PROBE_TIMEOUT_S = 120.0

#: Layers reported by self time, as ``<layer>_s``.
SELF_TIME_LAYERS = (
    "rubis.drain",
    "sim.lindley",
    "sim.fcfs_schedule",
    "monitoring.tick",
    "monitoring.columnar_append",
    "virt.epoch",
    "virt.allocate",
    "virt.housekeeping",
    "shard.pod_build",
    "shard.advance",
    "sim.periodic_other",
)
#: Per-layer count metric -> the layer whose calls it counts.
CALL_COUNTS = {
    "rubis.drain_ticks": "rubis.drain",
    "sim.lindley_calls": "sim.lindley",
    "sim.fcfs_schedule_calls": "sim.fcfs_schedule",
    "monitoring.ticks": "monitoring.tick",
    "virt.epochs": "virt.epoch",
    "virt.allocate_calls": "virt.allocate",
    "shard.windows": "shard.advance",
}


class Ledger:
    """Counts attempted and failed runs; keeps the failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures = []

    def attempt(self, label, fn):
        """Run one unit of work; a raise counts as a failed run."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{label}: raised")
            return None

    def fail(self, label, problems) -> None:
        """Count a completed run whose output checks failed."""
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


def import_simulator():
    """Import the simulator from this checkout's ``src`` only."""
    sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"repro imported from {origin}, not from {SRC}")
    import workloads

    return workloads


def source_digest() -> str:
    """sha256 over every source file (identifies code outside a git clone)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD from ``.git`` when the checkout is a clone, else unknown."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def provenance(workload, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "config": workload.describe(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def probe_setup(workload, seed: int, ledger: Ledger) -> list:
    """Time SETUP_PROBES fresh interpreters to their first event."""
    readings = []
    for index in range(SETUP_PROBES):
        def once():
            launched = time.monotonic()
            done = subprocess.run(
                [sys.executable, str(HERE / "probe.py"), workload.name,
                 str(seed)],
                cwd=ROOT, capture_output=True, text=True, check=True,
                timeout=PROBE_TIMEOUT_S,
            )
            reading = json.loads(done.stdout.strip().splitlines()[-1])
            reading["setup_s"] = reading["ready"] - launched
            return reading

        reading = ledger.attempt(f"setup probe {index}", once)
        if reading is not None:
            readings.append(reading)
    return readings


def peak_rss_mb(include_children: bool) -> float:
    """Peak RSS in MB (``ru_maxrss`` is in KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(
            peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
    return peak / 1024.0


def run_once(workload, seed, ledger, label, first, run=None):
    """One checked run; its fingerprint must repeat the first one's.

    Returns the outcome of a run that completed, even if a check failed
    (the ledger counts the failure), or None if it raised.  Garbage from
    earlier runs is collected first (untimed), so each run starts from
    the same heap and the peak RSS is one run's peak.
    """
    gc.collect()
    outcome = ledger.attempt(label, run or (lambda: workload.run(seed)))
    if outcome is None:
        return None
    problems = list(outcome.problems)
    if first is not None and outcome.fingerprint != first.fingerprint:
        problems.append(
            f"fingerprint {outcome.fingerprint[:16]} != first run "
            f"{first.fingerprint[:16]} at the same seed"
        )
    ledger.fail(label, problems)
    return outcome


def measure_end_to_end(workload, seed, seconds, ledger, report):
    probes = probe_setup(workload, seed, ledger)
    workload.setup(seed)  # warm calibration caches before timing runs
    runs = []
    started = time.perf_counter()
    for attempt in itertools.count(1):
        outcome = run_once(
            workload, seed, ledger, f"run {attempt}",
            runs[0] if runs else None,
        )
        if outcome is not None:
            if runs:
                # Same seed, same samples: keep only the first run's, so
                # the peak RSS does not grow with the number of runs.
                outcome.response_times = None
            runs.append(outcome)
        elapsed = time.perf_counter() - started
        if len(runs) < MIN_RUNS:
            if attempt >= MIN_RUNS and not runs:
                break
        elif elapsed + statistics.median(o.wall_s for o in runs) > seconds:
            break
    if not runs or not probes:
        raise SystemExit("no run completed; see the errors above")
    rss = peak_rss_mb(include_children=workload.name == "datacenter-fleet")
    reference = ledger.attempt(
        "reference", lambda: workload.reference(seed, runs[0])
    )
    if reference is not None:
        ledger.fail("reference", reference.pop("problems"))
    wall = statistics.median(o.wall_s for o in runs)
    report.update(
        runs=len(runs),
        run_walls_s=[round(o.wall_s, 4) for o in runs],
        fingerprint=runs[0].fingerprint,
        requests=runs[0].requests,
        events=runs[0].events,
        reference=reference,
    )
    return {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "sim_s_per_wall_s": runs[0].sim_s / wall,
        "requests_per_wall_s": runs[0].requests / wall,
        "peak_rss_mb": rss,
        "resp_agreement": (
            reference["resp_agreement"] if reference is not None else 0.0
        ),
        "run_ok_frac": 1.0 - ledger.failed / ledger.attempted,
    }


def layer_values(tracer, outcome) -> dict:
    values = {
        "sim.run_until_s": tracer.total_s.get("sim.run_until", 0.0),
        "sim.request_path_s": tracer.self_s.get("sim.run_until", 0.0),
        "sim.events": outcome.events,
    }
    for layer in SELF_TIME_LAYERS:
        values[f"{layer}_s"] = tracer.self_s.get(layer, 0.0)
    for name, layer in CALL_COUNTS.items():
        values[name] = tracer.calls.get(layer, 0)
    return values


def traced_once(workload, seed, ledger, label, first):
    """One checked traced in-process run: (outcome or None, tracer)."""
    from layers import Tracer
    from workloads import run_traced

    tracer = Tracer()
    outcome = run_once(
        workload, seed, ledger, label, first,
        lambda: run_traced(workload, seed, tracer),
    )
    return outcome, tracer


def measure_layers(workload, seed, seconds, ledger, report):
    probes = probe_setup(workload, seed, ledger)
    workload.setup(seed)
    untraced, traced, tables, self_totals = [], [], [], {}
    first = None
    started = time.perf_counter()
    while True:
        # Alternate which side runs first so drift favours neither.
        order = (True, False) if len(traced) % 2 == 0 else (False, True)
        for tracing in order:
            if tracing:
                outcome, tracer = traced_once(
                    workload, seed, ledger, f"traced {len(traced)}", first
                )
                if outcome is not None:
                    traced.append(outcome)
                    tables.append(layer_values(tracer, outcome))
                    for layer, self_s in tracer.self_s.items():
                        self_totals[layer] = (
                            self_totals.get(layer, 0.0) + self_s
                        )
            else:
                outcome = run_once(
                    workload, seed, ledger, f"untraced {len(untraced)}",
                    first, lambda: workload.run_inline(seed),
                )
                if outcome is not None:
                    untraced.append(outcome)
            first = first or outcome
        elapsed = time.perf_counter() - started
        pairs = min(len(traced), len(untraced))
        if not pairs or elapsed + elapsed / pairs > seconds:
            break
    if not pairs or not probes:
        raise SystemExit("no traced run completed; see the errors above")
    traced_wall = sum(o.wall_s for o in traced)
    # The event loop's self time is the request path.
    self_totals["sim.request_path"] = self_totals.pop("sim.run_until", 0.0)
    share = {
        layer: self_s / traced_wall
        for layer, self_s in sorted(
            self_totals.items(), key=lambda item: -item[1]
        )
    }
    share["(rest of the run)"] = 1.0 - sum(share.values())
    report.update(
        fingerprint=first.fingerprint,
        traced_walls_s=[round(o.wall_s, 4) for o in traced],
        untraced_walls_s=[round(o.wall_s, 4) for o in untraced],
        layer_share={k: round(v, 4) for k, v in share.items()},
    )
    values = {
        name: statistics.median(table[name] for table in tables)
        for name in tables[0]
    }
    values["experiments.import_s"] = statistics.median(
        p["import_s"] for p in probes
    )
    values["experiments.prepare_s"] = statistics.median(
        p["prepare_s"] for p in probes
    )
    values["trace.overhead_frac"] = (
        statistics.median(o.wall_s for o in traced)
        / statistics.median(o.wall_s for o in untraced)
        - 1.0
    )
    return values


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = definition["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    workloads = import_simulator()
    workload = workloads.WORKLOADS[name]
    ledger = Ledger()
    report = provenance(workload, seed)
    measure = measure_layers if trace else measure_end_to_end
    values = measure(workload, seed, seconds, ledger, report)
    units = declared_metrics(trace)
    if set(values) != set(units):
        raise SystemExit(
            f"measured {sorted(values)} but BENCHMARK.json declares "
            f"{sorted(units)}"
        )
    report["failures"] = ledger.failures
    print(f"{name}  seed={seed}  trace={trace}")
    for metric, unit in units.items():
        print(f"  {metric:<28s} {values[metric]:>14.6g} {unit}")
    if trace:
        print("  layer self-time share of the traced wall:")
        for layer, share in report["layer_share"].items():
            print(f"    {layer:<28s} {100 * share:6.1f} %")
    print("provenance " + json.dumps(report, sort_keys=True))
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }


def run_all(args) -> int:
    """Every workload, each in its own interpreter (RSS is per process)."""
    results = {}
    for name in ("paper-batched", "paper-classic", "datacenter-fleet"):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"{name}: exited {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def stop_child_processes() -> None:
    """Stop and reap every process this one started, on every way out.

    The fleet's spawned shard workers are joined by ``run_fleet``, but
    their queues start the multiprocessing resource tracker, which
    would otherwise outlive this process.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    gc.collect()  # finalize dead queues so their semaphores unregister
    resource_tracker._resource_tracker._stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("paper-batched", "paper-classic", "datacenter-fleet", "all"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if args.workload == "all":
            return run_all(args)
        result = run_workload(
            args.workload, args.seed, args.seconds, args.trace
        )
    finally:
        stop_child_processes()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
