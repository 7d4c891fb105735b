"""orelab benchmark: one command that times a workload, checks its outputs
and prints every metric by name with its unit.

    python3 bench/run.py --workload census|measure|verify --seed N \\
        --seconds S --trace 0|1

Run from the repository root. Every sample runs in a fresh interpreter
(child.py) with ``PYTHONHASHSEED`` fixed and ``ORELAB_THREADS`` removed, one
after another: a single client in a closed loop. The seed makes the inputs;
``--seconds`` fixes how much work a run does (``RATE``), so both sides of a
comparison do the same work. Times are scaled to a reference host speed with
the probe in probe.py; the unscaled figures are printed too.

End-to-end metrics (``--trace 0``), per run:

- ``setup_s``: median over processes of the time from spawn to the start of
  timed work: interpreter start, ``import orelab``, inputs and warm-up.
- ``wall_s``, ``cpu_s``: mean per process of the timed phase's wall and CPU
  time: one cold census, one verify sweep, one third of the measure stream.
- ``peak_rss_mib``: median of the processes' ``ru_maxrss``.
- ``items_per_s``: verified items per second: critical graphs for census,
  graphs for measure, suite rows for verify.
- ``item_ms_p50``, ``item_ms_tail``: latency of one operation (one graph,
  one census, one verify sweep); the tail is the highest percentile with at
  least ten samples beyond it, or the maximum below 21 samples.
- ``ops_failed_frac`` (printed only, as it is 0 on a correct run):
  operations that raised or gave a wrong answer over those attempted.

With ``--trace 1`` it runs pairs of processes doing the same work, one
untraced and one traced (spans.py), and reports the per-layer metrics of
layers.py and ``trace_overhead_frac``, the traced wall time over the
untraced one, minus 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A wrong answer or a
failed call counts as a failed operation and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REFERENCE_MS, scale, speed_probe_ms

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Units of work per second of --seconds: census processes, verify sweeps
# over k = 4, 5, 6, and 48-item blocks of the measure stream. The mix keeps
# each workload's spread over seeds small on a 2-core virtual machine while a
# 24-second run takes 20 to 45 s; measure gets the most work because its
# items differ from seed to seed.
RATE = {"census": 1 / 3, "verify": 1 / 12, "measure": 1.25}
MEASURE_PROCESSES = 3
# Set-up is sampled at least this often per run; workloads with fewer
# measuring processes add set-up-only ones.
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def plan(workload: str, seconds: float) -> tuple[int, int]:
    """(processes, units of work per process) for a run of ``seconds``."""
    units = max(1, round(seconds * RATE[workload]))
    if workload == "measure":
        return MEASURE_PROCESSES, max(1, round(units / MEASURE_PROCESSES))
    return units, 1


class Runner:
    """Spawns child processes one at a time and collects what they report."""

    def __init__(self, workload: str, seed: int, small: bool, corrupt: bool):
        self.workload = workload
        self.seed = seed
        self.small = small
        self.corrupt = corrupt
        self.start = time.monotonic()
        self.workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
        self.count = 0
        self.env = dict(os.environ)
        self.env.pop("ORELAB_THREADS", None)
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONPATH"] = str(SRC)

    def spawn(self, mode: str, index: int, units: int, trace: bool) -> dict | None:
        """Run one child; its result dict with ``setup_s`` added, or None if
        it crashed or ran past the deadline."""
        self.count += 1
        out = self.workdir / f"child-{self.count}.json"
        log = self.workdir / f"child-{self.count}.log"
        spec = {
            "workload": self.workload,
            "seed": self.seed,
            "small": self.small,
            "index": index,
            "units": units,
            "trace": trace,
            "mode": mode,
            "corrupt": self.corrupt,
            "workdir": str(self.workdir),
            "out": str(out),
        }
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        with open(log, "w") as fh:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                    stdout=fh,
                    stderr=subprocess.STDOUT,
                    env=self.env,
                    cwd=ROOT,
                    timeout=max(1.0, remaining),
                )
            except subprocess.TimeoutExpired:
                print(f"child {self.count} passed the {DEADLINE_S:.0f} s deadline", file=sys.stderr)
                return None
        if proc.returncode != 0 or not out.exists():
            print(f"child {self.count} exited with code {proc.returncode}:", file=sys.stderr)
            print(log.read_text()[-2000:], file=sys.stderr)
            return None
        result = json.loads(out.read_text())
        result["setup_s"] = result["ready"] - spawned
        if result.get("failed") or result.get("errors"):
            print(log.read_text()[-2000:], file=sys.stderr)
        return result


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and its
    label. Below 21 samples that percentile would not exceed the median, so
    the maximum is reported instead."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return ordered[-1], "the maximum"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f}"


def run_plain(runner: Runner, seconds: float) -> tuple[dict, list, list]:
    """End-to-end metrics with tracing off, in reference seconds. wall_s and
    cpu_s are per process, that is per unit of work for census and verify and
    per share of the stream for measure."""
    processes, units = plan(runner.workload, seconds)
    results = [runner.spawn("run", i, units, False) for i in range(processes)]
    for i in range(processes, SETUP_SAMPLES):
        results.append(runner.spawn("setup", i, units, False))
    if any(r is None for r in results):
        return {}, [], results
    done = [r for r in results if "wall_s" in r]
    setups = [r["setup_s"] * scale(r["probe_ms"][0]) for r in results]
    latencies = [x for r in done for x in r["ops"]]
    value, pct = tail(latencies)
    metrics = {
        "setup_s": [statistics.median(setups), "s"],
        "wall_s": [statistics.mean(r["wall_s"] for r in done), "s"],
        "cpu_s": [statistics.mean(r["cpu_s"] for r in done), "s"],
        "peak_rss_mib": [statistics.median(r["peak_rss_mib"] for r in done), "MiB"],
        "items_per_s": [sum(r["items"] for r in done) / sum(r["wall_s"] for r in done), "1/s"],
        "item_ms_p50": [statistics.median(latencies) * 1000, "ms"],
        "item_ms_tail": [value * 1000, "ms"],
    }
    raw = [
        ("setup_s", statistics.median(r["setup_s"] for r in results)),
        ("wall_s", statistics.mean(r["raw_wall_s"] for r in done)),
        ("cpu_s", statistics.mean(r["raw_cpu_s"] for r in done)),
    ]
    notes = [
        f"times are scaled to a host where the speed probe takes {REFERENCE_MS} ms; "
        f"probe median {statistics.median(p for r in results for p in r['probe_ms']):.3f} ms",
        "unscaled: " + ", ".join(f"{name} = {v:.6g} s" for name, v in raw),
        f"item_ms_tail is {pct} of {len(latencies)} samples",
        f"setup_s is the median of {len(setups)} processes; wall_s and cpu_s the mean "
        f"and peak_rss_mib the median of {len(done)}",
    ]
    return metrics, notes, results


def run_traced(runner: Runner, seconds: float) -> tuple[dict, list, list]:
    """Per-layer metrics: pairs of processes doing the same work, one
    untraced and one traced. Times are in reference seconds."""
    processes, units = plan(runner.workload, seconds)
    results = []
    for i in range(max(1, processes // 4)):
        results.append(runner.spawn("run", i, units, False))
        results.append(runner.spawn("run", i, units, True))
    if any(r is None for r in results):
        return {}, [], results
    plain = sum(r["wall_s"] for r in results[0::2])
    traced = sum(r["wall_s"] for r in results[1::2])
    factor = scale(statistics.median(results[1]["probe_ms"]))
    metrics = {
        name: [value * factor if unit in ("s", "ms") else value, unit]
        for name, (value, unit) in results[1]["layers"].items()
    }
    metrics["trace_overhead_frac"] = [traced / plain - 1, "ratio"]
    notes = [f"{len(results) // 2} pairs: untraced wall {plain:.3f} s, traced wall {traced:.3f} s (scaled)"]
    return metrics, notes, results


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False, corrupt: bool = False) -> dict:
    """Run one benchmark invocation and return the result object."""
    runner = Runner(workload, seed, small, corrupt)
    runner.workdir.mkdir(parents=True, exist_ok=True)
    try:
        probe_start = speed_probe_ms()
        record = {
            "sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg": round(os.getloadavg()[0], 2),
            "probe_ms_start": round(probe_start, 3),
        }
        compileall.compile_dir(SRC, quiet=1)
        compileall.compile_dir(BENCH, quiet=1, maxlevels=0)
        metrics, notes, results = (run_traced if trace else run_plain)(runner, seconds)
        record["probe_ms_end"] = round(speed_probe_ms(), 3)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    attempted = failed = 0
    for r in results:
        if r is None:
            attempted += 1
            failed += 1
        elif "ops" in r:
            attempted += len(r["ops"])
            failed += min(len(r["ops"]), r["errors"] + r["failed"])
    attempted = max(attempted, 1)
    correct = bool(metrics) and failed == 0
    print("run: " + " ".join(f"{k}={v}" for k, v in record.items()))
    for name, (value, unit) in metrics.items():
        print(f"{workload}: {name} = {value:.6g} {unit}")
    print(f"{workload}: ops_failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for note in notes:
        print(f"{workload}: {note}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["census", "measure", "verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "orelab" / "__init__.py").is_file():
        print(f"orelab sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
