"""btlab benchmark: verified sweep runs, each in a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's config (bench/configs) again and again, one fresh
``bench/worker.py`` process at a time: at least two runs, and no further run
that would likely end after S seconds.  Every run is checked (see ``gate``).  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics (medians over the runs); with ``--trace 1`` runs alternate between
untraced and traced, and the metrics are the per-layer ones.  Details of
every run, and the numeric environment, go to
``.bench_results/<workload>-seed<N>-trace<T>.json``.

The program is used from source: ``src/btlab`` of this checkout.  Without
it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

SETUP_PROBES = 9  # extra setup-only processes, so setup_s is a median of several
MIN_RUNS = 2  # with --trace 1: one untraced and one traced run
DEADLINE_S = 170.0  # workers still running this long after the start are killed
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    config: Path
    cache: str  # "cold": fresh cache dir per run, "warm": prefilled once, "none": no disk cache
    reference: Path  # expected tables.csv, byte for byte


WORKLOADS = {
    "demo-cold": Workload(BENCH / "configs" / "demo.cfg", "cold", BENCH / "reference" / "demo.tables.csv"),
    "demo-warm": Workload(BENCH / "configs" / "demo.cfg", "warm", BENCH / "reference" / "demo.tables.csv"),
    "stretch-1024": Workload(
        BENCH / "configs" / "stretch-1024.cfg", "none", BENCH / "reference" / "stretch-1024.tables.csv"
    ),
}


class WorkerFailed(RuntimeError):
    pass


def write_config(workload: Workload, seed: int, path: Path) -> Path:
    """The workload's config with ``seed`` substituted."""
    text, n = re.subn(r"^seed = .*$", f"seed = {seed}", workload.config.read_text(), count=1, flags=re.M)
    if n != 1:
        raise ValueError(f"{workload.config}: no 'seed = ' line to rewrite")
    path.write_text(text)
    return path


def dir_mb(path: Path | None) -> float:
    if path is None or not path.exists():
        return 0.0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 2**20


def gate(result: dict, tables: Path, reference: Path, expect_hits: int | None) -> list[tuple[str, bool]]:
    """The correctness gate of one run, as (name, passed) pairs: every check
    passes, tables.csv equals the reference byte for byte, no cache file was
    corrupt, and a warm run assembles nothing and hits the cache for every
    matrix the prefill assembled."""
    gates = [(f"check {name} passes", status == "pass") for name, status in result["status"].items()]
    same = tables.is_file() and reference.is_file() and tables.read_bytes() == reference.read_bytes()
    gates.append(("tables.csv equals the reference", same))
    counters = result["counters"]
    gates.append(("cache_corruptions == 0", counters["cache_corruptions"] == 0))
    if expect_hits is not None:
        gates.append(("assemblies == 0", counters["assemblies"] == 0))
        gates.append((f"cache_hits == {expect_hits}", counters["cache_hits"] == expect_hits))
    return gates


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Harness:
    """Starts fresh worker processes for one workload, all inside one work dir."""

    def __init__(self, workload: Workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.jobs = len(os.sched_getaffinity(0))
        self.env = {
            **os.environ,
            **PINNED_THREADS,
            "PYTHONPATH": str(SRC),
            "BTLAB_CACHE_DIR": str(work / "default-cache"),
        }
        self.config = write_config(workload, seed, work / "experiment.cfg")

    def worker(self, *args: str) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--config", str(self.config), "--jobs", str(self.jobs)]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [*cmd, *args], env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"worker timed out after {timeout:.0f} s") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])

    def run(self, tag: str, cache: Path | None, spans: Path | None = None, expect_hits: int | None = None) -> dict:
        """One verified run; its result carries the gate and the disk use."""
        out = self.work / f"out-{tag}"
        args = ["--out", str(out)]
        if cache is not None:
            args += ["--cache", str(cache)]
        if spans is not None:
            args += ["--spans", str(spans)]
        try:
            result = self.worker(*args)
        except WorkerFailed as exc:
            print(f"run {tag} failed: {exc}", file=sys.stderr)
            return {"traced": spans is not None, "gates": [("run completes", False)]}
        result["traced"] = spans is not None
        result["cache_mb"] = dir_mb(cache)
        result["disk_mb"] = result["cache_mb"] + dir_mb(out)
        result["gates"] = gate(result, out / "tables.csv", self.workload.reference, expect_hits)
        shutil.rmtree(out)
        return result


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        harness = Harness(workload, seed, work, started + DEADLINE_S)
        probes = [harness.worker("--out", str(work / "probe"), "--setup-only") for _ in range(SETUP_PROBES)]
        checked = []
        expect_hits = None
        shared_cache = work / "cache" if workload.cache == "warm" else None
        if shared_cache is not None:
            prefill = harness.run("prefill", shared_cache)
            checked.append(prefill)
            expect_hits = prefill.get("counters", {}).get("assemblies", -1)

        runs: list[dict] = []
        last = 0.0
        # past MIN_RUNS, no run starts that would likely end more than
        # `seconds` after the start (setup probes and prefill included)
        while len(runs) < MIN_RUNS or time.monotonic() - started + last <= seconds:
            t = time.monotonic()
            tag = str(len(runs))
            traced = trace and len(runs) % 2 == 1
            cache = {"cold": work / f"cache-{tag}", "warm": shared_cache, "none": None}[workload.cache]
            spans = RESULTS / f"{name}-seed{seed}-spans.json" if traced else None
            runs.append(harness.run(tag, cache, spans, expect_hits))
            last = time.monotonic() - t
            if workload.cache == "cold" and cache.exists():
                shutil.rmtree(cache)
        checked += runs
    finally:
        shutil.rmtree(work, ignore_errors=True)

    gates = [g for r in checked for g in r["gates"]]
    failures = sorted({label for label, ok in gates if not ok})
    plain = [r for r in runs if "run_s" in r and not r["traced"]]
    traced_runs = [r for r in runs if "run_s" in r and r["traced"]]
    if not plain or (trace and not traced_runs):
        raise WorkerFailed("no run completed")
    samples = {
        "run_s": [r["run_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "setup_s": [p["setup_s"] for p in probes] + [r["setup_s"] for r in runs if "setup_s" in r],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "disk_mb": [r["disk_mb"] for r in plain],
        "cache_mb": [r["cache_mb"] for r in plain],
    }
    stats = {key: _quartiles(values) for key, values in samples.items()}
    if trace:
        layer_keys = traced_runs[0]["layers"]
        metrics = {key: statistics.median(r["layers"][key] for r in traced_runs) for key in layer_keys}
        for key in ("assemblies", "cache_hits", "cache_corruptions"):
            metrics[f"runner.{key}"] = statistics.median(r["counters"][key] for r in traced_runs)
        metrics["trace.overhead_s"] = statistics.median(r["run_s"] for r in traced_runs) - stats["run_s"]["median"]
    else:
        metrics = {key: stats[key]["median"] for key in ("run_s", "cpu_s", "setup_s", "peak_rss_mb", "disk_mb")}
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": not failures,
        "attempted": len(gates),
        "failed": sum(not ok for _, ok in gates),
        "failures": failures,
        "metrics": metrics,
        "stats": stats,
        "environment": {
            **probes[0]["environment"],
            **PINNED_THREADS,
            "nproc": harness.jobs,
            "jobs": harness.jobs,
            "git_commit": git_commit(),
            "seed": seed,
            "cache": workload.cache,
            "unwrapped": traced_runs[0]["unwrapped"] if traced_runs else [],
        },
        "runs": checked,
        "wall_s": time.monotonic() - started,
    }


UNITS = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "disk_mb": "MiB", "cache_mb": "MiB"}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    return "B" if metric.endswith(".bytes") else "count"


def print_result(result: dict) -> None:
    env = result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}")
    print(
        f"  python {env['python']}  numpy {env['numpy']}  blas {env['blas']['name']} {env['blas']['version']}"
        f"  OMP_NUM_THREADS={env['OMP_NUM_THREADS']} OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}"
        f"  nproc {env['nproc']}  jobs {env['jobs']}  commit {env['git_commit']}"
    )
    print(f"  m_list {env['m_list']}  R {env['R']}  checks {', '.join(env['checks'])}  cache {env['cache']}")
    for key, s in result["stats"].items():
        print(f"  {key:<12} {s['median']:.4f} {unit_of(key)}  (median of {s['n']}; q1 {s['q1']:.4f}, q3 {s['q3']:.4f})")
    print(f"  checks_run {result['attempted']}  checks_failed {result['failed']}")
    for label in result["failures"]:
        print(f"  FAILED: {label}")
    if env["unwrapped"]:
        print(f"  not traced (no longer bound in btlab.runner or btlab.semiclassics): {', '.join(env['unwrapped'])}")
    if result["trace"]:
        for key, value in result["metrics"].items():
            print(f"  {key:<40} {value:.10g} {unit_of(key)}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in result["metrics"].items()},
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "btlab" / "__init__.py").is_file():
        print(f"btlab sources not found under {SRC}; run from a btlab checkout", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
