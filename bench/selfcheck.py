"""Fast self-check of the benchmark: python3 bench/selfcheck.py

Runs the demo config on a tiny m_list (8..64) against a warm cache (so the cold
prefill, the warm runs and every gate take part) and asserts that:

- a reference tables.csv written with seed 7 passes the gate on seed 11,
  so the seed changes only the random draws, not the tables;
- every end-to-end metric named in BENCHMARK.json is emitted, with its
  unit, under --trace 0, and every per-layer metric under --trace 1;
- a deliberately altered reference trips the correctness gate;
- a directory holding only BENCHMARK.json and bench/ makes run.py exit
  non-zero without printing a result.

Exits 0 when all of these hold; takes about 20 seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import run

TINY_M_LIST = "8, 16, 32, 64"  # the smallest doubling sweep on which every check passes


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")
    print(f"ok  {message}")


def check_metrics(result: dict, spec: list[dict], mode: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: run.unit_of(name) for name in result["metrics"]}
    expect(got == want, f"{mode} emits exactly the BENCHMARK.json metrics with their units")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.WORK))
    try:
        demo = run.WORKLOADS["demo-warm"]
        tiny_cfg = tmp / "tiny.cfg"
        text, n = re.subn(r"^m_list = .*$", f"m_list = {TINY_M_LIST}", demo.config.read_text(), flags=re.M)
        expect(n == 1, "the demo config has one m_list line to shrink")
        tiny_cfg.write_text(text)
        reference = tmp / "tiny.tables.csv"
        tiny = replace(demo, config=tiny_cfg, reference=reference)
        harness = run.Harness(tiny, 7, tmp, time.monotonic() + 60)
        harness.worker("--out", str(tmp / "seed7"))
        shutil.copyfile(tmp / "seed7" / "tables.csv", reference)

        plain = run.measure("tiny", tiny, 11, 0, trace=False)
        expect(plain["correct"] and plain["failed"] == 0, "seed 11 reproduces the seed-7 tables.csv and passes every gate")
        check_metrics(plain, spec["end_to_end"], "--trace 0")

        traced = run.measure("tiny", tiny, 11, 0, trace=True)
        expect(traced["correct"], "traced runs pass every gate")
        check_metrics(traced, spec["per_layer"], "--trace 1")
        expect(traced["metrics"]["runner.assemblies"] == 0, "warm traced run assembles nothing through the runner")

        text = reference.read_text()  # ends with the last value's final digit and a newline
        reference.write_text(text[:-2] + str((int(text[-2]) + 1) % 10) + "\n")
        altered = run.measure("tiny", tiny, 11, 0, trace=False)
        expect(
            not altered["correct"] and "tables.csv equals the reference" in altered["failures"],
            "an altered reference trips the correctness gate",
        )

        bare = tmp / "bare"
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "demo-cold", "--seed", "1", "--seconds", "1"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
        expect(proc.returncode != 0 and not proc.stdout.strip(), "without src/btlab the benchmark exits non-zero, no result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
