"""One verified btlab run in a fresh process; prints one JSON line.

    python3 bench/worker.py --config CFG --out DIR --jobs N [--cache DIR]
                            [--spans FILE] [--setup-only]

Times ``import btlab`` plus ``parse_config`` (setup), then one
``runner.run`` with the given cache directory, or ``runner.execute`` plus
``runner.write_report`` when no cache is given.  With ``--spans`` the layer
functions are wrapped (see tracing.py) and the spans are written to FILE.
The parent (run.py) sets PYTHONPATH to the checkout's ``src`` and pins the
BLAS thread variables.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _environment(btlab, cfg) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "btlab": btlab.__version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas": blas,
        "m_list": cfg.m_list,
        "R": {name: f.denom_exp for name, f in cfg.active_symbols()},
        "checks": cfg.checks,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--cache")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import btlab
    from btlab import config, runner

    cfg = config.parse_config(args.config)
    setup_s = time.perf_counter() - t0

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(btlab.__file__).resolve().is_relative_to(src):
        print(f"btlab imported from {btlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if args.setup_only:
        result["environment"] = _environment(btlab, cfg)
        print(json.dumps(result))
        return 0

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    c0, w0 = time.process_time(), time.perf_counter()
    if args.cache:
        report, _ = runner.run(cfg, jobs=args.jobs, cache_root=Path(args.cache), out=Path(args.out))
    else:
        report = runner.execute(cfg, jobs=args.jobs, cache=None)
        runner.write_report(report, Path(args.out))
    w1 = time.perf_counter()
    result.update(
        run_s=w1 - w0,
        cpu_s=time.process_time() - c0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        status={name: out.status for name, out in report.checks.items()},
        counters=report.counters,
    )
    if tracer is not None:
        result["layers"] = tracer.summary(w0, w1)
        result["unwrapped"] = tracer.unwrapped
        Path(args.spans).write_text(json.dumps(tracer.spans) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
