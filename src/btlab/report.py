"""The run report and the files written from it.

    report.json   -- the RunReport, as dataclasses.asdict gives it, in strict JSON
    tables.csv    -- every convergence table as rows (check, m, value)
    plots/*.dat   -- one two-column gnuplot file per table, check_table.dat; the
                     .dat files of an earlier run into the same directory are
                     removed first; ``config`` admits only file-safe names
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from .semiclassics import ConvergenceTable


@dataclass
class CheckOutcome:
    status: str
    tables: list[ConvergenceTable] = field(default_factory=list)
    details: dict = field(default_factory=dict)


@dataclass
class RunReport:
    experiment: str
    manifold: str
    seed: int
    m_list: list[int]
    calibration: dict
    versions: dict
    checks: dict[str, CheckOutcome]
    counters: dict
    timings: dict
    status: str


def write_report(report: RunReport, outdir: Path) -> None:
    import json

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(json.dumps(asdict(report), indent=2, sort_keys=True, allow_nan=False) + "\n")

    rows = []
    for check_name, outcome in report.checks.items():
        for table in outcome.tables:
            label = f"{check_name}:{table.name}"
            for m, v in table.records:
                rows.append((label, m, v))
    rows.sort(key=lambda r: (r[0], r[1]))
    csv_lines = ["check,m,value"] + [f"{label},{m},{v:.17g}" for label, m, v in rows]
    (outdir / "tables.csv").write_text("\n".join(csv_lines) + "\n")

    plots = outdir / "plots"
    plots.mkdir(exist_ok=True)
    for stale in plots.glob("*.dat"):  # a table of an earlier run into this directory
        stale.unlink()
    for check_name, outcome in report.checks.items():
        for table in outcome.tables:
            label = f"{check_name}_{table.name}"
            lines = [f"# {check_name}:{table.name}", "# m value"]
            lines += [f"{m} {v:.17g}" for m, v in table.records]
            (plots / f"{label}.dat").write_text("\n".join(lines) + "\n")
