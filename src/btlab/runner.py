"""Experiment orchestration: execute checks, manage the cache, write reports.

A run executes every requested check against the configured symbols and
levels, records one outcome per check, and writes three artifacts into the
output directory:

    report.json   -- the RunReport, as dataclasses.asdict gives it, in strict JSON
    tables.csv    -- every convergence table as rows (check, m, value)
    plots/*.dat   -- one two-column gnuplot file per table

The checks are independent of one another.  With n = min(number of
checks, usable CPUs) above one, they run in a pool of n forked worker
processes, one check per task in config order; with n = 1 they run in the
calling process.  The results, and so every byte written, are the same.

Exit codes: 0 all checks passed, 1 some check failed, 2 configuration
error, 3 internal error (the CLI maps exceptions to 2/3).
"""

from __future__ import annotations

import logging
import os
import re
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from platform import python_version

import numpy as np

from . import __version__
from .cache import MatrixCache, symbol_hash
from .config import ExperimentConfig
from .errors import CacheCorruption
from .exact import QC
from .operators import OperatorMatrix, equals_i_times_exact, hermitian_eigenvalues, trace_exact
from .operators import prequantum_geometric, toeplitz_exact
from .semiclassics import (
    EXACT_ZERO_TOL,
    ConvergenceTable,
    dirac_defect,
    loglog_slope,
    norm_defect,
    product_coefficients,
    sass_remainder,
    spectral_moment,
    moment_limit,
    sweep,
    tuynman_gap,
    tuynman_operands,
)
from .starproduct import FormalSeries, b_inverse, b_map, check_axioms, check_equivalence
from .symbols import (
    CanonicalSymbol,
    average,
    calibrate_hamiltonian_phase,
    laplacian,
    random_real_symbol,
    sphere_height,
    sup_norm,
)

NORM_CONTRACTION_TOL = 1e-9


class Assembler:
    """Cache-aware matrix factory and the run's one memo, keyed by (symbol hash, kind, level); a check that needs a
    spectrum computes it from the memoized matrix.  It records the keys it assembled, loaded from the cache and found
    corrupt; the counters are counted from those sets, so the union of several forked workers' sets counts as one
    serial run does, even when two workers got the same key."""

    def __init__(self, cache: MatrixCache | None):
        self.cache = cache
        self.assembled: set[tuple[str, str, int]] = set()
        self.loaded: set[tuple[str, str, int]] = set()
        self.corrupt: set[tuple[str, str, int]] = set()
        self._memo: dict[tuple[str, str, int], OperatorMatrix] = {}

    @property
    def assemblies(self) -> int:
        return len(self.assembled)

    @property
    def cache_hits(self) -> int:
        return len(self.loaded - self.assembled)  # a key another worker assembled first is a memo hit serially

    @property
    def cache_corruptions(self) -> int:
        return len(self.corrupt)

    def _get(self, f: CanonicalSymbol, m: int, kind: str, build) -> OperatorMatrix:
        key = (symbol_hash(f), kind, m)
        if key in self._memo:
            return self._memo[key]
        mat = None
        if self.cache is not None:
            try:
                mat = self.cache.load(key[0], kind, m)
            except CacheCorruption as exc:
                logging.getLogger("btlab").warning("%s; recomputing", exc)
                self.corrupt.add(key)
        if mat is None:
            mat = build(f, m)
            self.assembled.add(key)
            if self.cache is not None:
                self.cache.store(mat, key[0], kind)
        else:
            self.loaded.add(key)
        self._memo[key] = mat
        return mat

    def toeplitz(self, f: CanonicalSymbol, m: int) -> OperatorMatrix:
        return self._get(f, m, "toeplitz", toeplitz_exact)

    def prequantum(self, f: CanonicalSymbol, m: int) -> OperatorMatrix:
        return self._get(f, m, "prequantum", prequantum_geometric)


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


def _pairs(names: list[str]) -> list[tuple[str, str]]:
    if len(names) == 1:
        return [(names[0], names[0])]
    return [(names[i], names[(i + 1) % len(names)]) for i in range(len(names))]


def _slope_ok(table: ConvergenceTable, threshold: float) -> bool:
    fit = loglog_slope(table)
    return fit.exact_identity or fit.slope <= threshold


def _check_norms(cfg: ExperimentConfig, assembler: Assembler) -> CheckOutcome:
    tables, details, ok = [], {}, True
    for name, f in cfg.active_symbols():
        sup = sup_norm(f)
        table = sweep(name, cfg.m_list, lambda m: norm_defect(f, m, sup, toeplitz=assembler.toeplitz))
        tables.append(table)
        defects = table.values()
        if any(d < -NORM_CONTRACTION_TOL for d in defects):
            ok = False
        details[name] = {
            "sup_norm": sup,
            "C_max_m_defect": max(m * d for m, d in table.records),
            "exact_identity": all(abs(d) <= EXACT_ZERO_TOL for d in defects),
        }
    return CheckOutcome("pass" if ok else "fail", tables, details)


def _check_dirac(cfg: ExperimentConfig, assembler: Assembler) -> CheckOutcome:
    threshold = -1.0 + cfg.slope_window
    tables, details, ok = [], {}, True
    for na, nb in _pairs(cfg.active):
        f, g = cfg.symbols[na], cfg.symbols[nb]
        table = sweep(f"{na}-{nb}", cfg.m_list, lambda m: dirac_defect(f, g, m, toeplitz=assembler.toeplitz))
        tables.append(table)
        if not _slope_ok(table, threshold):
            ok = False
        details[table.name] = {"slope": table.fit.slope, "threshold": threshold}
    return CheckOutcome("pass" if ok else "fail", tables, details)


def _check_product(cfg: ExperimentConfig, assembler: Assembler, order: int) -> CheckOutcome:
    threshold = -float(order) + order * cfg.slope_window
    tables, details, ok = [], {}, True
    for na, nb in _pairs(cfg.active):
        f, g = cfg.symbols[na], cfg.symbols[nb]
        coeffs = product_coefficients(f, g, order)
        table = sweep(
            f"{na}-{nb}", cfg.m_list, lambda m: sass_remainder(f, g, coeffs, m, toeplitz=assembler.toeplitz)
        )
        tables.append(table)
        if not _slope_ok(table, threshold):
            ok = False
        details[table.name] = {
            "slope": table.fit.slope,
            "threshold": threshold,
            "K_max_scaled": max(m**order * v for m, v in table.records),
        }
    return CheckOutcome("pass" if ok else "fail", tables, details)


def _check_trace(cfg: ExperimentConfig, assembler: Assembler) -> CheckOutcome:
    tables, details, ok = [], {}, True
    for name, f in cfg.active_symbols():
        avg = average(f)
        table = sweep(name, cfg.m_list, lambda m: float(np.trace(assembler.toeplitz(f, m).entries).real))
        tables.append(table)
        exact = all(trace_exact(assembler.toeplitz(f, m)) == QC(m + 1) * avg for m in cfg.m_list)
        ok = ok and exact
        details[name] = {"average": float(avg.re), "exact": exact}
    return CheckOutcome("pass" if ok else "fail", tables, details)


def _check_spectrum(cfg: ExperimentConfig, assembler: Assembler) -> CheckOutcome:
    threshold = -1.0 + cfg.slope_window
    tables, details, ok = [], {}, True
    for name, f in cfg.active_symbols():
        spectra = {m: hermitian_eigenvalues(assembler.toeplitz(f, m)) for m in cfg.m_list}  # one per level
        for k in (1, 2, 3):
            limit = float(moment_limit(f, k).re)
            table = sweep(f"{name}-k{k}", cfg.m_list, lambda m: abs(spectral_moment(spectra[m], k) - limit))
            tables.append(table)
            if not _slope_ok(table, threshold):
                ok = False
            details[table.name] = {
                "limit": limit,
                "slope": table.fit.slope,
                "exact_identity": table.fit.exact_identity,
            }
    return CheckOutcome("pass" if ok else "fail", tables, details)


def _check_tuynman(cfg: ExperimentConfig, assembler: Assembler) -> CheckOutcome:
    tables, details, ok = [], {}, True
    for name, f in cfg.active_symbols():
        operands = {  # one pair per level, for both the float row and the exact decision
            m: tuynman_operands(f, m, toeplitz=assembler.toeplitz, prequantum=assembler.prequantum)
            for m in cfg.m_list
        }
        table = sweep(name, cfg.m_list, lambda m: tuynman_gap(*operands[m]))
        tables.append(table)
        exact = all(equals_i_times_exact(q, rhs) for q, rhs in operands.values())
        ok = ok and exact
        details[name] = {"max_defect": max(table.values()), "exact": exact}
    return CheckOutcome("pass" if ok else "fail", tables, details)


def _random_pool(cfg: ExperimentConfig, count: int) -> list[CanonicalSymbol]:
    return [random_real_symbol(cfg.seed * 1000 + i, 2) for i in range(count)]


def _check_staraxioms(cfg: ExperimentConfig, assembler: Assembler) -> CheckOutcome:
    details, ok = {}, True
    pool = [f for _, f in cfg.active_symbols()] + _random_pool(cfg, 6)
    for i in range(5):
        f, g, h = pool[i % len(pool)], pool[(i + 1) % len(pool)], pool[(i + 2) % len(pool)]
        rep = check_axioms(f, g, h)
        details[f"triple{i}"] = {
            "unit": rep.unit_ok,
            "parity": rep.parity_ok,
            "assoc_order1": rep.assoc_order1_ok,
            "trace_antisym": rep.trace_antisym_ok,
        }
        ok = ok and rep.all_ok
    return CheckOutcome("pass" if ok else "fail", [], details)


def _check_equivalence(cfg: ExperimentConfig, assembler: Assembler) -> CheckOutcome:
    details, ok = {}, True
    pool = [f for _, f in cfg.active_symbols()] + _random_pool(cfg, 5)
    for i in range(5):
        f, g = pool[i % len(pool)], pool[(i + 1) % len(pool)]
        defect_zero = check_equivalence(f, g).is_zero
        series = FormalSeries.of(f, 2)
        roundtrip = b_inverse(b_map(series)) == series
        details[f"pair{i}"] = {"nu1_defect_zero": defect_zero, "b_roundtrip": roundtrip}
        ok = ok and defect_zero and roundtrip
    return CheckOutcome("pass" if ok else "fail", [], details)


_CHECKS = {
    "norms": _check_norms,
    "dirac": _check_dirac,
    "product": lambda cfg, assembler: _check_product(cfg, assembler, 1),
    "sass2": lambda cfg, assembler: _check_product(cfg, assembler, 2),
    "trace": _check_trace,
    "spectrum": _check_spectrum,
    "tuynman": _check_tuynman,
    "staraxioms": _check_staraxioms,
    "equivalence": _check_equivalence,
}


def calibrate_laplacian_coeff() -> Fraction:
    """Pin the Laplacian normalization against the quantization identity.

    Tries candidate coefficients c in {1, 2, 4} for Delta_c = (c/2)*Delta
    and returns the one for which Q_f = i T_{f - Delta_c f/(2m)} holds
    exactly at m = 2 on the height symbol.  Raises if none matches.
    """
    f = sphere_height()
    m = 2
    q = prequantum_geometric(f, m)
    for c in (Fraction(1), Fraction(2), Fraction(4)):
        rhs = toeplitz_exact(f - laplacian(f).scale(c / 2 * Fraction(1, 2 * m)), m)
        if equals_i_times_exact(q, rhs):
            return c
    raise RuntimeError("no candidate Laplacian coefficient satisfies the quantization identity")


_job: tuple[ExperimentConfig, Assembler] | None = None  # set by execute before the fork; workers inherit it


def _run_check(name: str) -> tuple[CheckOutcome, float, set, set, set]:
    """Run one check of the current ``execute``, in its process or in a forked worker."""
    cfg, assembler = _job
    t0 = time.perf_counter()
    outcome = _CHECKS[name](cfg, assembler)
    return outcome, time.perf_counter() - t0, assembler.assembled, assembler.loaded, assembler.corrupt


def execute(cfg: ExperimentConfig, jobs: int | None = None, cache: MatrixCache | None = None) -> RunReport:
    """Calibrate, then run every configured check; ``jobs`` is accepted for old callers and ignored.

    The checks run in min(len(cfg.checks), usable CPUs) forked worker processes, or in the calling process when
    that is one.  Each worker keeps the assembler it inherits as its memo and returns its outcome, its time and
    the keys it assembled, loaded and found corrupt; the counters come from the union of those keys.
    """
    global _job
    assembler = Assembler(cache)
    phase = calibrate_hamiltonian_phase(cfg.seed)
    calibration = {
        "poisson_phase": "-i" if phase == QC(0, -1) else "+i",
        "hamiltonian_formula": "X^z = phase * (1+|z|^2)^2 df/dzbar",
        "laplacian_coeff": float(calibrate_laplacian_coeff()),
    }
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(cfg.checks), cpus)
    _job = (cfg, assembler)
    try:
        if workers == 1:
            results = list(map(_run_check, cfg.checks))
        else:
            import multiprocessing

            with multiprocessing.get_context("fork").Pool(workers) as pool:
                results = pool.map(_run_check, cfg.checks, chunksize=1)
    finally:
        _job = None
    checks: dict[str, CheckOutcome] = {}
    timings: dict[str, float] = {}
    for name, (outcome, seconds, assembled, loaded, corrupt) in zip(cfg.checks, results):
        checks[name], timings[name] = outcome, seconds
        assembler.assembled |= assembled
        assembler.loaded |= loaded
        assembler.corrupt |= corrupt
    status = "pass" if all(out.status == "pass" for out in checks.values()) else "fail"
    return RunReport(
        experiment=cfg.name,
        manifold=cfg.manifold,
        seed=cfg.seed,
        m_list=list(cfg.m_list),
        calibration=calibration,
        versions={
            "btlab": __version__,
            "numpy": np.__version__,
            "python": python_version(),
            "workers": workers,
            **{var: os.environ.get(var) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        },
        checks=checks,
        counters={
            "assemblies": assembler.assemblies,
            "cache_hits": assembler.cache_hits,
            "cache_corruptions": assembler.cache_corruptions,
        },
        timings=timings,
        status=status,
    )


def _safe_label(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


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
    for check_name, outcome in report.checks.items():
        for table in outcome.tables:
            label = _safe_label(f"{check_name}_{table.name}")
            lines = [f"# {check_name}:{table.name}", "# m value"]
            lines += [f"{m} {v:.17g}" for m, v in table.records]
            (plots / f"{label}.dat").write_text("\n".join(lines) + "\n")


def run(
    cfg: ExperimentConfig,
    jobs: int | None = None,
    cache_root: Path | None = None,
    out: Path | None = None,
) -> tuple[RunReport, int]:
    """Execute ``cfg`` and write its reports; returns the report and the exit code.

    ``jobs`` is accepted for old callers and ignored: ``execute`` sizes its worker pool from the checks and the
    usable CPUs.
    """
    cache = MatrixCache(cache_root) if cache_root is not None else MatrixCache()
    report = execute(cfg, cache=cache)
    write_report(report, out if out is not None else cfg.output)
    return report, 0 if report.status == "pass" else 1
