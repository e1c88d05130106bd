"""Experiment orchestration: execute checks, manage the cache, write reports.

A run executes every requested check against the configured symbols and
levels, records one outcome per check, and writes the files of ``report``
(report.json, tables.csv, plots/) into the output directory.

Each sweep check is one task per level of m_list, a row that gives that
level's values and exact decision; the work of a check that needs no level
(a sup norm, an average, the moment limits, the symbolic checks) is one
more task.  The tasks go out largest level first, in config order within a
level, with the no-level tasks and then the calibration last, so the
costliest rows start at once.  With n = min(number of tasks, usable CPUs)
above one, n forked worker processes take them from one pipe
(``forkmap``); with n = 1 they run in the calling process.  The calling
process then builds each check's tables, fits and details from its rows.
The results, and so every byte written, are the same for every n.  A
worker that dies makes the run raise.

Exit codes: 0 all checks passed, 1 some check failed, 2 configuration
error, 3 internal error (the CLI maps exceptions to 2/3).
"""

from __future__ import annotations

import logging
import os
import time
from fractions import Fraction
from pathlib import Path
from platform import python_version

import numpy as np

from . import __version__
from .cache import MatrixCache, symbol_hash
from .config import ExperimentConfig
from .errors import CacheCorruption
from .exact import QC, QC_I
from .forkmap import fork_map
from .operators import OperatorMatrix, equal_exact, hermitian_eigenvalues, lincomb_exact, operator_norm, trace_exact
from .operators import prequantum_geometric, toeplitz_exact
from .report import CheckOutcome, RunReport, write_report
from .semiclassics import (
    EXACT_ZERO_TOL,
    ConvergenceTable,
    dirac_defect,
    loglog_slope,
    product_coefficients,
    sass_remainder,
    spectral_moment,
    moment_limit,
    sweep,
    tuynman_difference,
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


def _pairs(names: list[str]) -> list[tuple[str, str]]:
    if len(names) == 1:
        return [(names[0], names[0])]
    return [(names[i], names[(i + 1) % len(names)]) for i in range(len(names))]


def _slope_ok(table: ConvergenceTable, threshold: float) -> bool:
    fit = loglog_slope(table)
    return fit.exact_identity or fit.slope <= threshold


# Each sweep check is split in two.  Its row gives one level's values for every active symbol or pair, with that
# level's exact decision; its verdict builds the tables, fits and details from the rows of all levels, in the
# parent.  A check's work that needs no level (a sup norm, an average, the moment limits, a whole symbolic check)
# is its base.


def _norms_row(cfg: ExperimentConfig, assembler: Assembler, m: int) -> dict:
    return {name: operator_norm(assembler.toeplitz(f, m)) for name, f in cfg.active_symbols()}


def _norms_base(cfg: ExperimentConfig) -> dict:
    return {name: sup_norm(f) for name, f in cfg.active_symbols()}


def _norms_verdict(cfg: ExperimentConfig, sups: dict, rows: dict) -> CheckOutcome:
    tables, details, ok = [], {}, True
    for name in cfg.active:
        sup = sups[name]
        table = sweep(name, cfg.m_list, lambda m: sup - rows[m][name])
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


def _dirac_row(cfg: ExperimentConfig, assembler: Assembler, m: int) -> dict:
    return {
        (na, nb): dirac_defect(cfg.symbols[na], cfg.symbols[nb], m, toeplitz=assembler.toeplitz)
        for na, nb in _pairs(cfg.active)
    }


def _product_row(cfg: ExperimentConfig, assembler: Assembler, m: int, order: int) -> dict:
    rows = {}
    for na, nb in _pairs(cfg.active):
        f, g = cfg.symbols[na], cfg.symbols[nb]
        rows[na, nb] = sass_remainder(f, g, product_coefficients(f, g, order), m, toeplitz=assembler.toeplitz)
    return rows


def _pair_verdict(cfg: ExperimentConfig, rows: dict, order: int, scaled: bool) -> CheckOutcome:
    """A defect of O(m^-order) per pair: its fitted slope against the threshold, and with ``scaled`` its largest
    m^order multiple."""
    threshold = -float(order) + order * cfg.slope_window
    tables, details, ok = [], {}, True
    for pair in _pairs(cfg.active):
        table = sweep("-".join(pair), cfg.m_list, lambda m: rows[m][pair])
        tables.append(table)
        if not _slope_ok(table, threshold):
            ok = False
        details[table.name] = {"slope": table.fit.slope, "threshold": threshold}
        if scaled:
            details[table.name]["K_max_scaled"] = max(m**order * v for m, v in table.records)
    return CheckOutcome("pass" if ok else "fail", tables, details)


def _trace_row(cfg: ExperimentConfig, assembler: Assembler, m: int) -> dict:
    rows = {}
    for name, f in cfg.active_symbols():
        t = assembler.toeplitz(f, m)
        rows[name] = (float(np.trace(t.entries).real), trace_exact(t) == QC(m + 1) * average(f))
    return rows


def _trace_base(cfg: ExperimentConfig) -> dict:
    return {name: float(average(f).re) for name, f in cfg.active_symbols()}


def _trace_verdict(cfg: ExperimentConfig, averages: dict, rows: dict) -> CheckOutcome:
    tables, details, ok = [], {}, True
    for name in cfg.active:
        tables.append(sweep(name, cfg.m_list, lambda m: rows[m][name][0]))
        exact = all(rows[m][name][1] for m in cfg.m_list)
        ok = ok and exact
        details[name] = {"average": averages[name], "exact": exact}
    return CheckOutcome("pass" if ok else "fail", tables, details)


_MOMENTS = (1, 2, 3)


def _spectrum_row(cfg: ExperimentConfig, assembler: Assembler, m: int) -> dict:
    rows = {}
    for name, f in cfg.active_symbols():
        eigs = hermitian_eigenvalues(assembler.toeplitz(f, m))  # one spectrum per level for all the moments
        rows[name] = [spectral_moment(eigs, k) for k in _MOMENTS]
    return rows


def _spectrum_base(cfg: ExperimentConfig) -> dict:
    return {name: [float(moment_limit(f, k).re) for k in _MOMENTS] for name, f in cfg.active_symbols()}


def _spectrum_verdict(cfg: ExperimentConfig, limits: dict, rows: dict) -> CheckOutcome:
    threshold = -1.0 + cfg.slope_window
    tables, details, ok = [], {}, True
    for name in cfg.active:
        for i, (k, limit) in enumerate(zip(_MOMENTS, limits[name])):
            table = sweep(f"{name}-k{k}", cfg.m_list, lambda m: abs(rows[m][name][i] - limit))
            tables.append(table)
            if not _slope_ok(table, threshold):
                ok = False
            details[table.name] = {
                "limit": limit,
                "slope": table.fit.slope,
                "exact_identity": table.fit.exact_identity,
            }
    return CheckOutcome("pass" if ok else "fail", tables, details)


def _tuynman_row(cfg: ExperimentConfig, assembler: Assembler, m: int) -> dict:
    rows = {}
    for name, f in cfg.active_symbols():
        diff = tuynman_difference(f, m, toeplitz=assembler.toeplitz, prequantum=assembler.prequantum)
        rows[name] = (operator_norm(diff), not diff.kernel.diags)
    return rows


def _tuynman_verdict(cfg: ExperimentConfig, base: None, rows: dict) -> CheckOutcome:
    tables, details, ok = [], {}, True
    for name in cfg.active:
        table = sweep(name, cfg.m_list, lambda m: rows[m][name][0])
        tables.append(table)
        exact = all(rows[m][name][1] for m in cfg.m_list)
        ok = ok and exact
        details[name] = {"max_defect": max(table.values()), "exact": exact}
    return CheckOutcome("pass" if ok else "fail", tables, details)


def _random_pool(cfg: ExperimentConfig, count: int) -> list[CanonicalSymbol]:
    return [random_real_symbol(cfg.seed * 1000 + i, 2) for i in range(count)]


def _check_staraxioms(cfg: ExperimentConfig) -> CheckOutcome:
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


def _check_equivalence(cfg: ExperimentConfig) -> CheckOutcome:
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


def _symbolic_verdict(cfg: ExperimentConfig, outcome: CheckOutcome, rows: dict) -> CheckOutcome:
    """A symbolic check has no rows: its base is its whole outcome."""
    return outcome


_ROWS = {  # (cfg, assembler, m) -> that level's values, in a worker
    "norms": _norms_row,
    "dirac": _dirac_row,
    "product": lambda cfg, assembler, m: _product_row(cfg, assembler, m, 1),
    "sass2": lambda cfg, assembler, m: _product_row(cfg, assembler, m, 2),
    "trace": _trace_row,
    "spectrum": _spectrum_row,
    "tuynman": _tuynman_row,
}
_BASES = {  # cfg -> the check's work that needs no level, in a worker
    "norms": _norms_base,
    "trace": _trace_base,
    "spectrum": _spectrum_base,
    "staraxioms": _check_staraxioms,
    "equivalence": _check_equivalence,
}
_VERDICTS = {  # (cfg, base or None, {m: row}) -> CheckOutcome, in the calling process
    "norms": _norms_verdict,
    "dirac": lambda cfg, base, rows: _pair_verdict(cfg, rows, 1, scaled=False),
    "product": lambda cfg, base, rows: _pair_verdict(cfg, rows, 1, scaled=True),
    "sass2": lambda cfg, base, rows: _pair_verdict(cfg, rows, 2, scaled=True),
    "trace": _trace_verdict,
    "spectrum": _spectrum_verdict,
    "tuynman": _tuynman_verdict,
    "staraxioms": _symbolic_verdict,
    "equivalence": _symbolic_verdict,
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
        if equal_exact(q, lincomb_exact([(QC_I, rhs)])):
            return c
    raise RuntimeError("no candidate Laplacian coefficient satisfies the quantization identity")


def _calibrate(cfg: ExperimentConfig) -> dict:
    """The report's calibration: the Hamiltonian phase and the Laplacian coefficient, each pinned by its oracle."""
    phase = calibrate_hamiltonian_phase(cfg.seed)
    return {
        "poisson_phase": "-i" if phase == QC(0, -1) else "+i",
        "hamiltonian_formula": "X^z = phase * (1+|z|^2)^2 df/dzbar",
        "laplacian_coeff": float(calibrate_laplacian_coeff()),
    }


def _tasks(cfg: ExperimentConfig) -> list[tuple[str, int | None]]:
    """The run's (check, level) tasks: largest level first, config order within a level, then the no-level work.

    The costliest rows are those of the largest level, so they start first and the workers finish close together.
    """
    checks = list(dict.fromkeys(cfg.checks))
    rows = [(name, m) for m in reversed(cfg.m_list) for name in checks if name in _ROWS]
    return rows + [(name, None) for name in checks if name in _BASES]


def _run_task(cfg: ExperimentConfig, assembler: Assembler, task: tuple[str | None, int | None]) -> tuple:
    """One task's value and its seconds, in the calling process or in a forked worker; (None, None) calibrates."""
    name, m = task
    t0 = time.perf_counter()
    if name is None:
        value = _calibrate(cfg)
    else:
        value = _BASES[name](cfg) if m is None else _ROWS[name](cfg, assembler, m)
    return value, time.perf_counter() - t0


def execute(cfg: ExperimentConfig, jobs: int | None = None, cache: MatrixCache | None = None) -> RunReport:
    """Calibrate and run every configured check; ``jobs`` is accepted for old callers and ignored.

    The checks run as ``_tasks``: one row task per (check, level) and one task for a check's work that needs no
    level, then the calibration, over min(tasks, usable CPUs) forked worker processes, or in the calling process
    when that is one.  Each worker keeps the assembler it inherits as its memo and sends back the keys it
    assembled, loaded and found corrupt; the counters come from the union of those keys.  The verdicts, with
    their fits, run here.
    """
    assembler = Assembler(cache)
    tasks = _tasks(cfg)
    items = [*tasks, (None, None)]  # the calibration goes last: no check reads it
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(items), cpus)

    def run_task(task):  # the children are forked, so this closure is never pickled
        return _run_task(cfg, assembler, task)

    if workers <= 1:
        results = list(map(run_task, items))
    else:
        results, key_sets = fork_map(
            run_task, items, workers, lambda: (assembler.assembled, assembler.loaded, assembler.corrupt)
        )
        for assembled, loaded, corrupt in key_sets:
            assembler.assembled |= assembled
            assembler.loaded |= loaded
            assembler.corrupt |= corrupt
    *results, (calibration, _) = results
    timings = dict.fromkeys(cfg.checks, 0.0)
    bases, rows = {}, {name: {} for name in cfg.checks}
    for (name, m), (value, seconds) in zip(tasks, results):
        timings[name] += seconds
        if m is None:
            bases[name] = value
        else:
            rows[name][m] = value
    checks = {name: _VERDICTS[name](cfg, bases.get(name), rows[name]) for name in cfg.checks}
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


def run(
    cfg: ExperimentConfig,
    jobs: int | None = None,
    cache_root: Path | None = None,
    out: Path | None = None,
) -> tuple[RunReport, int]:
    """Execute ``cfg`` and write its reports; returns the report and the exit code.

    ``jobs`` is accepted for old callers and ignored: ``execute`` sizes its worker count from its tasks and the
    usable CPUs.
    """
    cache = MatrixCache(cache_root) if cache_root is not None else MatrixCache()
    report = execute(cfg, cache=cache)
    write_report(report, out if out is not None else cfg.output)
    return report, 0 if report.status == "pass" else 1
