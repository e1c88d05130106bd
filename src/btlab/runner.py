"""Experiment orchestration: execute checks, manage the cache, write reports.

A run executes every requested check against the configured symbols and
levels, records one outcome per check, and writes the files of ``report``
(report.json, tables.csv, plots/) into the output directory.

``CHECKS`` defines each check once, as a ``Check`` record: its row, the
task of one level that gives that level's values and exact decision; its
base, the one task for the work that needs no level (a sup norm, an
average, the moment limits, a whole symbolic check); its verdict, which
builds the tables, fits and details from the rows; and which symbols and
how many levels it needs, which ``config`` validates.  The star-product
laws that the checks read, the coefficients C_k, the formal trace and the
named symbolic verdicts, are defined in ``starproduct``.  The tasks go out
largest level first, in config order within a level, with the no-level
tasks last, so the costliest rows start at once.  They go through one
``fork_map`` call with n = min(number of tasks, usable CPUs) workers: n
forked worker processes take them from one pipe, and with n = 1 the calling
process is the one worker.  The calling process then runs the verdicts,
and counts the matrices that the tasks logged into the counters.
The results, and so every byte written, are the same for every n.  A
worker that dies makes the run raise.

Exit codes: 0 all checks passed, 1 some check failed, 2 configuration
error, 3 internal error (the CLI maps exceptions to 2/3).
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from platform import python_version
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .cache import MatrixCache
from .errors import CacheCorruption
from .exact import QC
from .forkmap import fork_map
from .operators import OperatorMatrix, hermitian_eigenvalues, operator_norm, trace_exact
from .operators import prequantum_geometric, toeplitz_exact
from .report import CheckOutcome, RunReport, write_report
from .semiclassics import (
    EXACT_ZERO_TOL,
    ConvergenceTable,
    dirac_defect,
    loglog_slope,
    sass_remainder,
    spectral_moment,
    moment_limit,
    sweep,
    tuynman_difference,
)
from .starproduct import FormalSeries, check_axioms, check_equivalence, coefficient, formal_trace
from .symbols import HAMILTONIAN_PHASE, LAPLACE_COEFF, CanonicalSymbol, average, random_real_symbol, sup_norm

if TYPE_CHECKING:
    from .config import ExperimentConfig

NORM_CONTRACTION_TOL = 1e-9


class Assembler:
    """Cache-aware matrix factory and the run's one memo, keyed by (symbol, kind, level) with the symbol itself, which
    compares by value; a check that needs a spectrum computes it from the memoized matrix.  ``log`` grows by one
    (key, "assembled" | "loaded" | "corrupt") entry for each matrix it assembles, loads from the cache or finds
    corrupt there; ``execute`` counts the run's counters from the entries of every task."""

    def __init__(self, cache: MatrixCache | None):
        self.cache = cache
        self.log: list[tuple[tuple[CanonicalSymbol, str, int], str]] = []
        self._memo: dict[tuple[CanonicalSymbol, str, int], OperatorMatrix] = {}

    def _get(self, f: CanonicalSymbol, m: int, kind: str, build) -> OperatorMatrix:
        key = (f, kind, m)
        if key in self._memo:
            return self._memo[key]
        mat = None
        if self.cache is not None:
            try:
                mat = self.cache.load(f, kind, m)
            except CacheCorruption as exc:
                import logging  # here, off the common path: only a corrupt cache file needs it

                logging.getLogger("btlab").warning("%s; recomputing", exc)
                self.log.append((key, "corrupt"))
        if mat is None:
            mat = build(f, m)
            self.log.append((key, "assembled"))
            if self.cache is not None:
                self.cache.store(mat, f, kind)
        else:
            self.log.append((key, "loaded"))
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


@dataclass(frozen=True)
class Check:
    """One check.  ``row`` (cfg, assembler, m) gives one level's values for every active symbol or pair, with that
    level's exact decision; ``base`` (cfg) is the check's work that needs no level; both run in a worker.
    ``verdict`` (cfg, base, {m: row}) builds the ``CheckOutcome`` in the calling process; a check with no verdict
    is its own base.  A ``real`` check needs real symbols: a sup norm, a Hamiltonian field, a Hermitian spectrum and
    a prequantum operator exist for real symbols only.  A ``fits`` check fits slopes, so it needs ``MIN_FIT_LEVELS``
    levels."""

    row: Callable | None = None
    base: Callable | None = None
    verdict: Callable | None = None
    real: bool = False
    fits: bool = False

    def outcome(self, cfg: ExperimentConfig, base, rows: dict) -> CheckOutcome:
        return base if self.verdict is None else self.verdict(cfg, base, rows)


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


def _product_row(cfg: ExperimentConfig, assembler: Assembler, m: int, *, order: int) -> dict:
    rows = {}
    for na, nb in _pairs(cfg.active):
        f, g = cfg.symbols[na], cfg.symbols[nb]
        coeffs = [coefficient(k, f, g) for k in range(order)]
        rows[na, nb] = sass_remainder(f, g, coeffs, m, toeplitz=assembler.toeplitz)
    return rows


def _pair_verdict(cfg: ExperimentConfig, base: None, rows: dict, *, order: int, scaled: bool) -> CheckOutcome:
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
        t, tr = assembler.toeplitz(f, m), formal_trace(FormalSeries.of(f, 1))  # Tr = m tau_0 + tau_1 at nu = 1/m
        rows[name] = (float(t.diagonal.sum().real), trace_exact(t) == QC(m) * tr.coeff(-1) + tr.coeff(0))
    return rows


def _trace_base(cfg: ExperimentConfig) -> dict:
    return {name: float(average(f).re) for name, f in cfg.active_symbols()}


def _exact_verdict(cfg: ExperimentConfig, base: dict | None, rows: dict, *, detail: str) -> CheckOutcome:
    """Rows of (value, exact decision) per symbol: a table of the values, and a pass when every level is exact.
    ``detail`` names the figure beside ``exact``: the symbol's entry of ``base``, or with no base the largest value."""
    tables, details, ok = [], {}, True
    for name in cfg.active:
        table = sweep(name, cfg.m_list, lambda m: rows[m][name][0])
        tables.append(table)
        exact = all(rows[m][name][1] for m in cfg.m_list)
        ok = ok and exact
        details[name] = {detail: max(table.values()) if base is None else base[name], "exact": exact}
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


def _random_pool(cfg: ExperimentConfig, count: int) -> list[CanonicalSymbol]:
    return [random_real_symbol(cfg.seed * 1000 + i, 2) for i in range(count)]


def _symbolic_check(cfg: ExperimentConfig, law: Callable, arity: int, extra: int, label: str) -> CheckOutcome:
    """A named-verdict law on 5 windows of ``arity`` symbols over the active symbols and ``extra`` random ones."""
    details, ok = {}, True
    pool = [f for _, f in cfg.active_symbols()] + _random_pool(cfg, extra)
    for i in range(5):
        rep = law(*(pool[(i + j) % len(pool)] for j in range(arity)))
        details[f"{label}{i}"] = rep
        ok = ok and all(rep.values())
    return CheckOutcome("pass" if ok else "fail", [], details)


CHECKS = {  # in this order, config errors list the known checks
    "norms": Check(_norms_row, _norms_base, _norms_verdict, real=True),
    "dirac": Check(_dirac_row, verdict=partial(_pair_verdict, order=1, scaled=False), real=True, fits=True),
    "product": Check(partial(_product_row, order=1), verdict=partial(_pair_verdict, order=1, scaled=True), fits=True),
    "sass2": Check(partial(_product_row, order=2), verdict=partial(_pair_verdict, order=2, scaled=True), fits=True),
    "trace": Check(_trace_row, _trace_base, partial(_exact_verdict, detail="average")),
    "spectrum": Check(_spectrum_row, _spectrum_base, _spectrum_verdict, real=True, fits=True),
    "tuynman": Check(_tuynman_row, verdict=partial(_exact_verdict, detail="max_defect"), real=True),
    # lambdas, so that each law is looked up by name when its check runs: a wrapper set on this module applies
    "staraxioms": Check(base=lambda cfg: _symbolic_check(cfg, check_axioms, 3, 6, "triple")),
    "equivalence": Check(base=lambda cfg: _symbolic_check(cfg, check_equivalence, 2, 5, "pair")),
}


def _tasks(cfg: ExperimentConfig) -> list[tuple[str, int | None]]:
    """The run's (check, level) tasks: largest level first, config order within a level, then the no-level work.

    The costliest rows are those of the largest level, so they start first and the workers finish close together.
    """
    rows = [(name, m) for m in reversed(cfg.m_list) for name in cfg.checks if CHECKS[name].row]
    return rows + [(name, None) for name in cfg.checks if CHECKS[name].base]


def _run_task(cfg: ExperimentConfig, assembler: Assembler, task: tuple[str, int | None]) -> tuple:
    """One task's value, its seconds and the entries it added to ``assembler.log``, in the calling process or in a
    forked worker."""
    name, m = task
    start, t0 = len(assembler.log), time.perf_counter()
    value = CHECKS[name].base(cfg) if m is None else CHECKS[name].row(cfg, assembler, m)
    return value, time.perf_counter() - t0, assembler.log[start:]


def execute(cfg: ExperimentConfig, jobs: int | None = None, cache: MatrixCache | None = None) -> RunReport:
    """Run every configured check; ``jobs`` is accepted for old callers and ignored.

    The checks run as ``_tasks``: one row task per (check, level) and one task for a check's work that needs no
    level, through one ``fork_map`` call with min(tasks, usable CPUs) workers; one worker is the calling process.
    Each worker keeps the assembler it starts with as its memo, and each task returns the log entries it added.
    The counters count the keys of all those entries once each, so two workers that assembled or loaded the same
    key count as a serial run does, where the second is a memo hit: hits are the keys loaded and never assembled.
    The verdicts, with their fits, run here.  The report's calibration records the frozen conventions that the
    symbol layer uses.
    """
    assembler = Assembler(cache)
    tasks = _tasks(cfg)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(tasks), cpus)

    def run_task(task):  # any children are forked, so this closure is never pickled
        return _run_task(cfg, assembler, task)

    timings = dict.fromkeys(cfg.checks, 0.0)
    bases, rows = {}, {name: {} for name in cfg.checks}
    keys = {"assembled": set(), "loaded": set(), "corrupt": set()}
    for (name, m), (value, seconds, log) in zip(tasks, fork_map(run_task, tasks, workers)):
        timings[name] += seconds
        for key, event in log:
            keys[event].add(key)
        if m is None:
            bases[name] = value
        else:
            rows[name][m] = value
    checks = {name: CHECKS[name].outcome(cfg, bases.get(name), rows[name]) for name in cfg.checks}
    status = "pass" if all(out.status == "pass" for out in checks.values()) else "fail"
    return RunReport(
        experiment=cfg.name,
        manifold=cfg.manifold,
        seed=cfg.seed,
        m_list=list(cfg.m_list),
        calibration={
            "poisson_phase": "-i" if HAMILTONIAN_PHASE == QC(0, -1) else "+i",
            "hamiltonian_formula": "X^z = phase * (1+|z|^2)^2 df/dzbar",
            "laplacian_coeff": float(LAPLACE_COEFF),
        },
        versions={
            "btlab": __version__,
            "numpy": np.__version__,
            "python": python_version(),
            "workers": workers,
            **{var: os.environ.get(var) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        },
        checks=checks,
        counters={
            "assemblies": len(keys["assembled"]),
            "cache_hits": len(keys["loaded"] - keys["assembled"]),
            "cache_corruptions": len(keys["corrupt"]),
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
    report = execute(cfg, cache=MatrixCache(cache_root))
    write_report(report, out if out is not None else cfg.output)
    return report, 0 if report.status == "pass" else 1
