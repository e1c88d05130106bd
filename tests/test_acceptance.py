"""Acceptance suite: every primary criterion at its stated tolerance.

Each test prints one pass/fail line (run pytest with -s to see them all).
Criteria with exact content are asserted in rational arithmetic; slope
criteria use the standard sweep m in {8, 16, 32, 64, 128}.
"""

from fractions import Fraction
from functools import partial
from math import pi

import numpy as np
import pytest
from click.testing import CliRunner

from assembly_reference import values
from btlab.cli import main as cli_main
from btlab.config import parse_config
from btlab.exact import QC
from btlab.operators import (
    adjoint,
    compose_exact,
    hermitian_eigenvalues,
    lincomb_exact,
    operator_norm,
    toeplitz_exact,
    trace_exact,
)
from btlab.runner import Assembler, run as run_experiment
from btlab.semiclassics import (
    ConvergenceTable,
    dirac_defect,
    loglog_slope,
    moment_limit,
    sass_remainder,
    spectral_moment,
)
from btlab.starproduct import c1, check_axioms, check_equivalence, coefficient, tau
from btlab.symbols import (
    HAMILTONIAN_PHASE,
    average,
    constant,
    poisson_bracket,
    sphere_coord_x,
    sphere_height,
    sup_norm,
)
from conftest import calibrate_laplacian_coeff, equal_exact, rand, rand_complex, tuynman_defect
from hilbert_reference import bergman_density, dimension
from quadrature_reference import gram_quadrature, toeplitz_quadrature
from symbols_reference import calibrate_hamiltonian_phase, chart_value

F0 = sphere_height()
G0 = sphere_coord_x()
ONE = constant(1)
PAIR_SEEDS = [(10 + 2 * i, 11 + 2 * i) for i in range(5)]
# Sweep criteria draw R=1 symbols (the roughness of the named test symbols):
# rougher draws still decay at the right rate but leave the pre-asymptotic
# regime after the m = 128 end of the standard sweep.
SWEEP_MAX_R = 1
DEFAULT_SWEEP = (8, 16, 32, 64, 128)


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_toeplitz_exactness():
    ok = True
    for m in range(1, 65):
        t = toeplitz_exact(F0, m)
        t_values = values(t.kernel)
        for j in range(m + 1):
            ok = ok and t_values.get((j, j), QC(0)) == QC(Fraction(j + 1, m + 2))
            ok = ok and all(t_values.get((j, k), QC(0)) == QC(0) for k in range(m + 1) if k != j)
        want = np.diag([(j + 1) / (m + 2) for j in range(m + 1)])
        ok = ok and float(np.max(np.abs(t.entries - want))) <= 1e-12
    announce(1, ok, "T(height) = diag((j+1)/(m+2)) exactly for m = 1..64")


def test_criterion_02_norm_approximation():
    ok = sup_norm(F0) == 1.0
    for m in range(1, 65):
        t = toeplitz_exact(F0, m)
        t_values = values(t.kernel)
        exact_norm = max(abs(t_values.get((j, j), QC(0)).re) for j in range(m + 1))
        ok = ok and exact_norm == Fraction(m + 1, m + 2)
        ok = ok and Fraction(1) - exact_norm == Fraction(1, m + 2)
        ok = ok and abs(operator_norm(t) - float(exact_norm)) <= 1e-12
    c_values = []
    for seed_f, _ in PAIR_SEEDS:
        f = rand(seed_f, SWEEP_MAX_R)
        sup = sup_norm(f)
        table = ConvergenceTable("norm_defect", [(m, sup - operator_norm(toeplitz_exact(f, m))) for m in DEFAULT_SWEEP])
        ok = ok and all(d >= -1e-9 for d in table.values())
        c_values.append(max(m * d for m, d in table.records))
    ok = ok and all(np.isfinite(c) for c in c_values)
    announce(2, ok, f"norm defect of height is exactly 1/(m+2); C = max m*defect in {max(c_values):.3f}")


def test_criterion_03_commutator_rate():
    slopes = []
    ok = True
    for seed_f, seed_g in PAIR_SEEDS:
        f, g = rand(seed_f, SWEEP_MAX_R), rand(seed_g, SWEEP_MAX_R)
        table = ConvergenceTable("dirac_defect", [(m, dirac_defect(f, g, m)) for m in DEFAULT_SWEEP])
        slope = loglog_slope(table)
        if slope is not None:
            slopes.append(slope)
            ok = ok and slope <= -0.85
    announce(3, ok, f"dirac defect slopes {['%.2f' % s for s in slopes]} all <= -0.85")


def remainder_slope(f, g, order: int, toeplitz):
    coeffs = [coefficient(k, f, g) for k in range(order)]
    table = ConvergenceTable(
        f"product_remainder_n{order}", [(m, sass_remainder(f, g, coeffs, m, toeplitz=toeplitz)) for m in DEFAULT_SWEEP]
    )
    return loglog_slope(table)


def test_criterion_04_product_expansion_rate():
    ok = True
    s1, s2 = [], []
    for seed_f, seed_g in PAIR_SEEDS:
        f, g = rand(seed_f, SWEEP_MAX_R), rand(seed_g, SWEEP_MAX_R)
        toeplitz = Assembler(None).toeplitz  # both orders share T_f, T_g and T_fg
        slope1 = remainder_slope(f, g, 1, toeplitz)
        slope2 = remainder_slope(f, g, 2, toeplitz)
        if slope1 is not None:
            s1.append(slope1)
            ok = ok and slope1 <= -0.85
        if slope2 is not None:
            s2.append(slope2)
            ok = ok and slope2 <= -1.8
    # spot check at m = 2: the N=1 remainder for the height symbol is the
    # exact diagonal (-3/80, -1/20, -3/80); the stated 3/80 is the entry at
    # j = 2 (and j = 0), and the operator norm is 1/20.
    m = 2
    t = toeplitz_exact(F0, m)
    rem = lincomb_exact([(QC(1), compose_exact(t, t)), (QC(-1), toeplitz_exact(F0 * F0, m))])
    diag = [values(rem.kernel).get((j, j), QC(0)).re for j in range(m + 1)]
    ok = ok and diag == [Fraction(-3, 80), Fraction(-1, 20), Fraction(-3, 80)]
    ok = ok and abs(diag[2]) == Fraction(3, 80)
    ok = ok and max(abs(d) for d in diag) == Fraction(1, 20)
    ok = ok and sass_remainder(F0, F0, [F0 * F0], m) == pytest.approx(1 / 20, abs=1e-15)
    announce(
        4,
        ok,
        f"product remainder slopes N=1 {['%.2f' % s for s in s1]} <= -0.85, "
        f"N=2 {['%.2f' % s for s in s2]} <= -1.8; m=2 spot diagonal exact (|entry(2)| = 3/80)",
    )


def test_criterion_05_adjoint_and_parity():
    ok = True
    for i in range(20):
        f = rand_complex(400 + i) if i % 2 else rand(400 + i)
        for m in (3, 17, 32):
            ok = ok and equal_exact(adjoint(toeplitz_exact(f, m)), toeplitz_exact(f.conjugate(), m))
    for i in range(25):
        f, g = rand_complex(500 + i), rand_complex(600 + i)
        ok = ok and c1(f, g).conjugate() == c1(g.conjugate(), f.conjugate())
    announce(5, ok, "adjoint identity exact for 20 symbols at m <= 32; parity of c1 exact on 25 pairs")


def test_criterion_06_unit_and_axioms():
    ok = True
    for i in range(25):
        f, g, h = rand(700 + i), rand(800 + i), rand(900 + i)
        ok = ok and c1(ONE, g).is_zero and c1(g, ONE).is_zero
        rep = check_axioms(f, g, h)
        ok = ok and rep["unit"] and rep["assoc_order1"]
        ok = ok and average(poisson_bracket(f, g)) == QC(0)
    announce(6, ok, "unit law, order-1 associativity, and bracket-integral vanishing exact on 25 triples")


def test_criterion_07_trace():
    ok = True
    for i in range(10):
        f = rand(1000 + i)
        avg = average(f)
        for m in (2, 3, 5, 8, 13):
            ok = ok and trace_exact(toeplitz_exact(f, m)) == QC(m + 1) * avg
        ok = ok and tau(f, 0) == avg == tau(f, 1)
    # the leading coefficient realizes 1/vol(P^1): Tr(id) = m + 1 gives tau0 = 1
    ok = ok and all(trace_exact(toeplitz_exact(ONE, m)) == QC(m + 1) for m in (2, 5, 9))
    ok = ok and tau(ONE, 0) == QC(1) == tau(ONE, 1)
    announce(7, ok, "Tr T_f = (m+1) * avg(f) exactly; (tau0, tau1) = (avg, avg); tau0(1) = 1 = vol/vol(P^1)")


def test_criterion_08_spectral_moments():
    ok = True
    outcomes = []
    for f, name in ((F0, "height"), (G0, "xcoord")):
        spectra = {m: hermitian_eigenvalues(toeplitz_exact(f, m)) for m in DEFAULT_SWEEP}  # one per level
        for k in (1, 2, 3):
            limit = float(moment_limit(f, k).re)
            defects = [(m, abs(spectral_moment(spectra[m], k) - limit)) for m in DEFAULT_SWEEP]
            table = ConvergenceTable(f"moment_defect_k{k}", defects)
            slope = loglog_slope(table)
            if slope is None:
                outcomes.append(f"{name},k={k}: exact")
            else:
                outcomes.append(f"{name},k={k}: {slope:.2f}")
                ok = ok and slope <= -0.85
    announce(8, ok, "moment defect slopes <= -0.85 (or exact): " + "; ".join(outcomes))


def test_criterion_09_quantization_identity():
    phase = calibrate_hamiltonian_phase()
    coeff = calibrate_laplacian_coeff()
    ok = phase == HAMILTONIAN_PHASE == QC(0, -1) and coeff == Fraction(2)
    worst = 0.0
    for i in range(10):
        f = rand(1100 + i)
        for m in range(1, 33):
            worst = max(worst, tuynman_defect(f, m))
    ok = ok and worst <= 1e-10
    announce(
        9,
        ok,
        f"geometric vs Toeplitz identity: max defect {worst:.2e} <= 1e-10 "
        f"(calibrated phase -i, Laplacian coefficient {coeff})",
    )


def test_criterion_10_equivalence():
    ok = True
    for i in range(10):
        f, g = rand(1200 + i), rand(1300 + i)
        ok = ok and check_equivalence(f, g) == {"nu1_defect_zero": True, "b_roundtrip": True}
    announce(10, ok, "b(f) * b(g) = b(f *_G g) at order 1 exactly; b_inverse(b_map) = id to order 2")


def test_criterion_11_dimension_and_quadrature():
    ok = True
    for m in (0, 2, 5, 10):
        gram = gram_quadrature(m)
        eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        ok = ok and int(np.sum(eigs > 1e-8 * eigs.max())) == dimension(m)
    rng = np.random.default_rng(11)
    for m in (1, 4, 9):
        want = (m + 1) / (2 * pi)
        pts = rng.uniform(-3, 3, (50, 2))
        ok = ok and all(abs(bergman_density(m, complex(x, y)) - want) <= 1e-10 for x, y in pts)
    for f in (F0, G0, rand(1400)):
        for m in (1, 4, 16):
            q = toeplitz_quadrature(partial(chart_value, f), m, 64, 64)
            ok = ok and float(np.max(np.abs(q - toeplitz_exact(f, m).entries))) <= 1e-10
    announce(11, ok, "Gram rank = m+1; Bergman density constant to 1e-10; quadrature = exact to 1e-10")


def test_criterion_12_harness(tmp_path, monkeypatch):
    cfg_text = """
[experiment]
name = acceptance
manifold = cp1
checks = norms, dirac, tuynman, trace
m_list = 8, 16, 32, 64
seed = 3
output = {out}

[symbol height]
R = 1
terms =
    1 1 1 1 0 1

[symbol xcoord]
R = 1
terms =
    1 0 1 2 0 1
    0 1 1 2 0 1
"""
    cfg_path = tmp_path / "acc.cfg"
    cfg_path.write_text(cfg_text.format(out=tmp_path / "out"))
    cache_root = tmp_path / "cache"

    report1, code1 = run_experiment(parse_config(cfg_path), cache_root=cache_root)
    csv1 = (tmp_path / "out" / "tables.csv").read_bytes()
    report2, code2 = run_experiment(parse_config(cfg_path), cache_root=cache_root)
    csv2 = (tmp_path / "out" / "tables.csv").read_bytes()
    ok = code1 == 0 and code2 == 0 and csv1 == csv2
    ok = ok and report1.counters["assemblies"] > 0 and report2.counters["assemblies"] == 0
    for name in report1.checks:
        for t1, t2 in zip(report1.checks[name].tables, report2.checks[name].tables):
            ok = ok and t1.records == t2.records

    runner = CliRunner()
    ok = ok and runner.invoke(cli_main, ["run", str(cfg_path), "--cache-root", str(cache_root)]).exit_code == 0
    strict_path = tmp_path / "strict.cfg"  # with no slope window the dirac slope misses -1
    strict_path.write_text(cfg_text.format(out=tmp_path / "out").replace("seed = 3", "seed = 3\nslope_window = 0"))
    ok = ok and runner.invoke(cli_main, ["run", str(strict_path), "--cache-root", str(cache_root)]).exit_code == 1
    bad_path = tmp_path / "bad.cfg"
    bad_path.write_text(cfg_text.format(out=tmp_path / "out").replace("cp1", "cp7"))
    ok = ok and runner.invoke(cli_main, ["run", str(bad_path)]).exit_code == 2

    import btlab.cli as cli_mod

    monkeypatch.setattr(cli_mod, "run_experiment", lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
    ok = ok and runner.invoke(cli_main, ["run", str(cfg_path)]).exit_code == 3
    announce(12, ok, "byte-identical CSVs, transparent cache (warm assemblies = 0), exit codes 0/1/2/3")
