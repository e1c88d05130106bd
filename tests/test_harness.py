"""Config parsing, matrix cache, runner determinism, CLI exit codes."""

import hashlib
import itertools
import json
import logging
import multiprocessing
import os
import re
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from assembly_reference import values
from btlab.cache import MatrixCache, default_cache_root, symbol_hash
from btlab.cli import main
from btlab.config import parse_config
from btlab.errors import CacheCorruption, ParseError, ValidationError
from btlab.operators import OperatorMatrix, hermitian_eigenvalues, operator_norm, toeplitz_exact
from btlab.runner import Assembler, run as run_experiment
from btlab import runner, semiclassics
from btlab.semiclassics import moment_limit, spectral_moment
from btlab.symbols import sphere_height

MINIMAL = """
[experiment]
manifold = cp1
checks = norms
m_list = 2, 4, 8

[symbol height]
R = 1
terms =
    1 1 1 1 0 1
"""

NON_REAL = MINIMAL.replace("1 1 1 1 0 1", "1 1 1 1 1 1")  # (1+i) t/(1+t) under checks = norms

FULL = """
[experiment]
name = full
manifold = cp1
checks = norms, dirac, product, sass2, trace, spectrum, tuynman, staraxioms, equivalence
m_list = 8, 16, 32, 64
seed = 7
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


def write_cfg(tmp_path: Path, text: str, name: str = "exp.cfg") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


# -- config parsing -----------------------------------------------------------


def test_parse_minimal_config(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, MINIMAL))
    assert cfg.manifold == "cp1"
    assert cfg.checks == ["norms"]
    assert cfg.m_list == [2, 4, 8]
    assert cfg.active == ["height"]
    assert cfg.symbols["height"] == sphere_height()


def test_parse_rejects_unordered_m_list(tmp_path):
    bad = MINIMAL.replace("m_list = 2, 4, 8", "m_list = 8, 4")
    with pytest.raises(ValidationError, match="strictly increasing"):
        parse_config(write_cfg(tmp_path, bad))


def test_parse_rejects_unknown_manifold(tmp_path):
    bad = MINIMAL.replace("manifold = cp1", "manifold = cp2")
    with pytest.raises(ValidationError, match="supported manifolds: cp1"):
        parse_config(write_cfg(tmp_path, bad))


def test_parse_rejects_unknown_check(tmp_path):
    bad = MINIMAL.replace("checks = norms", "checks = norms, wibble")
    with pytest.raises(ValidationError, match="wibble"):
        parse_config(write_cfg(tmp_path, bad))


def test_parse_rejects_unresolved_symbol(tmp_path):
    bad = MINIMAL.replace("checks = norms", "checks = norms\nsymbols = height, ghost")
    with pytest.raises(ValidationError, match="ghost"):
        parse_config(write_cfg(tmp_path, bad))


def test_parse_rejects_empty_checks(tmp_path):
    bad = MINIMAL.replace("checks = norms", "checks =")
    with pytest.raises(ValidationError, match="nonempty"):
        parse_config(write_cfg(tmp_path, bad))


def test_parse_rejects_bad_terms_line(tmp_path):
    bad = MINIMAL.replace("1 1 1 1 0 1", "1 1 1 1 0")
    with pytest.raises(ValidationError, match="6 fields"):
        parse_config(write_cfg(tmp_path, bad))


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("1 1 1 1 0 1", "1 1 x 1 0 1", "terms line 1: invalid literal"),
        ("1 1 1 1 0 1", "1 1 1 0 0 1", "terms line 1: Fraction"),
        ("1 1 1 1 0 1", "-1 1 1 1 0 1", "exponents must be >= 0"),
        ("1 1 1 1 0 1", "1 1 1 1 0 1\n    1 1 1 2 0 1", r"line 2: duplicate monomial \(1, 1\)"),
        ("[symbol height]", "[height]", r"unexpected section \[height\]"),
        ("[symbol height]", "[symbol  ]", "symbol section needs a name"),
        ("R = 1", "R = 1\ncolour = red", r"\[symbol height\]: unknown keys \['colour'\]"),
        ("manifold = cp1", "manifold = cp1\ncolour = red", r"\[experiment\]: unknown keys \['colour'\]"),
        ("R = 1", "R = one", "R: invalid literal"),
        ("R = 1", "R = -1", "R must be >= 0"),
        ("[experiment]", "[symbol unit]", r"missing \[experiment\] section"),
        ("m_list = 2, 4, 8", "m_list = 2, four", "m_list: invalid literal"),
        ("m_list = 2, 4, 8", "m_list =", "m_list must be nonempty"),
        (MINIMAL[MINIMAL.index("[symbol") :], "", "no symbols defined"),
        ("checks = norms", "checks = norms\nsymbols = height, height", r"duplicate symbol name\(s\) \['height'\]"),
    ],
    ids=[
        "terms-value", "terms-zero-den", "negative-exponent", "duplicate-monomial", "bad-section", "unnamed-symbol",
        "symbol-key", "experiment-key", "R-value", "negative-R", "no-experiment", "m_list-value", "empty-m_list",
        "no-symbols", "duplicate-symbol",
    ],
)
def test_parse_rejects_a_malformed_config(tmp_path, old, new, message):
    assert old in MINIMAL
    with pytest.raises(ValidationError, match=message):
        parse_config(write_cfg(tmp_path, MINIMAL.replace(old, new)))


def test_parse_rejects_nonsmooth_symbol(tmp_path):
    bad = MINIMAL.replace("1 1 1 1 0 1", "2 0 1 1 0 1")
    with pytest.raises(ValidationError, match="denominator exponent"):
        parse_config(write_cfg(tmp_path, bad))


def test_parse_rejects_slope_checks_with_short_sweep(tmp_path):
    bad = MINIMAL.replace("checks = norms", "checks = dirac")
    with pytest.raises(ValidationError, match="at least 4 levels"):
        parse_config(write_cfg(tmp_path, bad))


@pytest.mark.parametrize("window", ["-1", "nan", "inf"])
def test_parse_rejects_a_slope_window_that_is_negative_or_not_finite(tmp_path, window):
    bad = MINIMAL.replace("checks = norms", f"checks = norms\nslope_window = {window}")
    with pytest.raises(ValidationError, match="slope_window must be finite and nonnegative"):
        parse_config(write_cfg(tmp_path, bad))


def test_trace_check_runs_on_one_level(tmp_path):
    text = MINIMAL.replace("checks = norms", "checks = trace").replace("m_list = 2, 4, 8", "m_list = 4")
    cfg = parse_config(write_cfg(tmp_path, text))
    cfg.output = tmp_path / "out"
    report, code = run_experiment(cfg, cache_root=tmp_path / "cache")
    assert code == 0 and report.checks["trace"].status == "pass"


def test_readme_demo_config_parses_with_real_symbols(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = parse_config(write_cfg(tmp_path, block))
    assert cfg.active == ["height", "bump"]
    assert all(f.is_real for f in cfg.symbols.values())


def test_parse_rejects_ini_syntax_garbage(tmp_path):
    with pytest.raises(ParseError):
        parse_config(write_cfg(tmp_path, "not an ini file at all\n===\n"))


def test_parse_missing_file(tmp_path):
    with pytest.raises(ParseError):
        parse_config(tmp_path / "absent.cfg")


# -- cache ---------------------------------------------------------------------


def test_cache_roundtrip_is_exact(tmp_path):
    f = sphere_height()
    mat = toeplitz_exact(f, 8)
    cache = MatrixCache(tmp_path / "cache")
    cache.store(mat, symbol_hash(f), "toeplitz")
    again = cache.load(symbol_hash(f), "toeplitz", 8)
    assert again is not None
    assert np.max(np.abs(again.entries - mat.entries)) == 0.0
    assert again.kernel is not None and again.kernel == mat.kernel


def test_cache_miss_returns_none(tmp_path):
    cache = MatrixCache(tmp_path / "cache")
    assert cache.load("0" * 64, "toeplitz", 4) is None


def _tamper_first_entry(path: Path) -> None:
    lines = path.read_text().splitlines()
    j, k, re_s, im_s = lines[7].split()
    lines[7] = f"{j} {k} {int(re_s) + 1} {im_s}"
    path.write_text("\n".join(lines) + "\n")


def _rewrite_with_checksum(path: Path, edit) -> None:
    """Apply ``edit`` to the file's lines, then make the checksum (over the ``den`` line
    and the entry lines) consistent again, so only the load's own checks can reject it."""
    lines = path.read_text().splitlines()
    edit(lines)
    block = "\n".join(lines[6:])
    lines[4] = f"checksum {hashlib.sha256(block.encode()).hexdigest()}"
    path.write_text("\n".join(lines) + "\n")


def test_cache_detects_tampering(tmp_path):
    f = sphere_height()
    cache = MatrixCache(tmp_path / "cache")
    path = cache.store(toeplitz_exact(f, 4), symbol_hash(f), "toeplitz")
    _tamper_first_entry(path)
    with pytest.raises(CacheCorruption):
        cache.load(symbol_hash(f), "toeplitz", 4)


def test_assembler_recovers_from_corruption(tmp_path, caplog):
    f = sphere_height()
    cache = MatrixCache(tmp_path / "cache")
    path = cache.store(toeplitz_exact(f, 4), symbol_hash(f), "toeplitz")
    _tamper_first_entry(path)
    asm = Assembler(cache)
    mat = asm.toeplitz(f, 4)
    assert asm.cache_corruptions == 1 and asm.assemblies == 1
    assert np.max(np.abs(mat.entries - toeplitz_exact(f, 4).entries)) == 0.0
    assert any(r.name == "btlab" and "recomputing" in r.getMessage() for r in caplog.records)


def _store_repeatedly(root: Path, start, times: int) -> None:
    f = sphere_height()
    mat = toeplitz_exact(f, 16)
    cache = MatrixCache(root)
    start.wait()
    for _ in range(times):
        cache.store(mat, symbol_hash(f), "toeplitz")


def test_cache_writers_of_one_key_in_four_processes(tmp_path):
    ctx = multiprocessing.get_context("fork")
    start = ctx.Event()
    writers = [ctx.Process(target=_store_repeatedly, args=(tmp_path / "cache", start, 300)) for _ in range(4)]
    for writer in writers:
        writer.start()
    start.set()
    for writer in writers:
        writer.join(timeout=120)
    assert not any(writer.is_alive() for writer in writers)
    assert [writer.exitcode for writer in writers] == [0] * 4
    f = sphere_height()
    again, fresh = MatrixCache(tmp_path / "cache").load(symbol_hash(f), "toeplitz", 16), toeplitz_exact(f, 16)
    assert again is not None and again.kernel == fresh.kernel
    assert np.array_equal(again.entries, fresh.entries)
    assert not list((tmp_path / "cache").glob("*.tmp"))


def test_cache_rejects_out_of_range_index(tmp_path):
    f = sphere_height()
    cache = MatrixCache(tmp_path / "cache")
    path = cache.store(toeplitz_exact(f, 4), symbol_hash(f), "toeplitz")

    def edit(lines):
        _, _, re_s, im_s = lines[7].split()
        lines[7] = f"5 0 {re_s} {im_s}"

    _rewrite_with_checksum(path, edit)
    with pytest.raises(CacheCorruption, match="out of range"):
        cache.load(symbol_hash(f), "toeplitz", 4)


@pytest.mark.parametrize("value", ["1/0", "1/-2", "x", "", "1.5", "1/2"])
def test_cache_rejects_a_malformed_value(tmp_path, value):
    # a checksum-consistent file whose first value is no plain integer
    f = sphere_height()
    cache = MatrixCache(tmp_path / "cache")
    path = cache.store(toeplitz_exact(f, 4), symbol_hash(f), "toeplitz")

    def edit(lines):
        j, k, _, im_s = lines[7].split()
        lines[7] = f"{j} {k} {value} {im_s}"

    _rewrite_with_checksum(path, edit)
    with pytest.raises(CacheCorruption):
        cache.load(symbol_hash(f), "toeplitz", 4)


def _scale_kernel(lines: list[str], factor: int) -> None:
    """Multiply the den line and every entry part by ``factor``: the same rationals."""
    lines[6] = f"den {int(lines[6].split()[1]) * factor}"
    for i in range(7, len(lines)):
        j, k, re_s, im_s = lines[i].split()
        lines[i] = f"{j} {k} {int(re_s) * factor} {int(im_s) * factor}"


def _add_zero_entry(lines: list[str]) -> None:
    lines[5] = f"entries {int(lines[5].split()[1]) + 1}"
    lines.insert(8, "0 1 0 0")


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: _scale_kernel(lines, 2),
        lambda lines: _scale_kernel(lines, -1),
        lambda lines: lines.__setitem__(6, "den 0"),
        _add_zero_entry,
    ],
    ids=["not-in-lowest-terms", "negative-den", "zero-den", "zero-entry"],
)
def test_cache_rejects_a_kernel_that_is_not_canonical(tmp_path, edit):
    # a kernel a fresh assembly never gives, even when it holds the same rationals, is corrupt
    f = sphere_height()
    cache = MatrixCache(tmp_path / "cache")
    path = cache.store(toeplitz_exact(f, 4), symbol_hash(f), "toeplitz")
    _rewrite_with_checksum(path, edit)
    with pytest.raises(CacheCorruption):
        cache.load(symbol_hash(f), "toeplitz", 4)


def _assert_recomputed_with_one_warning(cache: MatrixCache, f, m: int, caplog, message: str) -> None:
    """The file at (f, toeplitz, m) is corrupt, for ``message``; the Assembler warns once, recomputes and
    overwrites it."""
    mat = toeplitz_exact(f, m)
    with pytest.raises(CacheCorruption, match=message):
        cache.load(symbol_hash(f), "toeplitz", m)
    asm = Assembler(cache)
    with caplog.at_level(logging.WARNING, logger="btlab"):
        again = asm.toeplitz(f, m)
    assert asm.cache_corruptions == 1 and asm.assemblies == 1
    [record] = caplog.records
    assert record.name == "btlab" and record.levelno == logging.WARNING
    assert message in record.getMessage() and record.getMessage().endswith("; recomputing")
    assert again.kernel == mat.kernel
    assert cache.load(symbol_hash(f), "toeplitz", m).kernel == mat.kernel


def test_assembler_recomputes_float_format_file(tmp_path, caplog):
    f = sphere_height()
    mat = toeplitz_exact(f, 4)
    cache = MatrixCache(tmp_path / "cache")
    block = "\n".join(f"{j} {k} {v.real:.17e} {v.imag:.17e}" for (j, k), v in np.ndenumerate(mat.entries))
    header = [
        "btlab-matrix 1",
        "kind toeplitz",
        "m 4",
        f"source {symbol_hash(f)}",
        "provenance exact",
        f"checksum {hashlib.sha256(block.encode()).hexdigest()}",
        "entries 25",
    ]
    cache.root.mkdir(parents=True)
    cache.path_for(symbol_hash(f), "toeplitz", 4).write_text("\n".join(header) + "\n" + block + "\n")
    _assert_recomputed_with_one_warning(cache, f, 4, caplog, "bad magic line")


def test_assembler_recomputes_a_format_2_file(tmp_path, caplog):
    # format 2 wrote each part as a Fraction string, n or n/d, with no den line
    f = sphere_height()
    kernel = values(toeplitz_exact(f, 4).kernel)
    cache = MatrixCache(tmp_path / "cache")
    block = "\n".join(f"{j} {k} {v.re} {v.im}" for (j, k), v in sorted(kernel.items()))
    header = [
        "btlab-matrix 2",
        "kind toeplitz",
        "m 4",
        f"source {symbol_hash(f)}",
        f"checksum {hashlib.sha256(block.encode()).hexdigest()}",
        f"entries {len(kernel)}",
    ]
    cache.root.mkdir(parents=True)
    cache.path_for(symbol_hash(f), "toeplitz", 4).write_text("\n".join(header) + "\n" + block + "\n")
    _assert_recomputed_with_one_warning(cache, f, 4, caplog, "bad magic line")


def _duplicate_first_entry(lines: list[str]) -> None:
    lines[5] = f"entries {int(lines[5].split()[1]) + 1}"
    lines.insert(8, lines[7])


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines.__setitem__(1, "kind prequantum"), "header kind mismatch"),
        (lambda lines: lines.__setitem__(2, "m 5"), "header m mismatch"),
        (lambda lines: lines.__setitem__(3, f"source {'0' * 64}"), "header source mismatch"),
        (lambda lines: lines.__setitem__(6, lines[6].replace("den", "dem")), "no den line"),
        (_duplicate_first_entry, "entry count mismatch"),
    ],
    ids=["kind", "level", "source", "den-tag", "duplicate-entry"],
)
def test_assembler_recomputes_a_file_that_fails_a_load_check(tmp_path, caplog, edit, message):
    # each file is checksum-consistent, so only the load's own checks can reject it
    f = sphere_height()
    cache = MatrixCache(tmp_path / "cache")
    _rewrite_with_checksum(cache.store(toeplitz_exact(f, 4), symbol_hash(f), "toeplitz"), edit)
    _assert_recomputed_with_one_warning(cache, f, 4, caplog, message)


def test_assembler_counts_hits(tmp_path):
    f = sphere_height()
    cache = MatrixCache(tmp_path / "cache")
    cold = Assembler(cache)
    cold.toeplitz(f, 6)
    assert cold.assemblies == 1 and cold.cache_hits == 0
    warm = Assembler(cache)
    warm.toeplitz(f, 6)
    warm.toeplitz(f, 6)  # second call served from the in-memory memo
    assert warm.assemblies == 0 and warm.cache_hits == 1


# -- runner ----------------------------------------------------------------------


def test_tuynman_run_passes(tmp_path):
    text = """
[experiment]
manifold = cp1
checks = tuynman
m_list = 1, 2, 4
output = {out}

[symbol height]
R = 1
terms =
    1 1 1 1 0 1
""".format(out=tmp_path / "out")
    cfg = parse_config(write_cfg(tmp_path, text))
    report, code = run_experiment(cfg, cache_root=tmp_path / "cache")
    assert code == 0 and report.status == "pass"
    table = report.checks["tuynman"].tables[0]
    assert all(v <= 1e-10 for _, v in table.records)


def test_tuynman_sweep_runs_past_the_float_underflow(tmp_path):
    # no float matrix is formed, so levels where 1/((m+1) C(m, j)) underflows (m >= 1071) run too
    text = MINIMAL.replace("checks = norms", "checks = tuynman").replace("m_list = 2, 4, 8", "m_list = 1100, 2048")
    args = ["run", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")]
    result = CliRunner().invoke(main, [*args, "--cache-root", str(tmp_path / "cache")])
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "out" / "tables.csv").read_text().splitlines()
    assert rows == ["check,m,value", "tuynman:height,1100,0", "tuynman:height,2048,0"]


def test_a_tuynman_run_reads_no_float_matrix(tmp_path, monkeypatch):
    # the row is the norm of the exact difference Q_f - i T_{f - Delta f/2m}, whose kernel is empty
    def no_floats(mat):
        raise AssertionError(f"float matrix of a level-{mat.m} operator read")

    monkeypatch.setattr(OperatorMatrix, "entries", property(no_floats))  # forked workers inherit the patch
    text = FULL.format(out=tmp_path / "out").replace(
        "checks = norms, dirac, product, sass2, trace, spectrum, tuynman, staraxioms, equivalence", "checks = tuynman"
    )
    report, code = run_experiment(parse_config(write_cfg(tmp_path, text)), cache_root=tmp_path / "cache")
    assert code == 0
    assert [v for table in report.checks["tuynman"].tables for _, v in table.records] == [0.0] * 8


def _counting(fn, log: Path):
    """``fn``, appending one byte to ``log`` per call, in whichever worker process makes it."""

    def counting(*args, **kwargs):
        with open(log, "ab") as out:
            out.write(b".")
        return fn(*args, **kwargs)

    return counting


def test_tuynman_check_builds_one_operand_pair_per_level(tmp_path, monkeypatch):
    # the float row and the exact decision share one (Q_f, T_{f - Delta f/2m}) per level
    calls = tmp_path / "calls"
    monkeypatch.setattr(semiclassics, "laplacian", _counting(semiclassics.laplacian, calls))
    text = FULL.format(out=tmp_path / "out").replace(
        "checks = norms, dirac, product, sass2, trace, spectrum, tuynman, staraxioms, equivalence", "checks = tuynman"
    )
    report, code = run_experiment(parse_config(write_cfg(tmp_path, text)), cache_root=tmp_path / "cache")
    assert code == 0 and report.checks["tuynman"].details["height"]["exact"]
    assert len(calls.read_bytes()) == 2 * 4  # (height, xcoord) x (8, 16, 32, 64)


def test_norms_run_flags_exact_identity_for_unit(tmp_path):
    text = """
[experiment]
manifold = cp1
checks = norms
m_list = 2, 4
output = {out}

[symbol unit]
R = 0
terms =
    0 0 1 1 0 1
""".format(out=tmp_path / "out")
    cfg = parse_config(write_cfg(tmp_path, text))
    report, code = run_experiment(cfg, cache_root=tmp_path / "cache")
    assert code == 0
    assert report.checks["norms"].details["unit"]["exact_identity"] is True


@pytest.mark.parametrize("excess, code", [(2e-9, 1), (0.5e-9, 0)])
def test_norms_check_fails_when_a_norm_exceeds_the_sup(tmp_path, monkeypatch, excess, code):
    # a norm above sup|f| by more than NORM_CONTRACTION_TOL = 1e-9 fails the check
    norm = operator_norm(toeplitz_exact(sphere_height(), 8))
    monkeypatch.setitem(runner._BASES, "norms", lambda cfg: {"height": norm - excess})
    cfg = parse_config(write_cfg(tmp_path, MINIMAL))
    report, got = run_experiment(cfg, cache_root=tmp_path / "cache", out=tmp_path / "out")
    assert got == code and report.checks["norms"].status == ("fail" if code else "pass")


def test_a_pair_check_with_one_symbol_pairs_it_with_itself(tmp_path):
    text = MINIMAL.replace("checks = norms", "checks = dirac, product")
    cfg = parse_config(write_cfg(tmp_path, text.replace("m_list = 2, 4, 8", "m_list = 2, 4, 8, 16")))
    report, _ = run_experiment(cfg, cache_root=tmp_path / "cache", out=tmp_path / "out")
    for name in ("dirac", "product"):
        assert [table.name for table in report.checks[name].tables] == ["height-height"]
        assert list(report.checks[name].details) == ["height-height"]


def test_runs_are_byte_identical_and_cache_transparent(tmp_path):
    cfg_path = write_cfg(tmp_path, FULL.format(out=tmp_path / "out"))
    cfg = parse_config(cfg_path)
    report1, code1 = run_experiment(cfg, cache_root=tmp_path / "cache")
    csv1 = (tmp_path / "out" / "tables.csv").read_bytes()
    assert code1 == 0 and report1.counters["assemblies"] > 0

    report2, code2 = run_experiment(parse_config(cfg_path), cache_root=tmp_path / "cache")
    csv2 = (tmp_path / "out" / "tables.csv").read_bytes()
    assert code2 == 0
    assert csv1 == csv2
    assert report2.counters["assemblies"] == 0
    assert report2.counters["cache_hits"] > 0
    for name in ("trace", "tuynman"):  # decided on the exact kernels that the cache hits carry
        assert all(d["exact"] for d in report2.checks[name].details.values())
    for name, outcome in report1.checks.items():
        for t1, t2 in zip(outcome.tables, report2.checks[name].tables):
            assert t1.records == t2.records


def test_checks_share_one_memo(tmp_path):
    text = MINIMAL.replace("checks = norms", "checks = norms, spectrum, trace")
    cfg = parse_config(write_cfg(tmp_path, text.replace("m_list = 2, 4, 8", "m_list = 2, 4, 8, 16")))
    cfg.output = tmp_path / "out"
    report, code = run_experiment(cfg, cache_root=tmp_path / "cache")
    assert code == 0
    assert report.counters["assemblies"] == 4  # one T_height per level, shared by all three checks


def test_spectrum_runs_one_eigensolve_per_level(tmp_path, monkeypatch):
    calls = tmp_path / "calls"
    monkeypatch.setattr(np.linalg, "eigvalsh", _counting(np.linalg.eigvalsh, calls))
    text = MINIMAL.replace("checks = norms", "checks = spectrum").replace("m_list = 2, 4, 8", "m_list = 2, 4, 8, 16")
    cfg = parse_config(write_cfg(tmp_path, text))
    cfg.output = tmp_path / "out"
    report, code = run_experiment(cfg, cache_root=tmp_path / "cache")
    assert code == 0
    assert len(calls.read_bytes()) == 4  # moments k = 1, 2, 3 share one spectrum per level
    assert report.counters["assemblies"] == 4  # one T_height per level
    f = sphere_height()
    spectra = {m: hermitian_eigenvalues(toeplitz_exact(f, m)) for m in (2, 4, 8, 16)}
    for k, table in zip((1, 2, 3), report.checks["spectrum"].tables):
        limit = float(moment_limit(f, k).re)
        assert table.records == [(m, abs(spectral_moment(spectra[m], k) - limit)) for m in (2, 4, 8, 16)]


def _usable_cpus(monkeypatch, n: int) -> None:
    """Make ``execute`` size its pool as on an n-CPU machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_pooled_run_writes_what_one_worker_writes(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(runner, "time", SimpleNamespace(perf_counter=itertools.count().__next__))  # 1 s per task
    cfg_path = write_cfg(tmp_path, FULL.format(out=tmp_path / "out"))
    tasks_per_check = Counter(name for name, _ in runner._tasks(parse_config(cfg_path)))
    reports, files = {}, {}
    for n in (1, 2, 3):
        _usable_cpus(monkeypatch, n)
        out = tmp_path / f"out{n}"
        reports[n], code = run_experiment(parse_config(cfg_path), cache_root=tmp_path / f"cache{n}", out=out)
        assert code == 0
        assert reports[n].versions["workers"] == n
        assert reports[n].versions["OPENBLAS_NUM_THREADS"] == "1" and reports[n].versions["OMP_NUM_THREADS"] is None
        files[n] = {path.relative_to(out): path.read_bytes() for path in [out / "tables.csv", *out.glob("plots/*")]}
        # one float per configured check, the sum of its task times
        assert list(reports[n].timings) == list(reports[n].checks)
        assert reports[n].timings == {name: float(count) for name, count in tasks_per_check.items()}
    assert files[1] == files[2] == files[3]
    one = reports[1]
    for other in (reports[2], reports[3]):
        assert {n: c.status for n, c in one.checks.items()} == {n: c.status for n, c in other.checks.items()}
        assert {n: c.details for n, c in one.checks.items()} == {n: c.details for n, c in other.checks.items()}
        assert one.counters == other.counters and one.counters["assemblies"] > 0


def test_tasks_go_out_largest_level_first():
    cfg = parse_config(Path(__file__).resolve().parent.parent / "bench" / "configs" / "stretch-1024.cfg")
    assert runner._tasks(cfg) == [
        *[(name, m) for m in (1024, 512, 256, 128) for name in ("norms", "spectrum", "tuynman")],
        ("norms", None),
        ("spectrum", None),
    ]


def test_a_check_that_raises_in_a_worker_reaches_the_caller(tmp_path, monkeypatch):
    _usable_cpus(monkeypatch, 2)

    def boom(cfg, assembler, m):
        raise RuntimeError(f"synthetic failure in pid {os.getpid()}")

    monkeypatch.setitem(runner._ROWS, "norms", boom)
    cfg_path = write_cfg(tmp_path, MINIMAL.replace("checks = norms", "checks = norms, trace"))
    with pytest.raises(RuntimeError, match="synthetic failure in pid") as caught:
        run_experiment(parse_config(cfg_path), cache_root=tmp_path / "cache", out=tmp_path / "out")
    assert str(caught.value) != f"synthetic failure in pid {os.getpid()}"  # raised in a forked worker
    result = CliRunner().invoke(
        main, ["run", str(cfg_path), "--out", str(tmp_path / "out"), "--cache-root", str(tmp_path / "cache")]
    )
    assert result.exit_code == 3
    assert "internal error: synthetic failure in pid" in result.output


_KILL_EVERY_NORMS_WORKER = """
import os, signal, sys
from btlab import cli, runner
os.sched_getaffinity = lambda pid: {0, 1}  # two workers, so the rows never run in this process
runner._ROWS["norms"] = lambda cfg, assembler, m: os.kill(os.getpid(), signal.SIGKILL)
cli.main(sys.argv[1:])
"""


def test_a_worker_that_dies_makes_the_run_raise(tmp_path, monkeypatch):
    _usable_cpus(monkeypatch, 2)
    caller = os.getpid()

    def die(cfg, assembler, m):
        if os.getpid() == caller:
            raise AssertionError("a row ran in the calling process")
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setitem(runner._ROWS, "norms", die)
    cfg_path = write_cfg(tmp_path, MINIMAL.replace("checks = norms", "checks = norms, trace"))
    with pytest.raises(RuntimeError, match=r"worker process \d+ died \(signal 9\)"):
        runner.execute(parse_config(cfg_path))
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)
    src = str(Path(runner.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", _KILL_EVERY_NORMS_WORKER, "run", str(cfg_path), "--out", str(tmp_path / "out")]
        + ["--cache-root", str(tmp_path / "cache")],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert result.returncode == 3, result.stderr
    assert "internal error: worker process" in result.stderr


def test_pooled_counters_count_a_corrupt_file_once(tmp_path, monkeypatch):
    # both workers need every T_height; the key sets count each key once, as a serial run does
    _usable_cpus(monkeypatch, 2)
    f = sphere_height()
    _tamper_first_entry(MatrixCache(tmp_path / "cache").store(toeplitz_exact(f, 4), symbol_hash(f), "toeplitz"))
    text = MINIMAL.replace("checks = norms", "checks = norms, spectrum, trace")
    cfg_path = write_cfg(tmp_path, text.replace("m_list = 2, 4, 8", "m_list = 2, 4, 8, 16"))
    cold, code = run_experiment(parse_config(cfg_path), cache_root=tmp_path / "cache", out=tmp_path / "cold")
    assert code == 0 and cold.versions["workers"] == 2
    assert cold.counters == {"assemblies": 4, "cache_hits": 0, "cache_corruptions": 1}
    warm, code = run_experiment(parse_config(cfg_path), cache_root=tmp_path / "cache", out=tmp_path / "warm")
    assert code == 0
    assert warm.counters == {"assemblies": 0, "cache_hits": cold.counters["assemblies"], "cache_corruptions": 0}


def test_report_files_written(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, MINIMAL.replace("m_list = 2, 4, 8", "m_list = 2, 4")))
    cfg.output = tmp_path / "out"
    report, _ = run_experiment(cfg, cache_root=tmp_path / "cache")
    data = json.loads((tmp_path / "out" / "report.json").read_text())
    assert data["status"] == report.status
    assert data["calibration"]["poisson_phase"] == "-i"
    assert data["calibration"]["laplacian_coeff"] == 2.0
    assert (tmp_path / "out" / "tables.csv").exists()
    assert list((tmp_path / "out" / "plots").glob("*.dat"))


# -- CLI -------------------------------------------------------------------------


def test_cli_run_exit_zero(tmp_path):
    text = MINIMAL.replace("m_list = 2, 4, 8", f"m_list = 2, 4, 8\noutput = {tmp_path / 'out'}")
    cfg_path = write_cfg(tmp_path, text)
    runner = CliRunner()
    result = runner.invoke(main, ["run", str(cfg_path), "--cache-root", str(tmp_path / "cache")])
    assert result.exit_code == 0
    assert "overall      pass" in result.output


def test_cli_run_exit_one_on_failed_check(tmp_path):
    # with no slope window the pre-asymptotic dirac slope (about -0.91 over m = 32, 64) misses -1
    text = FULL.format(out=tmp_path / "out")
    cfg_path = write_cfg(tmp_path, text)
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["run", str(cfg_path), "--cache-root", str(tmp_path / "cache"), "--tolerance-slope", "0"],
    )
    assert result.exit_code == 1


@pytest.mark.parametrize("window", ["-1", "nan", "inf"])
def test_cli_run_rejects_a_slope_window_that_is_negative_or_not_finite(tmp_path, window):
    text = MINIMAL.replace("m_list = 2, 4, 8", f"m_list = 2, 4, 8\noutput = {tmp_path / 'out'}")
    args = ["run", str(write_cfg(tmp_path, text)), "--cache-root", str(tmp_path / "cache")]
    result = CliRunner().invoke(main, [*args, "--tolerance-slope", window])
    assert result.exit_code == 2
    assert "configuration error: slope_window must be finite and nonnegative" in result.output
    assert not (tmp_path / "out").exists()


def test_cli_run_exit_two_on_config_error(tmp_path):
    cfg_path = write_cfg(tmp_path, MINIMAL.replace("manifold = cp1", "manifold = torus"))
    result = CliRunner().invoke(main, ["run", str(cfg_path)])
    assert result.exit_code == 2
    assert "configuration error" in result.output


def test_cli_run_rejects_a_duplicate_symbol_name_and_keeps_one_of_each_check(tmp_path):
    # a symbol named twice would write each of its rows and plot files twice; a check named twice runs once
    checks = f"checks = norms, trace, norms\noutput = {tmp_path / 'out'}\nsymbols = height, height"
    text, args = MINIMAL.replace("checks = norms", checks), ["--cache-root", str(tmp_path / "cache")]
    result = CliRunner().invoke(main, ["run", str(write_cfg(tmp_path, text)), *args])
    assert result.exit_code == 2
    assert "configuration error: [experiment] symbols: duplicate symbol name(s) ['height']" in result.output
    assert not (tmp_path / "out").exists()
    text = text.replace("symbols = height, height", "symbols = height")
    result = CliRunner().invoke(main, ["run", str(write_cfg(tmp_path, text)), *args])
    assert result.exit_code == 0
    rows = (tmp_path / "out" / "tables.csv").read_text().splitlines()[1:]
    assert len(rows) == len(set(rows)) == 6  # norms and trace at m = 2, 4, 8


@pytest.mark.parametrize("check", ["norms", "dirac", "spectrum", "tuynman"])
def test_cli_run_rejects_a_non_real_symbol(tmp_path, check):
    text = MINIMAL.replace("1 1 1 1 0 1", "1 1 1 1 1 1")  # (1+i) t/(1+t)
    text = text.replace("checks = norms", f"checks = {check}\noutput = {tmp_path / 'out'}")
    cfg_path = write_cfg(tmp_path, text.replace("m_list = 2, 4, 8", "m_list = 2, 4, 8, 16"))
    result = CliRunner().invoke(main, ["run", str(cfg_path), "--cache-root", str(tmp_path / "cache")])
    assert result.exit_code == 2
    assert "configuration error" in result.output
    assert "'height'" in result.output and f"'{check}'" in result.output


def test_cli_run_has_no_jobs_option(tmp_path):
    text = MINIMAL.replace("m_list = 2, 4, 8", f"m_list = 2, 4, 8\noutput = {tmp_path / 'out'}")
    result = CliRunner().invoke(main, ["run", str(write_cfg(tmp_path, text)), "--jobs", "3"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--jobs" in result.output
    assert not (tmp_path / "out").exists()


def test_cli_run_exit_three_on_internal_error(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path, MINIMAL)
    import btlab.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "run_experiment", boom)
    result = CliRunner().invoke(main, ["run", str(cfg_path)])
    assert result.exit_code == 3
    assert "internal error" in result.output


def test_cli_assemble_builtin(tmp_path):
    result = CliRunner().invoke(main, ["assemble", "height", "2"])
    assert result.exit_code == 0
    assert "0.25" in result.output


def test_cli_assemble_unknown_symbol():
    result = CliRunner().invoke(main, ["assemble", "nope", "2"])
    assert result.exit_code == 2


def test_cli_assemble_into_cache(tmp_path):
    result = CliRunner().invoke(main, ["assemble", "height", "3", "--out", str(tmp_path / "cache")])
    assert result.exit_code == 0
    assert list((tmp_path / "cache").glob("toeplitz-m3-*.mat"))


def test_cli_assemble_prequantum(tmp_path):
    result = CliRunner().invoke(
        main, ["assemble", "xcoord", "2", "--kind", "prequantum", "--out", str(tmp_path / "cache")]
    )
    assert result.exit_code == 0
    assert list((tmp_path / "cache").glob("prequantum-m2-*.mat"))


def test_cli_assemble_rejects_prequantum_level_zero():
    result = CliRunner().invoke(main, ["assemble", "height", "0", "--kind", "prequantum"])
    assert result.exit_code == 2
    assert "configuration error: level m must be >= 1" in result.output


def test_cli_assemble_rejects_prequantum_of_a_non_real_symbol(tmp_path):
    cfg_path = write_cfg(tmp_path, NON_REAL)  # the assembler, not the norms check, rejects the symbol
    result = CliRunner().invoke(
        main, ["assemble", "height", "2", "--config", str(cfg_path), "--kind", "prequantum"]
    )
    assert result.exit_code == 2
    assert "configuration error: prequantum_geometric requires a real symbol" in result.output


def test_cli_assemble_toeplitz_ignores_the_experiment_checks(tmp_path):
    cfg_path = write_cfg(tmp_path, NON_REAL)  # norms needs real symbols; toeplitz does not
    result = CliRunner().invoke(main, ["assemble", "height", "2", "--config", str(cfg_path), "--kind", "toeplitz"])
    assert result.exit_code == 0, result.output
    assert "0.25+0.25j" in result.output


def test_cli_assemble_reads_a_file_of_symbol_sections_only(tmp_path):
    cfg_path = write_cfg(tmp_path, NON_REAL[NON_REAL.index("[symbol") :])
    result = CliRunner().invoke(main, ["assemble", "height", "2", "--config", str(cfg_path), "--kind", "toeplitz"])
    assert result.exit_code == 0, result.output
    assert "0.25+0.25j" in result.output


def test_cli_assemble_rejects_a_name_the_config_does_not_define(tmp_path):
    result = CliRunner().invoke(main, ["assemble", "ghost", "2", "--config", str(write_cfg(tmp_path, MINIMAL))])
    assert result.exit_code == 2
    assert "configuration error: symbol 'ghost' not defined in" in result.output


def test_cli_assemble_rejects_a_malformed_terms_line(tmp_path):
    cfg_path = write_cfg(tmp_path, MINIMAL.replace("1 1 1 1 0 1", "1 1 1 1 0"))
    result = CliRunner().invoke(main, ["assemble", "height", "2", "--config", str(cfg_path)])
    assert result.exit_code == 2
    assert "configuration error" in result.output and "6 fields" in result.output


def test_report_json_schema_and_report_command(tmp_path):
    text = FULL.format(out=tmp_path / "out").replace("m_list = 8, 16, 32, 64", "m_list = 2, 4, 8, 16")
    text = text.replace("product, sass2, ", "").replace("tuynman, staraxioms, ", "")
    report, _ = run_experiment(parse_config(write_cfg(tmp_path, text)), cache_root=tmp_path / "cache")
    data = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(data) == {
        "experiment", "manifold", "seed", "m_list", "calibration", "versions", "checks", "counters", "timings",
        "status",
    }
    assert set(data["checks"]) == {"norms", "dirac", "trace", "spectrum", "equivalence"}
    assert set(data["counters"]) == {"assemblies", "cache_hits", "cache_corruptions"}
    assert set(data["timings"]) == set(data["checks"])
    fits = []
    for name, outcome in data["checks"].items():
        assert set(outcome) == {"status", "details", "tables"}
        assert outcome["status"] == report.checks[name].status
        for table in outcome["tables"]:
            assert set(table) == {"name", "records", "fit"}
            assert all(len(record) == 2 for record in table["records"])
            if table["fit"] is not None:
                assert set(table["fit"]) == {"slope", "intercept", "residual", "n_used", "exact_identity"}
                fits.append((table["name"], table["fit"]))
    assert {fit["exact_identity"] for _, fit in fits} == {False, True}  # both kinds of report line
    result = CliRunner().invoke(main, ["report", str(tmp_path / "out")])
    assert result.exit_code == 0
    for name, fit in fits:
        line = f"{name:20s} exact identity" if fit["exact_identity"] else f"{name:20s} slope {fit['slope']:+.3f}"
        assert line in result.output


def _strict_json(text: str):
    """json.loads, refusing the NaN/Infinity tokens that strict JSON readers reject."""

    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def test_full_report_is_strict_json(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, FULL.format(out=tmp_path / "out")))
    _, code = run_experiment(cfg, cache_root=tmp_path / "cache")
    assert code == 0
    data = _strict_json((tmp_path / "out" / "report.json").read_text())
    spectrum = data["checks"]["spectrum"]
    exact = [table for table in spectrum["tables"] if table["fit"]["exact_identity"]]
    assert {table["name"] for table in exact} == {"xcoord-k1", "xcoord-k3"}
    for table in exact:
        assert table["fit"]["slope"] is None and table["fit"]["intercept"] is None
        assert spectrum["details"][table["name"]]["slope"] is None
    result = CliRunner().invoke(main, ["report", str(tmp_path / "out")])
    assert result.exit_code == 0
    assert f"{'xcoord-k1':20s} exact identity" in result.output


def test_cli_report_needs_a_report_json(tmp_path):
    result = CliRunner().invoke(main, ["report", str(tmp_path)])
    assert result.exit_code == 2
    assert f"no report.json in {tmp_path}" in result.output


def test_cache_dir_variable_sets_the_default_root(tmp_path, monkeypatch):
    root = tmp_path / "env-cache"
    monkeypatch.setenv("BTLAB_CACHE_DIR", str(root))
    assert default_cache_root() == root
    f = sphere_height()
    MatrixCache().store(toeplitz_exact(f, 2), symbol_hash(f), "toeplitz")
    result = CliRunner().invoke(main, ["cache", "clear"])
    assert result.exit_code == 0
    assert f"removed 1 cached matrices from {root}" in result.output
    assert not list(root.glob("*.mat"))


def test_cli_report_and_cache_clear(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, MINIMAL))
    cfg.output = tmp_path / "out"
    run_experiment(cfg, cache_root=tmp_path / "cache")
    runner = CliRunner()
    result = runner.invoke(main, ["report", str(tmp_path / "out")])
    assert result.exit_code == 0 and "status     : pass" in result.output
    result = runner.invoke(main, ["cache", "clear", "--cache-root", str(tmp_path / "cache")])
    assert result.exit_code == 0 and "removed" in result.output
    assert not list((tmp_path / "cache").glob("*.mat"))
