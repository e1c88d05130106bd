"""Config parsing, matrix cache, runner determinism, CLI exit codes."""

import errno
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
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from assembly_reference import nonzeros, values
from btlab.cache import MatrixCache, default_cache_root, symbol_hash
from btlab.cli import main
from btlab.config import parse_config
from btlab.errors import CacheCorruption, ValidationError
from btlab.forkmap import fork_map
from btlab.operators import OperatorMatrix, hermitian_eigenvalues, operator_norm, prequantum_geometric, toeplitz_exact
from btlab.runner import Assembler, run as run_experiment
from btlab import operators, runner, semiclassics
from btlab.semiclassics import moment_limit, spectral_moment
from btlab.symbols import random_real_symbol, sphere_coord_x, sphere_height

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

BUMP = MINIMAL.replace("m_list = 2, 4, 8", "m_list = 2, 4, 8\nsymbols = bump") + """
[symbol bump]
R = 2
terms =
    0 0 1 2 0 1
    1 1 -1 3 0 1
    2 1 0 1 1 4
    1 2 0 1 -1 4
"""

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


# a section [symbol a b] before MINIMAL's height, renamed a_b: two names that one plot file name would serve
SPACED_AND_JOINED = """[symbol a b]
R = 0
terms =
    0 0 1 1 0 1

[symbol a_b]"""


def write_cfg(tmp_path: Path, text: str, name: str = "exp.cfg") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


def _fresh_env(**overrides: str | None) -> dict:
    """The environment of a fresh btlab process: this one's, with ``src`` on PYTHONPATH and the variables set to
    the given values, or removed for None."""
    src = str(Path(runner.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.update(overrides)
    return {name: value for name, value in env.items() if value is not None}


def _patch_check(monkeypatch, name: str, **fields) -> None:
    """Replace fields of one ``runner.CHECKS`` record for the test."""
    monkeypatch.setitem(runner.CHECKS, name, replace(runner.CHECKS[name], **fields))


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
        ("[symbol height]", "[symbol a,b]", r"\[symbol a,b\]: symbol section needs a name of letters"),
        ("[symbol height]", "[symbol a-b]", r"\[symbol a-b\]: symbol section needs a name of letters"),
        ("[symbol height]", SPACED_AND_JOINED, r"\[symbol a b\]: symbol section needs a name of letters"),
    ],
    ids=[
        "terms-value", "terms-zero-den", "negative-exponent", "duplicate-monomial", "bad-section", "unnamed-symbol",
        "symbol-key", "experiment-key", "R-value", "negative-R", "no-experiment", "m_list-value", "empty-m_list",
        "no-symbols", "duplicate-symbol", "comma-name", "dash-name", "space-and-underscore-names",
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


@pytest.mark.parametrize("name", [name for name, check in runner.CHECKS.items() if check.fits])
def test_parse_rejects_slope_checks_with_short_sweep(tmp_path, name):
    bad = MINIMAL.replace("checks = norms", f"checks = {name}")
    with pytest.raises(ValidationError, match="at least 4 levels"):
        parse_config(write_cfg(tmp_path, bad))


def test_parse_accepts_exactly_the_checks_of_the_records(tmp_path):
    names = list(runner.CHECKS)
    assert names == [
        "norms", "dirac", "product", "sass2", "trace", "spectrum", "tuynman", "staraxioms", "equivalence",
    ]
    text = MINIMAL.replace("m_list = 2, 4, 8", "m_list = 2, 4, 8, 16")
    for name in names:
        assert parse_config(write_cfg(tmp_path, text.replace("checks = norms", f"checks = {name}"))).checks == [name]
    bad = text.replace("checks = norms", "checks = norms, wibble")
    with pytest.raises(ValidationError) as caught:
        parse_config(write_cfg(tmp_path, bad))
    assert str(caught.value) == f"unknown check name(s) ['wibble']; known checks: {', '.join(names)}"


def test_the_records_say_which_checks_need_four_levels_or_real_symbols(tmp_path, monkeypatch):
    # trace fits no slope and takes complex symbols, until its record says otherwise
    short = MINIMAL.replace("checks = norms", "checks = trace")
    non_real = NON_REAL.replace("checks = norms", "checks = trace").replace("m_list = 2, 4, 8", "m_list = 2, 4, 8, 16")
    assert parse_config(write_cfg(tmp_path, short)).m_list == [2, 4, 8]
    assert not parse_config(write_cfg(tmp_path, non_real)).symbols["height"].is_real
    with monkeypatch.context() as patched:
        _patch_check(patched, "trace", fits=True)
        with pytest.raises(ValidationError, match=r"checks \['trace'\] fit slopes and need at least 4 levels"):
            parse_config(write_cfg(tmp_path, short))
        assert parse_config(write_cfg(tmp_path, non_real)).checks == ["trace"]
    _patch_check(monkeypatch, "trace", real=True)
    with pytest.raises(ValidationError, match=r"checks \['trace'\] need real symbols"):
        parse_config(write_cfg(tmp_path, non_real))
    assert parse_config(write_cfg(tmp_path, short)).checks == ["trace"]


def test_parse_keeps_the_first_of_a_check_named_twice(tmp_path):
    text = MINIMAL.replace("checks = norms", "checks = trace, norms, trace")
    assert parse_config(write_cfg(tmp_path, text)).checks == ["trace", "norms"]


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
    with pytest.raises(ValidationError):
        parse_config(write_cfg(tmp_path, "not an ini file at all\n===\n"))


def test_parse_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        parse_config(tmp_path / "absent.cfg")


# -- cache ---------------------------------------------------------------------


def test_cache_roundtrip_is_exact(tmp_path):
    f = sphere_height()
    mat = toeplitz_exact(f, 8)
    cache = MatrixCache(tmp_path / "cache")
    cache.store(mat, f, "toeplitz")
    again = cache.load(f, "toeplitz", 8)
    assert again is not None
    assert np.max(np.abs(again.entries - mat.entries)) == 0.0
    assert again.kernel is not None and again.kernel == mat.kernel


def test_cache_miss_returns_none(tmp_path):
    cache = MatrixCache(tmp_path / "cache")
    assert cache.load(sphere_height(), "toeplitz", 4) is None


# the bytes of the two files of the demo bump at level 4: a cache written before stays readable only while these hold
BUMP_FILES = {
    "toeplitz": "btlab-matrix 4\nkind toeplitz\nm 4\n"
    "source 34612269e7cfb30b7c61f4fddd94b4be42e0184430d691f68a41ef063890d351\n"
    "checksum ac79b78f2b4e1967820dce235c5cf3936fcef08696eaa66510c40411806a1cf7\n"
    "diagonals 3\nden 504\n-1 4 0 -6,-12,-6\n0 5 160,-72,20 0\n1 4 0 24,3,-6\n",
    "prequantum": "btlab-matrix 4\nkind prequantum\nm 4\n"
    "source 34612269e7cfb30b7c61f4fddd94b4be42e0184430d691f68a41ef063890d351\n"
    "checksum 2ea430ce43c9cac89469a44cb62c39f31aad949e11828cbc2114e128b2bf2a9d\n"
    "diagonals 3\nden 1008\n-1 4 9,39,30 0\n0 5 0 464,-276,100\n1 4 -36,-36,30 0\n",
}


def test_cache_files_keep_their_names_and_bytes(tmp_path):
    bump = parse_config(write_cfg(tmp_path, BUMP)).symbols["bump"]
    cache = MatrixCache(tmp_path / "cache")
    for kind, build in (("toeplitz", toeplitz_exact), ("prequantum", prequantum_geometric)):
        mat = build(bump, 4)
        path = cache.store(mat, bump, kind)
        assert path.name == f"{kind}-m4-{symbol_hash(bump)[:32]}.mat"
        assert path.read_text() == BUMP_FILES[kind]
        assert cache.load(bump, kind, 4).kernel == mat.kernel


def _set_first_value(lines: list[str], field: int, value) -> None:
    """Set the first value of one field of the first diagonal line ``d n re im``: d, n, or a column's first entry."""
    fields = lines[7].split(" ")
    fields[field] = ",".join([str(value), *fields[field].split(",")[1:]])
    lines[7] = " ".join(fields)


def _tamper_first_entry(path: Path) -> None:
    lines = path.read_text().splitlines()
    _set_first_value(lines, 2, int(lines[7].split(" ")[2].split(",")[0]) + 1)
    path.write_text("\n".join(lines) + "\n")


def _rewrite_with_checksum(path: Path, edit) -> None:
    """Apply ``edit`` to the file's lines, then make the checksum (over the ``den`` line
    and the diagonal lines) consistent again, so only the load's own checks can reject it."""
    lines = path.read_text().splitlines()
    edit(lines)
    block = "\n".join(lines[6:])
    lines[4] = f"checksum {hashlib.sha256(block.encode()).hexdigest()}"
    path.write_text("\n".join(lines) + "\n")


def test_cache_detects_tampering(tmp_path):
    f = sphere_height()
    cache = MatrixCache(tmp_path / "cache")
    path = cache.store(toeplitz_exact(f, 4), f, "toeplitz")
    _tamper_first_entry(path)
    with pytest.raises(CacheCorruption):
        cache.load(f, "toeplitz", 4)


def test_assembler_recovers_from_corruption(tmp_path, caplog):
    f = sphere_height()
    cache = MatrixCache(tmp_path / "cache")
    path = cache.store(toeplitz_exact(f, 4), f, "toeplitz")
    _tamper_first_entry(path)
    asm = Assembler(cache)
    mat = asm.toeplitz(f, 4)
    assert [event for _, event in asm.log] == ["corrupt", "assembled"]
    assert np.max(np.abs(mat.entries - toeplitz_exact(f, 4).entries)) == 0.0
    assert any(r.name == "btlab" and "recomputing" in r.getMessage() for r in caplog.records)


def _store_repeatedly(root: Path, start, times: int) -> None:
    f = sphere_height()
    mat = toeplitz_exact(f, 16)
    cache = MatrixCache(root)
    start.wait()
    for _ in range(times):
        cache.store(mat, f, "toeplitz")


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
    again, fresh = MatrixCache(tmp_path / "cache").load(f, "toeplitz", 16), toeplitz_exact(f, 16)
    assert again is not None and again.kernel == fresh.kernel
    assert np.array_equal(again.entries, fresh.entries)
    assert not list((tmp_path / "cache").glob("*.tmp"))


def _partial_write(write_text):
    def write(path, text):  # a full disk: the write stops part way
        write_text(path, text[:20])
        raise OSError(errno.ENOSPC, "No space left on device")

    return write


def _failed_rename(src, dst):
    raise OSError(errno.EXDEV, "Invalid cross-device link")


@pytest.mark.parametrize(
    "target, name, failure",
    [(Path, "write_text", _partial_write(Path.write_text)), (os, "replace", _failed_rename)],
    ids=["full-disk", "failed-rename"],
)
def test_a_failed_store_leaves_no_temp_file(tmp_path, monkeypatch, target, name, failure):
    f = sphere_height()
    cache = MatrixCache(tmp_path / "cache")
    monkeypatch.setattr(target, name, failure)
    with pytest.raises(OSError):
        cache.store(toeplitz_exact(f, 4), f, "toeplitz")
    monkeypatch.undo()
    assert list(cache.root.iterdir()) == []


def test_cache_clear_removes_the_temp_file_of_a_killed_writer(tmp_path):
    # a writer killed between its write and its rename, as fork_map's cleanup kills workers, leaves its temp file
    f = sphere_height()
    cache = MatrixCache(tmp_path / "cache")
    path = cache.store(toeplitz_exact(f, 4), f, "toeplitz")
    path.with_name(f"{path.name}.4242.tmp").write_text(path.read_text()[:40])
    (cache.root / "notes.txt").write_text("not the cache's\n")
    assert cache.clear() == 1
    assert [p.name for p in cache.root.iterdir()] == ["notes.txt"]


def test_a_cache_file_has_about_the_same_size_at_every_level(tmp_path):
    # each diagonal is stored as its Newton column: R + 1 ints per part whatever the level, which only widen
    bump = parse_config(write_cfg(tmp_path, BUMP)).symbols["bump"]
    cache = MatrixCache(tmp_path / "cache")
    small, large = (cache.store(toeplitz_exact(bump, m), bump, "toeplitz") for m in (16, 1024))
    assert large.stat().st_size <= 1.5 * small.stat().st_size


def test_cache_rejects_out_of_range_index(tmp_path):
    # a diagonal d holds at most m + 1 - |d| cells at level m, and at least one
    f = sphere_height()
    cache = MatrixCache(tmp_path / "cache")
    for d, n in [(5, 1), (-5, 1), (0, 6), (1, 5), (-4, 2), (0, 0), (0, -1)]:
        path = cache.store(toeplitz_exact(f, 4), f, "toeplitz")
        _rewrite_with_checksum(path, lambda lines: lines.__setitem__(7, f"{d} {n} 1 0"))
        with pytest.raises(CacheCorruption, match="out of range"):
            cache.load(f, "toeplitz", 4)


@pytest.mark.parametrize("value", ["1/0", "1/-2", "x", "", "1.5", "1/2"])
def test_cache_rejects_a_malformed_value(tmp_path, value):
    # a checksum-consistent file whose first value is no plain integer, in each field of a diagonal line
    f = sphere_height()
    cache = MatrixCache(tmp_path / "cache")
    for field in range(4):
        path = cache.store(toeplitz_exact(f, 4), f, "toeplitz")
        _rewrite_with_checksum(path, lambda lines: _set_first_value(lines, field, value))
        with pytest.raises(CacheCorruption):
            cache.load(f, "toeplitz", 4)


def _scale_kernel(lines: list[str], factor: int) -> None:
    """Multiply the den line and every Newton column entry by ``factor``: the same rationals."""
    lines[6] = f"den {int(lines[6].split()[1]) * factor}"
    for i in range(7, len(lines)):
        d, n, *columns = lines[i].split(" ")
        lines[i] = " ".join([d, n, *(",".join(str(int(v) * factor) for v in c.split(",")) for c in columns)])


def _add_zero_diagonal(lines: list[str]) -> None:
    # a diagonal of one zero cell, which no kernel stores
    lines[5] = f"diagonals {int(lines[5].split()[1]) + 1}"
    lines.append("1 1 0 0")


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: _scale_kernel(lines, 2),
        lambda lines: _scale_kernel(lines, -1),
        lambda lines: lines.__setitem__(6, "den 0"),
        _add_zero_diagonal,
        lambda lines: lines.__setitem__(7, "0 2 1,-1 0"),  # cells 1 and 0
    ],
    ids=["not-in-lowest-terms", "negative-den", "zero-den", "zero-entry", "trailing-zero-cell"],
)
def test_cache_rejects_a_kernel_that_is_not_canonical(tmp_path, edit):
    # a kernel a fresh assembly never gives, even when it holds the same rationals, is corrupt
    f = sphere_height()
    cache = MatrixCache(tmp_path / "cache")
    path = cache.store(toeplitz_exact(f, 4), f, "toeplitz")
    _rewrite_with_checksum(path, edit)
    with pytest.raises(CacheCorruption):
        cache.load(f, "toeplitz", 4)


def _assert_recomputed_with_one_warning(cache: MatrixCache, f, m: int, caplog, message: str) -> None:
    """The file at (f, toeplitz, m) is corrupt, for ``message``; the Assembler warns once, recomputes and
    overwrites it."""
    mat = toeplitz_exact(f, m)
    with pytest.raises(CacheCorruption, match=message):
        cache.load(f, "toeplitz", m)
    asm = Assembler(cache)
    with caplog.at_level(logging.WARNING, logger="btlab"):
        again = asm.toeplitz(f, m)
    assert asm.log == [((f, "toeplitz", m), "corrupt"), ((f, "toeplitz", m), "assembled")]
    [record] = caplog.records
    assert record.name == "btlab" and record.levelno == logging.WARNING
    assert message in record.getMessage() and record.getMessage().endswith("; recomputing")
    assert again.kernel == mat.kernel
    assert cache.load(f, "toeplitz", m).kernel == mat.kernel


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
    cache.path_for(f, "toeplitz", 4).write_text("\n".join(header) + "\n" + block + "\n")
    _assert_recomputed_with_one_warning(cache, f, 4, caplog, "bad magic line")


def test_assembler_recomputes_a_format_3_file(tmp_path, caplog):
    # format 3 wrote one line ``j k re im`` of plain ints per nonzero entry, under the den line
    f = sphere_height()
    kernel = toeplitz_exact(f, 4).kernel
    cache = MatrixCache(tmp_path / "cache")
    entries = [f"{j} {k} {re} {im}" for j, k, re, im in nonzeros(kernel)]
    block = "\n".join([f"den {kernel.den}", *entries])
    header = [
        "btlab-matrix 3",
        "kind toeplitz",
        "m 4",
        f"source {symbol_hash(f)}",
        f"checksum {hashlib.sha256(block.encode()).hexdigest()}",
        f"entries {len(entries)}",
    ]
    cache.root.mkdir(parents=True)
    cache.path_for(f, "toeplitz", 4).write_text("\n".join(header) + "\n" + block + "\n")
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
    cache.path_for(f, "toeplitz", 4).write_text("\n".join(header) + "\n" + block + "\n")
    _assert_recomputed_with_one_warning(cache, f, 4, caplog, "bad magic line")


def _duplicate_first_diagonal(lines: list[str]) -> None:
    lines[5] = f"diagonals {int(lines[5].split()[1]) + 1}"
    lines.insert(8, lines[7])


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines.__setitem__(1, "kind prequantum"), "header kind mismatch"),
        (lambda lines: lines.__setitem__(2, "m 5"), "header m mismatch"),
        (lambda lines: lines.__setitem__(3, f"source {'0' * 64}"), "header source mismatch"),
        (lambda lines: lines.__setitem__(6, lines[6].replace("den", "dem")), "no den line"),
        (lambda lines: lines.__setitem__(5, "diagonals 2"), "diagonal count mismatch"),
        (lambda lines: lines.__setitem__(5, "diagonals 0"), "diagonal count mismatch"),
        (_duplicate_first_diagonal, "diagonal 0 given twice"),
        (lambda lines: lines.__setitem__(7, "0 2 1,2,3 0"), "column longer than its 2 cells"),
    ],
    ids=["kind", "level", "source", "den-tag", "count-above", "count-below", "duplicate-entry", "long-column"],
)
def test_assembler_recomputes_a_file_that_fails_a_load_check(tmp_path, caplog, edit, message):
    # each file is checksum-consistent, so only the load's own checks can reject it
    f = sphere_height()
    cache = MatrixCache(tmp_path / "cache")
    _rewrite_with_checksum(cache.store(toeplitz_exact(f, 4), f, "toeplitz"), edit)
    _assert_recomputed_with_one_warning(cache, f, 4, caplog, message)


def test_assembler_counts_hits(tmp_path):
    f = sphere_height()
    cache = MatrixCache(tmp_path / "cache")
    cold = Assembler(cache)
    cold.toeplitz(f, 6)
    assert cold.log == [((f, "toeplitz", 6), "assembled")]
    warm = Assembler(cache)
    warm.toeplitz(f, 6)
    warm.toeplitz(f, 6)  # second call served from the in-memory memo, which logs nothing
    assert warm.log == [((f, "toeplitz", 6), "loaded")]


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
    # a norm above sup|f| by more than NORM_TOL = 1e-9 fails the check
    norm = operator_norm(toeplitz_exact(sphere_height(), 8))
    _patch_check(monkeypatch, "norms", base=lambda cfg: {"height": norm - excess})
    cfg = parse_config(write_cfg(tmp_path, MINIMAL))
    report, got = run_experiment(cfg, cache_root=tmp_path / "cache", out=tmp_path / "out")
    assert got == code and report.checks["norms"].status == ("fail" if code else "pass")


@pytest.mark.parametrize("deficit, code", [(2e-9, 1), (0.5e-9, 0)])
def test_norms_check_fails_when_a_norm_falls_below_the_diagonal(tmp_path, monkeypatch, deficit, code):
    # height's norm is its largest diagonal entry (m+1)/(m+2); a norm below it by more than NORM_TOL fails the check
    def row(cfg, assembler, m):
        return {name: (norm - deficit, lower) for name, (norm, lower) in runner._norms_row(cfg, assembler, m).items()}

    _patch_check(monkeypatch, "norms", row=row)
    cfg = parse_config(write_cfg(tmp_path, MINIMAL))
    report, got = run_experiment(cfg, cache_root=tmp_path / "cache", out=tmp_path / "out")
    assert got == code and report.checks["norms"].status == ("fail" if code else "pass")
    assert report.checks["norms"].details["height"]["lower_bound"] == 9 / 10  # at m = 8, the largest level


def test_a_pair_check_with_one_symbol_pairs_it_with_itself(tmp_path):
    text = MINIMAL.replace("checks = norms", "checks = dirac, product")
    cfg = parse_config(write_cfg(tmp_path, text.replace("m_list = 2, 4, 8", "m_list = 2, 4, 8, 16")))
    report, _ = run_experiment(cfg, cache_root=tmp_path / "cache", out=tmp_path / "out")
    for name in ("dirac", "product"):
        assert [table.name for table in report.checks[name].tables] == ["height-height"]
        assert list(report.checks[name].details) == ["height-height"]


def test_every_slope_check_reports_the_same_detail_keys(tmp_path):
    names = [name for name, check in runner.CHECKS.items() if check.fits]
    text = MINIMAL.replace("checks = norms", f"checks = {', '.join(names)}")
    cfg = parse_config(write_cfg(tmp_path, text.replace("m_list = 2, 4, 8", "m_list = 2, 4, 8, 16")))
    report, _ = run_experiment(cfg, cache_root=tmp_path / "cache", out=tmp_path / "out")
    keys = {"slope", "threshold", "exact_identity", "K_max_scaled"}
    for name in names:
        outcome = report.checks[name]
        assert list(outcome.details) == [table.name for table in outcome.tables]
        for details in outcome.details.values():
            assert set(details) == keys | ({"limit"} if name == "spectrum" else set())
    dirac = report.checks["dirac"].details["height-height"]  # [T_h, T_h] and {h, h} are exact zeros
    assert dirac["exact_identity"] is True and dirac["slope"] is None


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


def test_a_symbol_written_in_another_term_order_writes_the_same_tables(tmp_path):
    # equal symbols give equal floats: sup_norm, and so the norms rows, read the value and not the order of its terms
    f = random_real_symbol(0, 3)
    lines = [
        f"    {a} {b} {c.re.numerator} {c.re.denominator} {c.im.numerator} {c.im.denominator}\n"
        for (a, b), c in f.terms.items()
    ]
    written = []
    for i, order in enumerate((lines, lines[::-1])):
        text = MINIMAL.replace("m_list = 2, 4, 8", "m_list = 2, 4, 8\nsymbols = r0")
        cfg = parse_config(write_cfg(tmp_path, f"{text}\n[symbol r0]\nR = {f.denom_exp}\nterms =\n{''.join(order)}"))
        cfg.output = tmp_path / f"out{i}"
        run_experiment(cfg, cache_root=tmp_path / f"cache{i}")
        written.append((cfg.output / "tables.csv").read_bytes())
    assert written[0] == written[1]


def test_checks_share_one_memo(tmp_path):
    text = MINIMAL.replace("checks = norms", "checks = norms, spectrum, trace")
    cfg = parse_config(write_cfg(tmp_path, text.replace("m_list = 2, 4, 8", "m_list = 2, 4, 8, 16")))
    cfg.output = tmp_path / "out"
    report, code = run_experiment(cfg, cache_root=tmp_path / "cache")
    assert code == 0
    assert report.counters["assemblies"] == 4  # one T_height per level, shared by all three checks


def test_spectrum_runs_one_eigensolve_per_level(tmp_path, monkeypatch):
    calls = tmp_path / "calls"
    monkeypatch.setattr(runner, "hermitian_eigenvalues", _counting(hermitian_eigenvalues, calls))
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


def test_tridiagonal_spectrum_runs_one_real_eigensolve_per_level(tmp_path, monkeypatch):
    # T_bump is tridiagonal with imaginary off-diagonal entries: its spectrum comes from the real eigensolver
    dtypes = tmp_path / "dtypes"
    eigvalsh = np.linalg.eigvalsh

    def logging_eigvalsh(a, *args, **kwargs):
        with open(dtypes, "a") as out:
            out.write(a.dtype.char)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", logging_eigvalsh)
    text = BUMP.replace("checks = norms", "checks = spectrum").replace("m_list = 2, 4, 8", "m_list = 16, 32, 64, 128")
    cfg = parse_config(write_cfg(tmp_path, text))
    _, code = run_experiment(cfg, cache_root=tmp_path / "cache", out=tmp_path / "out")
    assert code == 0
    assert dtypes.read_text() == "dddd"  # one float64 eigvalsh per level


def test_band_routes_write_the_dense_bytes(tmp_path, monkeypatch):
    text = BUMP.replace("checks = norms", "checks = norms, dirac, product, sass2, trace, spectrum")
    text = text.replace("m_list = 2, 4, 8", "m_list = 16, 32, 64, 128")
    text = text.replace("symbols = bump", "symbols = height, bump")
    cfg_path = write_cfg(tmp_path, text)

    def run_files(name: str) -> dict:
        out = tmp_path / name
        _, code = run_experiment(parse_config(cfg_path), cache_root=tmp_path / f"cache-{name}", out=out)
        assert code == 0
        return {path.relative_to(out): path.read_bytes() for path in [out / "tables.csv", *out.glob("plots/*")]}

    with monkeypatch.context() as refused:  # every float operation takes the dense LAPACK or BLAS call
        refused.setattr(operators, "_real_diagonal", lambda x: None)
        refused.setattr(operators, "_tridiagonal", lambda x: False)
        dense = run_files("dense")
    entries = OperatorMatrix.entries.func

    def no_diagonal_floats(mat):
        assert any(d for d, _ in mat.kernel.diags), f"dense float matrix of a diagonal level-{mat.m} operator"
        return entries(mat)

    monkeypatch.setattr(OperatorMatrix, "entries", property(no_diagonal_floats))  # forked workers inherit the patch
    assert run_files("banded") == dense


def test_diagonal_operators_run_past_the_float_underflow(tmp_path):
    # a real diagonal operator's norm, spectrum and trace read no basis norm, which underflows from m = 1071
    def cli_run(text: str):
        args = ["run", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")]
        return CliRunner().invoke(main, [*args, "--cache-root", str(tmp_path / "cache")])

    height = MINIMAL.replace("checks = norms", "checks = norms, spectrum, trace")
    result = cli_run(height.replace("m_list = 2, 4, 8", "m_list = 16, 32, 64, 1100"))
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "out" / "tables.csv").read_text().splitlines()
    assert [row.split(",")[1] for row in rows].count("1100") == 5  # norms, three moments and trace
    result = cli_run(BUMP.replace("m_list = 2, 4, 8", "m_list = 16, 32, 64, 1100"))
    assert result.exit_code == 2
    assert "configuration error: a basis norm underflows to 0.0 at level 1100" in result.output


def test_cli_run_exits_two_at_a_level_whose_basis_norm_underflows_and_three_on_any_other_error(tmp_path, monkeypatch):
    def cli_run(text: str):
        args = ["run", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")]
        return CliRunner().invoke(main, [*args, "--cache-root", str(tmp_path / "cache")])

    result = cli_run(BUMP.replace("m_list = 2, 4, 8", "m_list = 1100"))
    assert result.exit_code == 2
    assert "configuration error: a basis norm underflows to 0.0 at level 1100" in result.output

    def broken(cfg):
        raise ArithmeticError("no such sup")

    _patch_check(monkeypatch, "norms", base=broken)
    result = cli_run(BUMP)
    assert result.exit_code == 3
    assert "internal error: no such sup" in result.output


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

    _patch_check(monkeypatch, "norms", row=boom)
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
import dataclasses, os, signal, sys
from btlab import cli, runner
os.sched_getaffinity = lambda pid: {0, 1}  # two workers, so the rows never run in this process
norms = runner.CHECKS["norms"]
runner.CHECKS["norms"] = dataclasses.replace(norms, row=lambda cfg, assembler, m: os.kill(os.getpid(), signal.SIGKILL))
cli.main(sys.argv[1:])
"""


def test_a_worker_that_dies_makes_the_run_raise(tmp_path, monkeypatch):
    _usable_cpus(monkeypatch, 2)
    caller = os.getpid()

    def die(cfg, assembler, m):
        if os.getpid() == caller:
            raise AssertionError("a row ran in the calling process")
        os.kill(os.getpid(), signal.SIGKILL)

    _patch_check(monkeypatch, "norms", row=die)
    cfg_path = write_cfg(tmp_path, MINIMAL.replace("checks = norms", "checks = norms, trace"))
    with pytest.raises(RuntimeError, match=r"worker process \d+ died \(signal 9\)"):
        runner.execute(parse_config(cfg_path))
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)
    result = subprocess.run(
        [sys.executable, "-c", _KILL_EVERY_NORMS_WORKER, "run", str(cfg_path), "--out", str(tmp_path / "out")]
        + ["--cache-root", str(tmp_path / "cache")],
        capture_output=True,
        text=True,
        timeout=60,
        env=_fresh_env(),
    )
    assert result.returncode == 3, result.stderr
    assert "internal error: worker process" in result.stderr


def test_one_worker_forks_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("one worker started a process or opened a pipe")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(os, "pipe", refuse)
    assert fork_map(lambda x: x * x, [3, 1, 2], 1) == [9, 1, 4]

    def boom(x):
        raise KeyError(x)

    with pytest.raises(KeyError, match="5"):
        fork_map(boom, [5], 1)


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    src = Path(runner.__file__).resolve().parents[1]
    probe = (
        "import sys, btlab; "
        "print(btlab.__version__, btlab.__file__, [m for m in sys.modules if m.startswith('btlab.') or m == 'numpy'])"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=_fresh_env())
    assert result.returncode == 0, result.stderr
    version, path, loaded = result.stdout.split(" ", 2)
    assert version == "0.1.0" and Path(path).resolve().parent == src / "btlab"
    assert loaded.strip() == "[]"


def test_the_blas_variables_change_no_output_byte(tmp_path):
    # importing btlab pins BLAS to one thread before numpy loads, whatever the environment says; LAPACK's last bits
    # can change with the thread count, and m = 128 is where norms:bump and product:bump-height differ between one
    # and two BLAS threads
    demo = (Path(__file__).resolve().parent.parent / "bench" / "configs" / "demo.cfg").read_text()
    cfg_path = write_cfg(tmp_path, demo.replace("m_list = 16, 32, 64, 128, 256", "m_list = 16, 32, 64, 128"))
    files = {}
    for threads in (None, "1", "2"):
        out = tmp_path / f"out-{threads}"
        result = subprocess.run(
            [sys.executable, "-m", "btlab.cli", "run", str(cfg_path), "--out", str(out)]
            + ["--cache-root", str(tmp_path / f"cache-{threads}")],
            capture_output=True,
            text=True,
            timeout=120,
            env=_fresh_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
        )
        assert result.returncode == 0, result.stderr
        versions = json.loads((out / "report.json").read_text())["versions"]
        assert versions["OPENBLAS_NUM_THREADS"] == versions["OMP_NUM_THREADS"] == "1"
        paths = [out / "tables.csv", *out.glob("plots/*")]
        files[threads] = {path.relative_to(out): path.read_bytes() for path in paths}
    assert files[None] == files["1"] == files["2"]
    # numpy loaded first has read the variables already, so btlab leaves them as set and report.json records the
    # values BLAS runs with
    probe = "import os, numpy, btlab; print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env=_fresh_env(OPENBLAS_NUM_THREADS="3", OMP_NUM_THREADS="3"),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["3", "3"]


def test_a_run_with_no_disk_cache_loads_neither_hashlib_nor_logging(tmp_path):
    # hashlib (OpenSSL) hashes cache files only and logging warns of a corrupt one only; pytest itself imports
    # both, so a fresh process runs the lean path: execute plus write_report, as a run with no cache does
    text = MINIMAL.replace("checks = norms", "checks = norms, dirac, trace, spectrum, tuynman")
    cfg_path = write_cfg(tmp_path, text.replace("m_list = 2, 4, 8", "m_list = 2, 4, 8, 16"))
    probe = (
        "import sys; from btlab import config, runner; "
        "report = runner.execute(config.parse_config(sys.argv[1])); runner.write_report(report, sys.argv[2]); "
        "print(report.status, [m for m in ('hashlib', '_hashlib', 'logging') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, str(cfg_path), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=60,
        env=_fresh_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["pass", "[]"]
    assert (tmp_path / "out" / "tables.csv").exists()


def test_pooled_counters_count_a_corrupt_file_once(tmp_path, monkeypatch):
    # both workers need every T_height; execute counts each key of the tasks' logs once, as a serial run does
    _usable_cpus(monkeypatch, 2)
    f = sphere_height()
    _tamper_first_entry(MatrixCache(tmp_path / "cache").store(toeplitz_exact(f, 4), f, "toeplitz"))
    text = MINIMAL.replace("checks = norms", "checks = norms, spectrum, trace")
    cfg_path = write_cfg(tmp_path, text.replace("m_list = 2, 4, 8", "m_list = 2, 4, 8, 16"))
    cold, code = run_experiment(parse_config(cfg_path), cache_root=tmp_path / "cache", out=tmp_path / "cold")
    assert code == 0 and cold.versions["workers"] == 2
    assert cold.counters == {"assemblies": 4, "cache_hits": 0, "cache_corruptions": 1}
    warm, code = run_experiment(parse_config(cfg_path), cache_root=tmp_path / "cache", out=tmp_path / "warm")
    assert code == 0
    assert warm.counters == {"assemblies": 0, "cache_hits": cold.counters["assemblies"], "cache_corruptions": 0}


def test_a_cache_less_run_computes_no_digest(tmp_path, monkeypatch):
    # the memo and its key sets hold the symbol itself; only a cache file name needs the symbol's digest
    _usable_cpus(monkeypatch, 2)
    cfg = parse_config(write_cfg(tmp_path, FULL.format(out=tmp_path / "out")))
    want = runner.execute(cfg)

    def refuse(f):
        raise AssertionError("a symbol digest was computed")

    monkeypatch.setattr("btlab.cache.symbol_hash", refuse)
    monkeypatch.setattr("btlab.runner.symbol_hash", refuse, raising=False)  # a module that imports it binds its own
    got = runner.execute(cfg)  # forked workers inherit the patch
    assert got.versions["workers"] == 2
    assert {n: c.tables for n, c in got.checks.items()} == {n: c.tables for n, c in want.checks.items()}
    assert got.counters == want.counters


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


def test_a_run_into_an_old_output_directory_leaves_no_stale_plot(tmp_path):
    # the second run has no bump tables, so no bump plot may stay
    text = BUMP.replace("checks = norms", "checks = norms, trace").replace("symbols = bump", "symbols = height, bump")
    out = tmp_path / "out"
    for symbols in ("height, bump", "height"):
        cfg = parse_config(write_cfg(tmp_path, text.replace("symbols = height, bump", f"symbols = {symbols}")))
        _, code = run_experiment(cfg, cache_root=tmp_path / "cache", out=out)
        assert code == 0
    assert sorted(path.name for path in (out / "plots").iterdir()) == ["norms_height.dat", "trace_height.dat"]
    assert {row.split(",")[0] for row in (out / "tables.csv").read_text().splitlines()[1:]} == {
        "norms:height",
        "trace:height",
    }


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
    text = FULL.format(out=tmp_path / "out").replace("seed = 7", "seed = 7\nslope_window = 0")
    cfg_path = write_cfg(tmp_path, text)
    runner = CliRunner()
    result = runner.invoke(main, ["run", str(cfg_path), "--cache-root", str(tmp_path / "cache")])
    assert result.exit_code == 1


def test_cli_run_rejects_two_symbol_names_that_would_share_a_plot_file(tmp_path):
    # "a b" and "a_b" would both write plots/norms_a_b.dat; the name grammar rejects the first before any work
    text = MINIMAL.replace("[symbol height]", SPACED_AND_JOINED)
    text = text.replace("m_list = 2, 4, 8", f"m_list = 2, 4, 8\noutput = {tmp_path / 'out'}")
    result = CliRunner().invoke(main, ["run", str(write_cfg(tmp_path, text)), "--cache-root", str(tmp_path / "cache")])
    assert result.exit_code == 2
    assert "configuration error: [symbol a b]: symbol section needs a name" in result.output
    assert not (tmp_path / "out").exists() and not (tmp_path / "cache").exists()


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


def test_cli_assemble_prequantum(tmp_path):
    result = CliRunner().invoke(main, ["assemble", "xcoord", "2", "--kind", "prequantum"])
    assert result.exit_code == 0
    with np.printoptions(precision=8, suppress=True, linewidth=120):
        assert result.output == f"{prequantum_geometric(sphere_coord_x(), 2).entries}\n"


def test_cli_assemble_exits_two_at_a_level_whose_basis_norm_underflows(tmp_path):
    # the exact kernel is built; its floats are not, and the level is what the user gave
    result = CliRunner().invoke(main, ["assemble", "bump", "1100", "--config", str(write_cfg(tmp_path, BUMP))])
    assert result.exit_code == 2
    assert "configuration error: a basis norm underflows to 0.0 at level 1100" in result.output


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
    slopes = {}  # a fit is recorded in the details of its table alone
    for name, outcome in data["checks"].items():
        assert set(outcome) == {"status", "details", "tables"}
        assert outcome["status"] == report.checks[name].status
        for table in outcome["tables"]:
            assert set(table) == {"name", "records"}
            assert all(len(record) == 2 for record in table["records"])
            if runner.CHECKS[name].fits:
                slopes[table["name"]] = outcome["details"][table["name"]]["slope"]
    assert {slope is None for slope in slopes.values()} == {False, True}  # both kinds of report line
    result = CliRunner().invoke(main, ["report", str(tmp_path / "out")])
    assert result.exit_code == 0
    fit_lines = [line for line in result.output.splitlines() if line.startswith("    ")]
    assert fit_lines == [
        f"    {name:20s} exact identity" if slope is None else f"    {name:20s} slope {slope:+.3f}"
        for name, slope in slopes.items()
    ]


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
    exact = [name for name, detail in spectrum["details"].items() if detail["exact_identity"]]
    assert sorted(exact) == ["xcoord-k1", "xcoord-k3"]
    assert all(spectrum["details"][name]["slope"] is None for name in exact)
    result = CliRunner().invoke(main, ["report", str(tmp_path / "out")])
    assert result.exit_code == 0
    assert f"{'xcoord-k1':20s} exact identity" in result.output


def test_cli_report_needs_a_report_json(tmp_path):
    result = CliRunner().invoke(main, ["report", str(tmp_path)])
    assert result.exit_code == 2
    assert f"no report.json in {tmp_path}" in result.output


@pytest.mark.parametrize(
    "text, reason",
    [('{"experiment": "x"}', "KeyError: 'seed'"), ("not json", "JSONDecodeError: Expecting value")],
    ids=["missing-key", "not-json"],
)
def test_cli_report_rejects_a_report_json_it_cannot_read(tmp_path, text, reason):
    (tmp_path / "report.json").write_text(text)
    result = CliRunner().invoke(main, ["report", str(tmp_path)])
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.startswith(f"not a btlab report: {tmp_path / 'report.json'}: {reason}")


def test_cache_dir_variable_sets_the_default_root(tmp_path, monkeypatch):
    root = tmp_path / "env-cache"
    monkeypatch.setenv("BTLAB_CACHE_DIR", str(root))
    assert default_cache_root() == root
    f = sphere_height()
    MatrixCache().store(toeplitz_exact(f, 2), f, "toeplitz")
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
