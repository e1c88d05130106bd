"""Experiment configuration: a flat INI file with named sections.

Grammar (see README for a complete example)::

    [experiment]
    name = smoke                # optional, defaults to the file stem
    manifold = cp1              # required; only cp1 is supported
    checks = norms, dirac       # required, nonempty subset of runner.CHECKS
    m_list = 8, 16, 32, 64      # required, strictly increasing positive
    symbols = height, bump      # optional active subset with no name twice, defaults to all
    seed = 7                    # optional, drives random draws in checks
    slope_window = 0.15         # optional slope tolerance
    identity_tol = 1e-10        # accepted for old configs, not read
    output = runs/smoke         # optional report directory

    [symbol bump]               # one section per named symbol; a name is [A-Za-z0-9_.]+
    R = 2
    terms =
        0 0 1 2 0 1             # a b re_num re_den im_num im_den
        1 1 -1 3 0 1

Each ``terms`` line is one numerator monomial z^a zbar^b with coefficient
re_num/re_den + i*im_num/im_den; the symbol is N/(1+z*zbar)^R.  The
trailing ``#`` notes above annotate the grammar: in a config file a
comment must stand on a line of its own.

A symbol name goes into ``check:table`` labels, ``check_table.dat`` file
names and ``-``-joined pair labels, so letters, digits, ``_`` and ``.`` keep
each one safe and unambiguous.  Every default lives in ``parse_config``, and
every config error raises ``ValidationError``.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import NotSmoothAtInfinity, ValidationError
from .exact import QC
from .runner import CHECKS
from .semiclassics import MIN_FIT_LEVELS
from .symbols import CanonicalSymbol, sphere_coord_x, sphere_height, symbol

SUPPORTED_MANIFOLDS = ("cp1",)

BUILTIN_SYMBOLS = {
    "height": sphere_height,
    "xcoord": sphere_coord_x,
}

_EXPERIMENT_KEYS = {
    "name",
    "manifold",
    "checks",
    "m_list",
    "symbols",
    "seed",
    "slope_window",
    "identity_tol",
    "output",
}


@dataclass
class ExperimentConfig:
    name: str
    manifold: str
    checks: list[str]
    m_list: list[int]
    symbols: dict[str, CanonicalSymbol]
    active: list[str]
    seed: int
    slope_window: float
    output: Path

    def active_symbols(self) -> list[tuple[str, CanonicalSymbol]]:
        return [(name, self.symbols[name]) for name in self.active]


def _split_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.replace(",", " ").split() if item.strip()]


def _parse_terms(section: str, raw: str) -> dict[tuple[int, int], QC]:
    terms: dict[tuple[int, int], QC] = {}
    for lineno, line in enumerate(raw.strip().splitlines(), 1):
        fields = line.split()
        if len(fields) != 6:
            raise ValidationError(
                f"[{section}] terms line {lineno}: expected 6 fields "
                f"(a b re_num re_den im_num im_den), got {len(fields)}"
            )
        try:
            a, b = int(fields[0]), int(fields[1])
            coeff = QC(Fraction(int(fields[2]), int(fields[3])), Fraction(int(fields[4]), int(fields[5])))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"[{section}] terms line {lineno}: {exc}") from exc
        if a < 0 or b < 0:
            raise ValidationError(f"[{section}] terms line {lineno}: exponents must be >= 0")
        if (a, b) in terms:
            raise ValidationError(f"[{section}] terms line {lineno}: duplicate monomial ({a}, {b})")
        terms[(a, b)] = coeff
    return terms


def _read(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(strict=True)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ValidationError(str(exc)) from exc
    return parser


def _symbol_sections(parser: configparser.ConfigParser) -> dict[str, CanonicalSymbol]:
    symbols: dict[str, CanonicalSymbol] = {}
    for section in parser.sections():
        if section == "experiment":
            continue
        if not section.startswith("symbol "):
            raise ValidationError(f"unexpected section [{section}]; expected [experiment] or [symbol <name>]")
        name = section[len("symbol ") :]
        if not re.fullmatch(r"[A-Za-z0-9_.]+", name):
            raise ValidationError(f"[{section}]: symbol section needs a name of letters, digits, '_' and '.' only")
        body = parser[section]
        unknown = set(body) - {"r", "terms"}
        if unknown:
            raise ValidationError(f"[{section}]: unknown keys {sorted(unknown)}")
        try:
            r = int(body.get("R", "0"))
        except ValueError as exc:
            raise ValidationError(f"[{section}] R: {exc}") from exc
        if r < 0:
            raise ValidationError(f"[{section}] R must be >= 0")
        terms = _parse_terms(section, body.get("terms", ""))
        try:
            symbols[name] = symbol(terms, r)
        except NotSmoothAtInfinity as exc:
            raise ValidationError(f"[{section}]: {exc}") from exc
    return symbols


def parse_symbols(path: str | Path) -> dict[str, CanonicalSymbol]:
    """The ``[symbol <name>]`` sections of a config file, with no [experiment] checks."""
    return _symbol_sections(_read(Path(path)))


def parse_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    parser = _read(path)

    if "experiment" not in parser:
        raise ValidationError(f"{path}: missing [experiment] section")
    exp = parser["experiment"]
    unknown = set(exp) - _EXPERIMENT_KEYS
    if unknown:
        raise ValidationError(f"[experiment]: unknown keys {sorted(unknown)}")

    manifold = exp.get("manifold", "")
    if manifold not in SUPPORTED_MANIFOLDS:
        raise ValidationError(
            f"manifold {manifold!r} is not supported; supported manifolds: {', '.join(SUPPORTED_MANIFOLDS)}"
        )

    checks = list(dict.fromkeys(_split_list(exp.get("checks", ""))))  # a check named twice runs once
    if not checks:
        raise ValidationError("[experiment]: checks must be a nonempty list")
    bad = [c for c in checks if c not in CHECKS]
    if bad:
        raise ValidationError(f"unknown check name(s) {bad}; known checks: {', '.join(CHECKS)}")

    try:
        m_list = [int(tok) for tok in _split_list(exp.get("m_list", ""))]
    except ValueError as exc:
        raise ValidationError(f"[experiment] m_list: {exc}") from exc
    if not m_list:
        raise ValidationError("[experiment]: m_list must be nonempty")
    if any(m <= 0 for m in m_list) or m_list != sorted(set(m_list)):
        raise ValidationError(f"[experiment] m_list must be strictly increasing and positive, got {m_list}")

    symbols = _symbol_sections(parser)

    active = _split_list(exp.get("symbols", "")) or list(symbols)
    missing = [n for n in active if n not in symbols]
    if missing:
        raise ValidationError(f"unresolved symbol name(s) {missing}; defined: {sorted(symbols)}")
    if not active:
        raise ValidationError("no symbols defined; add at least one [symbol <name>] section")
    repeated = sorted({n for n in active if active.count(n) > 1})
    if repeated:  # each would write its rows and plot files twice
        raise ValidationError(f"[experiment] symbols: duplicate symbol name(s) {repeated}")

    try:
        seed = int(exp.get("seed", "0"))
        slope_window = float(exp.get("slope_window", "0.15"))
    except ValueError as exc:
        raise ValidationError(f"[experiment]: {exc}") from exc
    if not (math.isfinite(slope_window) and slope_window >= 0):
        raise ValidationError(f"slope_window must be finite and nonnegative, got {slope_window}")

    name = exp.get("name", path.stem)
    slope_checks = [c for c in checks if CHECKS[c].fits]
    if slope_checks and len(m_list) < MIN_FIT_LEVELS:
        raise ValidationError(f"checks {slope_checks} fit slopes and need at least {MIN_FIT_LEVELS} levels in m_list")
    real_checks = [c for c in checks if CHECKS[c].real]
    not_real = [n for n in active if not symbols[n].is_real]
    if real_checks and not_real:
        raise ValidationError(f"symbol(s) {not_real} are not real; checks {real_checks} need real symbols")

    return ExperimentConfig(
        name=name,
        manifold=manifold,
        checks=checks,
        m_list=m_list,
        symbols=symbols,
        active=active,
        seed=seed,
        slope_window=slope_window,
        output=Path(exp.get("output", f"runs/{name}")),
    )
