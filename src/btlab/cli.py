"""Command line interface.

Subcommands: ``run`` an experiment config, ``assemble`` a single matrix,
``report`` a finished run directory, and ``cache clear``.  Exit codes of
``run``: 0 all checks pass, 1 a check failed, 2 configuration error,
3 internal error.
"""

from __future__ import annotations

import json
from pathlib import Path

import click
import numpy as np

from . import __version__
from .cache import CACHE_ENV, MatrixCache, default_cache_root, symbol_hash
from .config import BUILTIN_SYMBOLS, check_slope_window, parse_config, parse_symbols
from .errors import ParseError, ValidationError
from .operators import prequantum_geometric, toeplitz_exact
from .runner import run as run_experiment


@click.group()
@click.version_option(__version__)
def main():
    """Quantization experiments on the projective line."""


@main.command("run")
@click.argument("config_path", type=click.Path())
@click.option("--jobs", type=int, default=None, hidden=True, help="ignored; sweeps run in one thread")
@click.option("--out", type=click.Path(), default=None, help="Report directory (overrides config).")
@click.option("--tolerance-slope", type=float, default=None, help="Slope window (overrides config).")
@click.option("--cache-root", type=click.Path(), default=None, help=f"Cache directory (default ${CACHE_ENV} or ~/.cache/btlab).")
def run_cmd(config_path, jobs, out, tolerance_slope, cache_root):
    """Execute the checks described in CONFIG_PATH and write reports."""
    try:
        cfg = parse_config(config_path)
        if tolerance_slope is not None:
            cfg.slope_window = check_slope_window(tolerance_slope)
    except (ParseError, ValidationError) as exc:
        click.echo(f"configuration error: {exc}", err=True)
        raise SystemExit(2)
    try:
        report, code = run_experiment(
            cfg,
            cache_root=Path(cache_root) if cache_root else None,
            out=Path(out) if out else None,
        )
    except SystemExit:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        click.echo(f"internal error: {exc}", err=True)
        raise SystemExit(3)
    for name, outcome in report.checks.items():
        click.echo(f"{name:12s} {outcome.status}")
    click.echo(f"overall      {report.status}")
    raise SystemExit(code)


@main.command()
@click.argument("name")
@click.argument("m", type=int)
@click.option("--config", "config_path", type=click.Path(), default=None, help="Config defining NAME.")
@click.option("--kind", type=click.Choice(["toeplitz", "prequantum"]), default="toeplitz")
@click.option("--out", type=click.Path(), default=None, help="Cache directory to store into.")
def assemble(name, m, config_path, kind, out):
    """Assemble the operator matrix of symbol NAME at level M."""
    try:
        if config_path is not None:
            symbols = parse_symbols(config_path)
            if name not in symbols:
                raise ValidationError(f"symbol {name!r} not defined in {config_path}")
            f = symbols[name]
        elif name in BUILTIN_SYMBOLS:
            f = BUILTIN_SYMBOLS[name]()
        else:
            raise ValidationError(
                f"unknown symbol {name!r}; builtins: {', '.join(sorted(BUILTIN_SYMBOLS))} (or pass --config)"
            )
    except (ParseError, ValidationError) as exc:
        click.echo(f"configuration error: {exc}", err=True)
        raise SystemExit(2)
    try:
        mat = toeplitz_exact(f, m) if kind == "toeplitz" else prequantum_geometric(f, m)
        if out is not None:
            path = MatrixCache(Path(out)).store(mat, symbol_hash(f), kind)
            click.echo(f"stored {path}")
        else:
            with np.printoptions(precision=8, suppress=True, linewidth=120):
                click.echo(str(mat.entries))
    except ValueError as exc:  # the assemblers reject a level or a symbol given on the command line
        click.echo(f"configuration error: {exc}", err=True)
        raise SystemExit(2)
    except Exception as exc:  # pragma: no cover - defensive
        click.echo(f"internal error: {exc}", err=True)
        raise SystemExit(3)


@main.command("report")
@click.argument("directory", type=click.Path(exists=True))
def report_cmd(directory):
    """Summarize the report.json found in DIRECTORY."""
    path = Path(directory) / "report.json"
    if not path.exists():
        click.echo(f"no report.json in {directory}", err=True)
        raise SystemExit(2)
    data = json.loads(path.read_text())
    click.echo(f"experiment : {data['experiment']} (seed {data['seed']})")
    click.echo(f"levels     : {data['m_list']}")
    click.echo(f"calibration: {data['calibration']}")
    for name, outcome in data["checks"].items():
        click.echo(f"  {name:12s} {outcome['status']}")
        for table in outcome["tables"]:
            fit = table.get("fit")
            if fit and not fit.get("exact_identity"):
                click.echo(f"    {table['name']:20s} slope {fit['slope']:+.3f}")
            elif fit:
                click.echo(f"    {table['name']:20s} exact identity")
    click.echo(f"status     : {data['status']}")


@main.group()
def cache():
    """Matrix cache maintenance."""


@cache.command("clear")
@click.option("--cache-root", type=click.Path(), default=None)
def cache_clear(cache_root):
    """Remove every cached matrix file."""
    root = Path(cache_root) if cache_root else default_cache_root()
    removed = MatrixCache(root).clear()
    click.echo(f"removed {removed} cached matrices from {root}")


if __name__ == "__main__":
    main()
