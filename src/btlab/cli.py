"""Command line interface.

Subcommands: ``run`` an experiment config, ``assemble`` and print a single
matrix, ``report`` a finished run directory, and ``cache clear``.  Exit codes
of ``run``: 0 all checks pass, 1 a check failed, 2 configuration error,
3 internal error.  ``assemble`` and ``report`` exit 2 on input they cannot
use: a bad symbol or level, or a directory without a readable report.json.
"""

from __future__ import annotations

import json
from pathlib import Path

import click
import numpy as np

from . import __version__
from .cache import CACHE_ENV, MatrixCache, default_cache_root
from .config import BUILTIN_SYMBOLS, parse_config, parse_symbols
from .errors import ValidationError
from .operators import prequantum_geometric, toeplitz_exact
from .runner import run as run_experiment


@click.group()
@click.version_option(__version__)
def main():
    """Quantization experiments on the projective line."""


@main.command("run")
@click.argument("config_path", type=click.Path())
@click.option("--out", type=click.Path(), default=None, help="Report directory (overrides config).")
@click.option("--cache-root", type=click.Path(), default=None, help=f"Cache directory (default ${CACHE_ENV} or ~/.cache/btlab).")
def run_cmd(config_path, out, cache_root):
    """Execute the checks described in CONFIG_PATH and write reports."""
    try:
        cfg = parse_config(config_path)
    except ValidationError as exc:
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
def assemble(name, m, config_path, kind):
    """Assemble the operator matrix of symbol NAME at level M and print its float entries."""
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
    except ValidationError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        raise SystemExit(2)
    try:
        mat = toeplitz_exact(f, m) if kind == "toeplitz" else prequantum_geometric(f, m)
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
    try:
        data = json.loads(path.read_text())
        lines = [
            f"experiment : {data['experiment']} (seed {data['seed']})",
            f"levels     : {data['m_list']}",
            f"calibration: {data['calibration']}",
        ]
        for name, outcome in data["checks"].items():
            lines.append(f"  {name:12s} {outcome['status']}")
            for table in outcome["tables"]:
                fit = table.get("fit")
                if fit and not fit.get("exact_identity"):
                    lines.append(f"    {table['name']:20s} slope {fit['slope']:+.3f}")
                elif fit:
                    lines.append(f"    {table['name']:20s} exact identity")
        lines.append(f"status     : {data['status']}")
    except (ValueError, LookupError, TypeError, AttributeError) as exc:  # malformed JSON or not a report's shape
        click.echo(f"not a btlab report: {path}: {type(exc).__name__}: {exc}", err=True)
        raise SystemExit(2)
    click.echo("\n".join(lines))


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
