"""Every check can fail: one named mutant per law, with the exact set of checks it fails.

A mutant replaces one function on every module among ``runner``, ``semiclassics`` and ``starproduct`` that binds it
by name, before ``execute`` runs the README demo symbols at m = 16..128.
"""

from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from btlab import runner, semiclassics, starproduct
from btlab.config import parse_config
from btlab.exact import QC
from btlab.operators import operator_norm
from btlab.starproduct import coefficient, tau
from btlab.symbols import average, poisson_bracket

DEMO = Path(__file__).resolve().parents[1] / "bench" / "configs" / "demo.cfg"

MUTANTS = {  # name -> (function name, its replacement, the checks it must fail)
    "c1 -> 7fg": ("c1", lambda f, g: (f * g).scale(7), {"sass2", "staraxioms"}),
    "laplacian -> 3f": ("laplacian", lambda f: f.scale(3), {"tuynman"}),
    "{f,g} -> 2{f,g}": ("poisson_bracket", lambda f, g: poisson_bracket(f, g).scale(2), {"dirac"}),
    "average -> 1.001 average": ("average", lambda f: QC(Fraction(1001, 1000)) * average(f), {"trace", "spectrum"}),
    # a halved norm falls below the largest diagonal entry |a_jj|, the verdict's lower bound
    "norm -> norm/2": ("operator_norm", lambda x: operator_norm(x) / 2, {"norms"}),
    # d1's b-correction assumes C_0 is the pointwise product, so equivalence fails too
    "C_0 -> 2fg": (
        "coefficient",
        lambda k, f, g: (f * g).scale(2) if k == 0 else coefficient(k, f, g),
        {"product", "sass2", "equivalence"},
    ),
    "tau -> 2 tau": ("tau", lambda f, j: QC(2) * tau(f, j), {"trace"}),
}


@pytest.fixture(scope="module")
def failed_checks(tmp_path_factory):
    """The checks that fail under a mutant, each mutant run once per module."""
    path = tmp_path_factory.mktemp("mutations") / "demo.cfg"
    path.write_text(DEMO.read_text().replace("m_list = 16, 32, 64, 128, 256", "m_list = 16, 32, 64, 128"))
    cfg = parse_config(path)
    assert cfg.m_list == [16, 32, 64, 128]

    @cache
    def run(mutant: str | None) -> frozenset:
        with pytest.MonkeyPatch.context() as patch:
            if mutant is not None:
                name, replacement, _ = MUTANTS[mutant]
                bound = [module for module in (runner, semiclassics, starproduct) if hasattr(module, name)]
                assert bound, name
                for module in bound:
                    patch.setattr(module, name, replacement)
            report = runner.execute(cfg)
        return frozenset(name for name, out in report.checks.items() if out.status != "pass")

    return run


def test_the_unmutated_demo_passes(failed_checks):
    assert failed_checks(None) == set()


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_a_mutant_fails_exactly_its_checks(failed_checks, mutant):
    assert failed_checks(mutant) == MUTANTS[mutant][2]


def test_some_mutant_fails_the_equivalence_check(failed_checks):
    assert any("equivalence" in failed_checks(mutant) for mutant in MUTANTS)


@pytest.mark.xfail(
    strict=True,
    reason="equivalence compares d1 with c1 plus its own b-correction, so no error in c1, Delta or {f,g} fails it: "
    "ROADMAP items 16 and 5",
)
def test_a_c1_laplacian_or_bracket_mutant_fails_the_equivalence_check(failed_checks):
    laws = ("c1", "laplacian", "poisson_bracket")
    assert any("equivalence" in failed_checks(mutant) for mutant in MUTANTS if MUTANTS[mutant][0] in laws)
