import ast
import itertools
import math
import sys
from pathlib import Path

import pytest

import corralign
from corralign.laws import exact_second_moment


def _recurrence_second_moments(n_max: int, d: float, rho2: float) -> list[float]:
    """E0 L^2 for n = 1 .. n_max from the cycle index of S_n: with
    eps_l = (1 - rho^(2l))^(-d) - 1, g_0 = 1 and m g_m = sum_{l <= m} eps_l g_{m-l},
    E0 L^2(n) = sum_{m <= n} g_m."""
    eps = [0.0] + [math.expm1(-d * math.log1p(-(rho2**ell))) for ell in range(1, n_max + 1)]
    g = [1.0]
    for m in range(1, n_max + 1):
        g.append(sum(eps[ell] * g[m - ell] for ell in range(1, m + 1)) / m)
    return list(itertools.accumulate(g))[1:]


@pytest.mark.parametrize("d", [1, 5, 20, 100])
@pytest.mark.parametrize("rho2", [0.001, 0.01, 0.1, 0.3, 0.6])
def test_second_moment_matches_cycle_index_recurrence(d, rho2):
    for n, ref in enumerate(_recurrence_second_moments(10, d, rho2), start=1):
        got = exact_second_moment(n, d, rho2)
        assert math.isinf(got) == math.isinf(ref), (n, got, ref)
        if math.isfinite(ref):
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0), n


def _imports(source: str) -> set[str]:
    """What a module imports: the top-level name of each absolute import, and
    each package module of a relative one, with its leading dot."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level:
            found |= ({"." + node.module} if node.module
                      else {"." + alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module.split(".")[0])
    return found


def test_exact_laws_live_only_in_laws():
    """A second copy of the exact laws must not creep back, and ``laws`` stays
    below ``bounds``, ``detect`` and ``oracle`` in the import graph."""
    sources = {p.name: p.read_text() for p in Path(corralign.__file__).parent.glob("*.py")}
    for needle in ("def quadratic_form_tail", "def exact_second_moment", "TAIL_NODE_CAP =",
                   "SECOND_MOMENT_CAP ="):
        assert [name for name, text in sources.items() if needle in text] == ["laws.py"]
    outside = _imports(sources["laws.py"]) - set(sys.stdlib_module_names)
    assert outside <= {"numpy", ".core", ".errors"}
    for name in ("bounds.py", "detect.py"):
        assert ".oracle" not in _imports(sources[name])
    assert ".laws" in _imports(sources["oracle.py"])

