"""The shared zero scanner, and which modules may call scipy's root finders."""
import ast
import math
from pathlib import Path

import numpy as np
import pytest

from heisminimal import roots
from heisminimal.roots import scan_zeros

SRC = Path(__file__).resolve().parent.parent / "src" / "heisminimal"
TWO_PI = 2.0 * math.pi


def scan(f, nodes, **kw):
    kw.setdefault("xtol", 1e-12)
    kw.setdefault("merge_tol", 1e-9)
    return scan_zeros(f, nodes, f(nodes), **kw)


def test_transversal_zero_is_refined_by_brent():
    zeros, tang = scan(lambda x: x - 0.33, np.linspace(0.0, 1.0, 11))
    assert zeros.size == 1 and not tang[0]
    assert abs(zeros[0] - 0.33) <= 1e-12


def test_touch_search_skips_nodes_next_to_a_bracket(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("touch search ran beside a bracket")

    monkeypatch.setattr(roots, "minimize_scalar", refuse)
    zeros, tang = scan(lambda x: x - 0.33, np.linspace(0.0, 1.0, 11),
                       touch_tol=1e-9)
    assert zeros.size == 1 and not tang[0]


def test_tangential_touch_is_flagged():
    f = lambda x: (x - 0.37) ** 2  # noqa: E731
    nodes = np.linspace(0.0, 1.0, 21)
    zeros, tang = scan(f, nodes, xtol=1e-10, touch_tol=1e-9)
    assert zeros.size == 1 and tang[0]
    assert abs(zeros[0] - 0.37) <= 1e-6
    # without a touch tolerance a zero that never changes sign is missed
    assert scan(f, nodes)[0].size == 0


def test_wrap_around_cell_reports_in_base_period():
    # zeros at pi - d and 2 pi - d; the second lies in the cell that
    # closes the period, where brentq stops on its right end, 2 pi
    # itself, which is reported as 0
    d = 1e-13
    nodes = np.linspace(0.0, TWO_PI, 16, endpoint=False)
    zeros, tang = scan(lambda x: np.sin(x + d), nodes, period=TWO_PI)
    assert zeros.size == 2 and not tang.any()
    assert np.all((zeros >= 0.0) & (zeros < TWO_PI))
    gaps = np.abs(zeros[:, None] - np.array([math.pi - d, TWO_PI - d]))
    gaps = np.minimum(gaps, TWO_PI - gaps)
    assert gaps.min(axis=0).max() <= 1e-12


def test_touch_at_the_period_start_merges_across_the_wrap():
    nodes = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    zeros, tang = scan(lambda x: 1.0 - np.cos(x), nodes, period=TWO_PI,
                       xtol=1e-10, merge_tol=1e-7, touch_tol=1e-9)
    assert zeros.tolist() == [0.0] and tang.tolist() == [True]


def test_exact_grid_zero_at_an_open_end_is_transversal():
    nodes = np.linspace(0.0, 1.0, 11)
    for f, where in ((lambda x: x, 0.0), (lambda x: x - 1.0, 1.0)):
        zeros, tang = scan(f, nodes, touch_tol=1e-9)
        assert zeros.tolist() == [where] and tang.tolist() == [False]


def test_sign_change_lost_on_rescan_falls_back_to_the_node():
    # the grid pass rounded f(0.5) = 0 across zero; a scalar evaluation
    # does not confirm the bracket, so the node itself is the zero
    nodes = np.linspace(0.0, 1.0, 11)
    vals = nodes - 0.5
    vals[5] = -1e-17
    zeros, tang = scan_zeros(lambda x: x - 0.5, nodes, vals, xtol=1e-12,
                             merge_tol=1e-9)
    assert zeros.tolist() == [0.5] and tang.tolist() == [False]


def _imports(path):
    """(module, name) per imported name; name is None for ``import m``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            found += [(node.module or "", a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_the_scanner_imports_brentq(path):
    found = _imports(path)
    if path.name != "roots.py":
        assert "brentq" not in {name for _, name in found}
    if path.name in ("plateau.py", "ruled.py"):
        assert not [m for m, _ in found if m.startswith("scipy.optimize")]
