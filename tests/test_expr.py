from __future__ import annotations

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisminimal import expr
from heisminimal.dual import Jet1, Jet2
from heisminimal.expr import (
    Bin,
    Call,
    ExprDomainError,
    ExprNameError,
    ExprSyntaxError,
    Neg,
    Num,
    Var,
    deriv,
    evaluate,
    jet_kernel,
    parse,
    to_text,
)


def ev(src, variables=(), **bindings):
    return evaluate(parse(src, variables), bindings)


def test_precedence():
    assert ev("2+3*4") == 14
    assert ev("(2+3)*4") == 20
    assert ev("2^3^2") == 512  # right-associative
    assert ev("-2^2") == -4  # unary minus binds looser than ^
    assert ev("2*-3") == -6
    assert ev("6/3/2") == 1.0  # left-associative
    assert ev("1 - 2 - 3") == -4


def test_constants_and_functions():
    assert math.isclose(ev("sin(pi/2)"), 1.0)
    assert math.isclose(ev("log(e)"), 1.0)
    assert math.isclose(ev("atan2(1, 1)"), math.pi / 4)
    assert ev("sgn(0)") == 0.0
    assert ev("sgn(-3)") == -1.0
    assert ev("abs(-2.5)") == 2.5


def test_fixture_height_expression():
    got = ev("1/5 - 1/5*cos(theta) + sin(theta)^2", ["theta"], theta=math.pi)
    assert math.isclose(got, 2 / 5, abs_tol=1e-15)


def test_eval_simple_surface():
    assert ev("x*y/2", ["x", "y"], x=2.0, y=3.0) == 3.0


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("2+*3")
    assert err.value.offset == 2
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("2+")
    with pytest.raises(ExprSyntaxError):
        parse("sin(1,2)")  # wrong arity
    with pytest.raises(ExprSyntaxError):
        parse("1 2")


def test_unknown_identifier_is_named():
    with pytest.raises(ExprNameError) as err:
        parse("frob(2)")
    assert "frob" in str(err.value)
    with pytest.raises(ExprNameError) as err:
        parse("x + 1", [])
    assert "x" in str(err.value)
    # declared variables parse fine
    parse("x + 1", ["x"])


def test_domain_errors_are_raised_not_nan():
    with pytest.raises(ExprDomainError):
        ev("sqrt(-1)")
    with pytest.raises(ExprDomainError):
        ev("log(0)")
    with pytest.raises(ExprDomainError):
        ev("(-2)^0.5")
    # integer exponents on negative bases are fine
    assert ev("(-2)^3") == -8.0


def test_deriv_basics():
    e = parse("x^2", ["x"])
    assert math.isclose(deriv(e, "x", 1, {"x": 3.0}), 6.0)
    e = parse("sin(theta)", ["theta"])
    assert abs(deriv(e, "theta", 2, {"theta": 0.0})) <= 1e-15
    e = parse("1/5 - 1/5*cos(theta) + sin(theta)^2", ["theta"])
    assert math.isclose(deriv(e, "theta", 1, {"theta": math.pi / 2}), 1 / 5, abs_tol=1e-14)
    with pytest.raises(ValueError):
        deriv(e, "theta", 3, {"theta": 0.0})


def test_deriv_matches_finite_differences():
    cases = [
        ("sin(3*t)*exp(t/2)", 0.8),
        ("atan2(sin(t), cos(t) - 0.3)", 1.1),
        ("sqrt(t^2 + 1)/(2 + cos(t))", -0.4),
        ("tan(t/4) + t^3", 2.0),
    ]
    h = 1e-5
    for src, at in cases:
        e = parse(src, ["t"])
        d = deriv(e, "t", 1, {"t": at})
        fd = (evaluate(e, {"t": at + h}) - evaluate(e, {"t": at - h})) / (2 * h)
        assert math.isclose(d, fd, rel_tol=1e-6, abs_tol=1e-8)


def test_deriv_linearity():
    a = parse("sin(t)*t", ["t"])
    b = parse("exp(-t^2)", ["t"])
    s = parse("sin(t)*t + exp(-t^2)", ["t"])
    at = {"t": 0.9}
    assert math.isclose(
        deriv(s, "t", 1, at), deriv(a, "t", 1, at) + deriv(b, "t", 1, at), abs_tol=1e-12
    )


def test_vectorized_evaluation():
    e = parse("sin(theta)^2 + cos(theta)^2", ["theta"])
    thetas = np.linspace(0, 2 * np.pi, 17)
    out = evaluate(e, {"theta": thetas})
    assert np.allclose(out, 1.0, atol=1e-15)


ROUNDTRIP_CASES = [
    "1/5 - 1/5*cos(theta) + sin(theta)^2",
    "-x^2 + 3*x*y - y^2/4",
    "atan2(y, x) * sqrt(x^2 + y^2)",
    "2^3^x",
    "-(x + y)*-3",
    "sgn(x)*abs(y) + exp(-x^2 - y^2)",
    "tan(x/5) + atan(y*2)",
    "1e-3*x + 2.5E2",
]


@pytest.mark.parametrize("src", ROUNDTRIP_CASES)
def test_serialization_roundtrip(src):
    e = parse(src, ["x", "y", "theta"])
    text = to_text(e)
    e2 = parse(text, ["x", "y", "theta"])
    rng = np.random.default_rng(7)
    for _ in range(20):
        env = {name: rng.uniform(0.1, 2.0) for name in ("x", "y", "theta")}
        assert math.isclose(evaluate(e, env), evaluate(e2, env), rel_tol=1e-14, abs_tol=1e-14)


@st.composite
def random_ast(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        leaf = draw(st.integers(0, 2))
        if leaf == 0:
            return expr.Num(draw(st.floats(-4, 4, allow_nan=False).map(lambda v: round(v, 3))))
        return expr.Var(draw(st.sampled_from(["x", "y"])))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return expr.Neg(draw(random_ast(depth=depth + 1)))
    if kind <= 3:
        op = draw(st.sampled_from(["+", "-", "*"]))
        return expr.Bin(op, draw(random_ast(depth=depth + 1)), draw(random_ast(depth=depth + 1)))
    if kind == 4:
        return expr.Call(draw(st.sampled_from(["sin", "cos", "atan"])),
                         (draw(random_ast(depth=depth + 1)),))
    return expr.Bin("^", draw(random_ast(depth=depth + 1)), expr.Num(draw(st.integers(0, 3)) * 1.0))


@given(random_ast())
@settings(max_examples=150, deadline=None)
def test_roundtrip_random_asts(tree):
    text = to_text(tree)
    back = parse(text, ["x", "y"])
    for ax, ay in [(0.3, 0.8), (-1.1, 0.5), (1.7, -0.2)]:
        v1 = evaluate(tree, {"x": ax, "y": ay})
        v2 = evaluate(back, {"x": ax, "y": ay})
        assert math.isclose(v1, v2, rel_tol=1e-14, abs_tol=1e-14)


def test_deriv_with_jets_through_atan2():
    # Gradient and Hessian of the helicoid height through the expression layer.
    from heisminimal.dual import Jet2

    e = parse("0.7*atan2(y, x) + 0.1", ["x", "y"])
    X, Y = Jet2.variables(1.0, 2.0)
    out = evaluate(e, {"x": X, "y": Y})
    rho2 = 5.0
    assert math.isclose(out.fx, 0.7 * (-2.0) / rho2, rel_tol=1e-12)
    assert math.isclose(out.fy, 0.7 * 1.0 / rho2, rel_tol=1e-12)
    # Laplacian of atan2 vanishes
    assert abs(out.fxx + out.fyy) <= 1e-12


# ---------------------------------------------------------------------------
# Compiled jets against evaluation over Jet1

SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, -2.5, 1e-200, 1e300,
           -1e300, 5e-324, math.pi, math.inf, -math.inf, math.nan]
EXPONENTS = [0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, -0.5, 2.5, 1.0 / 3.0,
             129.0, math.nan, math.inf]


def _jet_oracle(e, theta):
    """(f, d1, d2, d3) of ``e`` evaluated over Jet1.variable(theta)."""
    with np.errstate(all="ignore"):
        out = evaluate(e, {"theta": Jet1.variable(theta)})
    if isinstance(out, Jet1):
        return out.f, out.d1, out.d2, out.d3
    return out, 0.0, 0.0, 0.0


def _outcome(fn):
    try:
        return fn(), None
    except Exception as exc:  # compared by type and message
        return None, exc


def _bits(v, shape):
    a = np.array(np.broadcast_to(np.asarray(v, dtype=float), shape))
    return a.reshape(-1).view(np.uint64), np.isnan(a).reshape(-1)


def assert_same_bits(got, want, shape):
    """Bit for bit, signed zeros told apart, any NaN matching any NaN."""
    assert np.shape(got) == shape
    g, g_nan = _bits(got, shape)
    w, w_nan = _bits(want, shape)
    assert (g_nan == w_nan).all()
    assert (g[~g_nan] == w[~w_nan]).all()


def _assert_kernels_match(oracle, var, counts, e, *point):
    """At each order, the kernel's parts (or exception) are the oracle's."""
    want, want_exc = _outcome(lambda: oracle(e, *point))
    shape = np.shape(point[0])
    for order, count in enumerate(counts):
        got, got_exc = _outcome(lambda: jet_kernel((e,), var, order)(*point))
        if want_exc is not None:
            assert type(got_exc) is type(want_exc), (order, got_exc, want_exc)
            assert str(got_exc) == str(want_exc)
            continue
        assert got_exc is None, (order, got_exc)
        (parts,) = got
        assert len(parts) == count
        for p, w in zip(parts, want):
            assert_same_bits(p, w, shape)


def assert_kernel_matches_oracle(e, theta):
    _assert_kernels_match(_jet_oracle, "theta", (1, 2, 3, 4), e, theta)


def _exprs(variables=("theta",)):
    leaves = st.one_of(
        st.sampled_from([Var(name) for name in variables]),
        st.sampled_from(SPECIAL).map(Num),
        st.floats(-8, 8).map(Num),
    )

    def extend(kids):
        return st.one_of(
            kids.map(Neg),
            st.builds(Bin, st.sampled_from("+-*/"), kids, kids),
            st.builds(Bin, st.just("^"), kids,
                      st.one_of(st.sampled_from(EXPONENTS).map(Num), kids)),
            st.builds(lambda fn, a: Call(fn, (a,)),
                      st.sampled_from(["sin", "cos", "tan", "atan", "exp",
                                       "log", "sqrt", "abs", "sgn"]), kids),
            st.builds(lambda a, b: Call("atan2", (a, b)), kids, kids),
        )

    return st.recursive(leaves, extend, max_leaves=10)


def _thetas():
    values = st.one_of(st.sampled_from(SPECIAL), st.floats(-10, 10),
                       st.floats(allow_nan=True, allow_infinity=True))
    return st.one_of(
        st.lists(values, min_size=1, max_size=6).map(np.array),
        values.map(np.asarray),
        values,
        values.map(np.float64),
    )


@given(_exprs(), _thetas())
@settings(max_examples=400, deadline=None)
def test_kernel_matches_jet1_evaluation(e, theta):
    assert_kernel_matches_oracle(e, theta)


@pytest.mark.parametrize("src", [
    "1 - cos(theta)", "theta", "0", "theta / 0",
    "1/5 - 1/5*cos(theta) + sin(theta)^2",
    "sin(4*sin(theta)*(1 - cos(theta)))", "2^theta", "theta^theta",
    "(-2)^theta", "theta^0.5", "theta^-3", "log(theta) + sqrt(theta)",
    "atan2(theta, 1)", "abs(theta) * sgn(theta) - tan(theta) / atan(theta)",
    "exp(-theta^2) * e * pi",
])
def test_kernel_fixed_cases(src):
    e = parse(src, ("theta",))
    base = np.array([0.0, -0.0, 0.3, -1.2, 2.0, math.inf, math.nan, 1e300])
    for theta in (base, np.asarray(-0.0), -0.0, 0.0, 0.7, np.float64(-1.2)):
        assert_kernel_matches_oracle(e, theta)


def test_constant_minus_jet_keeps_the_sign_of_zero():
    # 1 - cos replays c - J as 0.0 - d1, which is +0.0 at theta = -0.0
    # where plain negation of d1 would give -0.0
    kernel = jet_kernel((parse("1 - cos(theta)", ("theta",)),), "theta", 1)
    (_, d1), = kernel(np.array([-0.0]))
    assert d1[0] == 0.0 and math.copysign(1.0, d1[0]) == 1.0


def test_kernel_never_returns_the_callers_array():
    theta = np.linspace(0.0, 1.0, 5)
    for src in ("theta", "theta^1", "+theta"):
        e = parse(src, ("theta",))
        for order in range(4):
            (parts,) = jet_kernel((e,), "theta", order)(theta)
            assert not np.shares_memory(parts[0], theta)
            for i, p in enumerate(parts):
                assert all(not np.shares_memory(p, q) for q in parts[i + 1:])
            parts[0][:] = -1.0
    assert (theta == np.linspace(0.0, 1.0, 5)).all()


def test_constant_expression_gives_fresh_arrays():
    theta = np.linspace(0.0, 1.0, 4)
    (parts,) = jet_kernel((parse("0", ("theta",)),), "theta", 3)(theta)
    for p in parts:
        assert p.shape == theta.shape and p.flags.writeable
        assert (p == 0.0).all()
    assert np.shape(jet_kernel((Num(2.5),), "theta", 0)(np.asarray(1.0))[0][0]) == ()


def test_division_by_a_zero_constant_raises_at_every_order():
    e = parse("theta / 0", ("theta",))
    for order in range(4):
        kernel = jet_kernel((e,), "theta", order)
        with pytest.raises(ZeroDivisionError):
            kernel(np.linspace(0.0, 1.0, 3))


def test_domain_errors_match_evaluation():
    cases = [("log(theta)", [0.5, 0.0]), ("sqrt(theta)", [1.0, -1.0]),
             ("theta^0.5", [1.0, -1.0]), ("theta^theta", [1.0, 0.0]),
             ("(-1)^theta", None)]
    for src, values in cases:
        e = parse(src, ("theta",))
        theta = np.array(values if values else [1.0])
        with pytest.raises(ExprDomainError) as oracle:
            _jet_oracle(e, theta)
        for order in range(4):
            with pytest.raises(ExprDomainError) as got:
                jet_kernel((e,), "theta", order)(theta)
            assert str(got.value) == str(oracle.value)


def test_truncated_kernels_skip_unread_parts():
    e = parse("sin(theta)", ("theta",))
    assert "np.cos" not in jet_kernel((e,), "theta", 0).source
    assert "np.cos" in jet_kernel((e,), "theta", 1).source


def test_kernel_cache_tells_signed_zero_constants_apart():
    # Num(0.0) == Num(-0.0) as dataclasses; the cache keys on repr
    theta = np.array([1.0])
    pos = jet_kernel((Bin("*", Var("theta"), Num(0.0)),), "theta", 0)(theta)
    neg = jet_kernel((Bin("*", Var("theta"), Num(-0.0)),), "theta", 0)(theta)
    assert math.copysign(1.0, pos[0][0][0]) == 1.0
    assert math.copysign(1.0, neg[0][0][0]) == -1.0


def test_several_expressions_share_one_kernel():
    es = tuple(parse(s, ("theta",)) for s in ("cos(theta)", "sin(theta)", "theta^2"))
    theta = np.linspace(-1.0, 1.0, 7)
    out = jet_kernel(es, "theta", 3)(theta)
    assert len(out) == 3
    for e, parts in zip(es, out):
        for p, w in zip(parts, _jet_oracle(e, theta)):
            assert_same_bits(p, w, theta.shape)
    with pytest.raises(ValueError):
        jet_kernel(es, "theta", 4)


# ---------------------------------------------------------------------------
# Compiled bivariate jets against evaluation over Jet2

def _jet2_oracle(e, x, y):
    """(f, fx, fy, fxx, fxy, fyy) of ``e`` over Jet2.variables(x, y)."""
    with np.errstate(all="ignore"):
        out = evaluate(e, dict(zip("xy", Jet2.variables(x, y))))
    if isinstance(out, Jet2):
        return out.f, out.fx, out.fy, out.fxx, out.fxy, out.fyy
    return out, 0.0, 0.0, 0.0, 0.0, 0.0


def assert_kernel2_matches_oracle(e, x, y):
    _assert_kernels_match(_jet2_oracle, ("x", "y"), (1, 3, 6), e, x, y)


def _points():
    """(x, y) of one kind and shape: arrays, 0-d arrays or scalars."""
    values = st.one_of(st.sampled_from(SPECIAL), st.floats(-10, 10),
                       st.floats(allow_nan=True, allow_infinity=True))
    arrays = st.integers(1, 6).flatmap(lambda n: st.tuples(
        *[st.lists(values, min_size=n, max_size=n).map(np.array)] * 2))
    return st.one_of(
        arrays,
        st.tuples(values.map(np.asarray), values.map(np.asarray)),
        st.tuples(values, values),
        st.tuples(values.map(np.float64), values.map(np.float64)),
    )


@given(_exprs(("x", "y")), _points())
@settings(max_examples=400, deadline=None)
def test_kernel_matches_jet2_evaluation(e, point):
    assert_kernel2_matches_oracle(e, *point)


@pytest.mark.parametrize("src", [
    "0", "x", "y", "x*y/2", "-x*y/2", "0.7*atan2(y, x) + 0.1", "x / 0",
    "x^2 - y^2", "y^x", "(x - y)^0.5", "log(x*y) + sqrt(y)",
    "1/(x^0 - 1)", "abs(x)*sgn(y) - tan(x)/atan(y)", "exp(-x^2 - y^2)",
])
def test_kernel2_fixed_cases(src):
    e = parse(src, ("x", "y"))
    xs = np.array([0.0, -0.0, 0.3, -1.2, 2.0, math.inf, math.nan, 1e300])
    for x, y in ((xs, xs[::-1].copy()), (np.asarray(-0.0), np.asarray(0.0)),
                 (0.0, -0.0), (0.7, 0.0), (np.float64(-1.2), np.float64(2.0))):
        assert_kernel2_matches_oracle(e, x, y)


def test_kernel2_binds_names_in_the_order_given():
    e = parse("x^3*y + sin(y)", ("x", "y"))
    x, y = np.linspace(-1.0, 1.0, 5), np.linspace(0.5, 2.0, 5)
    (swapped,) = jet_kernel((e,), ("y", "x"), 1)(y, x)
    (f, fx, fy), = jet_kernel((e,), ("x", "y"), 1)(x, y)
    assert_same_bits(swapped[0], f, x.shape)
    assert_same_bits(swapped[1], fy, x.shape)
    assert_same_bits(swapped[2], fx, x.shape)
    with pytest.raises(ValueError):
        jet_kernel((e,), ("x", "y"), 3)


def test_kernel_frees_locals_after_their_last_read():
    # holding every local until the return would need several times the
    # memory of evaluating the tree over Jet2
    e = parse("0.7*atan2(y, x) + 0.1*x^2*y", ("x", "y"))
    x, y = np.meshgrid(np.linspace(0.1, 1.0, 100), np.linspace(0.1, 1.0, 100))
    kernel = jet_kernel((e,), ("x", "y"), 2)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: kernel(x, y)) <= 1.5 * peak(lambda: _jet2_oracle(e, x, y))


# ---------------------------------------------------------------------------
# Guard: the consumers run on compiled kernels only

SRC = Path(__file__).resolve().parent.parent / "src" / "heisminimal"


@pytest.mark.parametrize("name", ["plateau.py", "ruled.py", "graph.py"])
def test_consumers_do_not_use_jet1(name):
    tree = ast.parse((SRC / name).read_text())
    modules = [node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)]
    assert "dual" not in modules
    assert not [m for m in modules if m and m.endswith(".dual")]
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"_jet_parts", "_jet1_arrays"}


def test_jet_rules_have_one_copy():
    # the kernels trace dual.py's rules; expr.py keeps no rules of its own
    tree = ast.parse((SRC / "expr.py").read_text())
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not [name for name in defined if name.startswith("_k_")]
    assigned = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assert not (defined | assigned) & {"_K_UNARY", "_np"}
