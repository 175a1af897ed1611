"""Tiny scalar expression language for ingesting surfaces and curves as text.

Grammar: numbers, declared variables, ``+ - * / ^`` (with ``^`` right
associative and binding tightest, then unary minus, then ``* /``, then
``+ -``), function calls over {sin, cos, tan, atan, atan2, exp, log, sqrt,
abs, sgn}, and the constants pi and e.

Evaluation is generic over the value type: plain floats, numpy arrays, or
the jets from dual.py.  Bivariate derivatives come from evaluating over
``Jet2``; univariate ones from ``jet_kernel``, which compiles expressions
once into straight-line numpy code replaying the ``Jet1`` rules (no
finite differences on either path).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import (Jet1, Jet2, _ones_like, _power, _zeros_like,
                   atan2_jet1, atan2_jet2)


class ExprError(ValueError):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class ExprNameError(ExprError):
    def __init__(self, name: str, offset: int | None = None):
        at = "" if offset is None else f" at offset {offset}"
        super().__init__(f"unknown identifier '{name}'{at}")
        self.name = name


class ExprDomainError(ExprError):
    pass


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Num(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Bin(Expr):
    op: str  # one of + - * / ^
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True, slots=True)
class Call(Expr):
    fn: str
    args: tuple

FUNCTIONS = {
    "sin": 1, "cos": 1, "tan": 1, "atan": 1, "atan2": 2,
    "exp": 1, "log": 1, "sqrt": 1, "abs": 1, "sgn": 1,
}
CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_OPS = set("+-*/^(),")


def _tokenize(src: str):
    tokens = []  # (kind, text_or_value, offset)
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == ".":
                j += 1
                while j < n and src[j].isdigit():
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            tokens.append(("num", float(src[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser: precedence climbing.

_LEFT_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_RIGHT_BP = {"+": 11, "-": 11, "*": 21, "/": 21, "^": 29}  # ^ right-associative
_UNARY_BP = 25  # between * / and ^


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = set(variables)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected '{op}'", off)
        return self.advance()

    def parse_expr(self, min_bp: int):
        node = self.parse_prefix()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text not in _LEFT_BP or _LEFT_BP[text] < min_bp:
                return node
            self.advance()
            rhs = self.parse_expr(_RIGHT_BP[text])
            node = Bin(text, node, rhs)

    def parse_prefix(self):
        kind, text, off = self.advance()
        if kind == "num":
            return Num(text)
        if kind == "op" and text == "-":
            return Neg(self.parse_expr(_UNARY_BP))
        if kind == "op" and text == "+":
            return self.parse_expr(_UNARY_BP)
        if kind == "op" and text == "(":
            node = self.parse_expr(0)
            self.expect_op(")")
            return node
        if kind == "ident":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    raise ExprNameError(text, off)
                self.advance()
                args = [self.parse_expr(0)]
                while True:
                    kind2, text2, off2 = self.peek()
                    if kind2 == "op" and text2 == ",":
                        self.advance()
                        args.append(self.parse_expr(0))
                    elif kind2 == "op" and text2 == ")":
                        self.advance()
                        break
                    else:
                        raise ExprSyntaxError("expected ',' or ')'", off2)
                if len(args) != FUNCTIONS[text]:
                    raise ExprSyntaxError(
                        f"{text} takes {FUNCTIONS[text]} argument(s), got {len(args)}", off)
                return Call(text, tuple(args))
            if text in CONSTANTS:
                return Num(CONSTANTS[text])
            if text in self.variables:
                return Var(text)
            raise ExprNameError(text, off)
        raise ExprSyntaxError("syntax error", off)


def parse(src: str, variables=()) -> Expr:
    """Parse ``src`` into an AST; only names in ``variables`` may appear."""
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(src), variables)
    node = parser.parse_expr(0)
    kind, _, off = parser.peek()
    if kind != "end":
        raise ExprSyntaxError("trailing input", off)
    return node


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(e: Expr, env: dict):
    """Evaluate over floats, arrays, or jets (whatever ``env`` carries)."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise ExprNameError(e.name) from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, Bin):
        lhs = evaluate(e.lhs, env)
        rhs = evaluate(e.rhs, env)
        if e.op == "+":
            return lhs + rhs
        if e.op == "-":
            return lhs - rhs
        if e.op == "*":
            return lhs * rhs
        if e.op == "/":
            return lhs / rhs
        return _pow_value(lhs, rhs)
    if isinstance(e, Call):
        args = [evaluate(a, env) for a in e.args]
        return _apply_function(e.fn, args)
    raise TypeError(f"not an expression node: {e!r}")


def _value_part(v):
    return v.f if isinstance(v, (Jet1, Jet2)) else v


def _pow_value(base, exponent):
    if isinstance(exponent, (Jet1, Jet2)):
        # Variable exponent: b^c = exp(c log b), requires positive base.
        bval = _value_part(base)
        if np.any(np.asarray(bval) <= 0.0):
            raise ExprDomainError("power with variable exponent needs positive base")
        if not isinstance(base, (Jet1, Jet2)):
            base = type(exponent).constant(base)
        return (exponent * base.log()).exp()
    c = float(exponent)
    non_integer = c != int(c)
    bval = np.asarray(_value_part(base))
    if non_integer and np.any(bval < 0.0):
        raise ExprDomainError("negative base with non-integer exponent")
    if isinstance(base, (Jet1, Jet2)):
        return _power(base, c)
    return np.power(base, c) if isinstance(base, np.ndarray) else float(np.power(bval, c))


def _apply_function(name: str, args):
    if name == "atan2":
        y, x = args
        if isinstance(y, Jet1) or isinstance(x, Jet1):
            y = y if isinstance(y, Jet1) else Jet1.constant(y)
            x = x if isinstance(x, Jet1) else Jet1.constant(x)
            return atan2_jet1(y, x)
        if isinstance(y, Jet2) or isinstance(x, Jet2):
            y = y if isinstance(y, Jet2) else Jet2.constant(y)
            x = x if isinstance(x, Jet2) else Jet2.constant(x)
            return atan2_jet2(y, x)
        out = np.arctan2(y, x)
        return out if isinstance(out, np.ndarray) else float(out)
    (v,) = args
    val = np.asarray(_value_part(v))
    if name == "log" and np.any(val <= 0.0):
        raise ExprDomainError("log of nonpositive value")
    if name == "sqrt" and np.any(val < 0.0):
        raise ExprDomainError("sqrt of negative value")
    if isinstance(v, (Jet1, Jet2)):
        return getattr(v, _JET_METHOD[name])()
    fn = _NUMERIC_FN[name]
    out = fn(v)
    return out if isinstance(out, np.ndarray) else float(out)


_JET_METHOD = {
    "sin": "sin", "cos": "cos", "tan": "tan", "atan": "atan",
    "exp": "exp", "log": "log", "sqrt": "sqrt", "abs": "absval", "sgn": "sgnval",
}
_NUMERIC_FN = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "atan": np.arctan,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs, "sgn": np.sign,
}


def deriv(e: Expr, var: str, order: int, bindings: dict):
    """Derivative of ``e`` with respect to ``var`` at ``bindings``.

    Forward-mode jets, order 1 or 2 per the public contract.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    env = {}
    for name, value in bindings.items():
        env[name] = Jet1.variable(value) if name == var else Jet1.constant(value)
    if var not in env:
        raise ExprNameError(var)
    out = evaluate(e, env)
    if not isinstance(out, Jet1):
        return 0.0  # expression does not involve var
    return out.d1 if order == 1 else out.d2


# ---------------------------------------------------------------------------
# Compiled univariate jets
#
# ``jet_kernel`` compiles expressions in one variable into a straight-line
# numpy function.  The compiler walks the tree the way ``evaluate`` does
# over ``Jet1.variable`` and applies the Jet1 rules of dual.py to symbolic
# parts, one operation at a time and with the same operand order, so the
# kernel's parts are bit-identical to that evaluation and it raises where
# that evaluation raises.  Work on constants (``evaluate`` on
# variable-free subtrees, the rules applied to lifted constants) runs once
# at compile time.  Parts above the requested order are dropped as dead
# code, which is exact because the rule for order j reads only orders <= j.


class _Sym:
    """A local of the kernel being compiled, known only when it runs.

    ``plain`` marks a value that may be a Python scalar at run time (the
    variable and what arithmetic alone makes of it): division between
    two such values raises on zero, so it is kept at every order.
    """

    __slots__ = ("tape", "name", "plain")

    __array_ufunc__ = None  # numpy scalars defer to the reflected method

    def __init__(self, tape, name, plain):
        self.tape, self.name, self.plain = tape, name, plain

    def __add__(self, o):
        return self.tape.op("{} + {}", self, o)

    def __radd__(self, o):
        return self.tape.op("{} + {}", o, self)

    def __sub__(self, o):
        return self.tape.op("{} - {}", self, o)

    def __rsub__(self, o):
        return self.tape.op("{} - {}", o, self)

    def __mul__(self, o):
        return self.tape.op("{} * {}", self, o)

    def __rmul__(self, o):
        return self.tape.op("{} * {}", o, self)

    def __truediv__(self, o):
        return self.tape.op("{} / {}", self, o)

    def __rtruediv__(self, o):
        return self.tape.op("{} / {}", o, self)

    def __neg__(self):
        return self.tape.op("-{}", self)


class _Tape:
    """Straight-line code under construction, one statement a line.

    Equal right-hand sides share one line: the operations are pure, so a
    repeat gives the same bits.
    """

    def __init__(self):
        self.lines = []  # (target, text, deps, kept at every order)
        self.consts = {}
        self.shared = {}
        self.x = _Sym(self, "x", True)
        self.one = None  # the variable's first derivative, once made

    def ref(self, v):
        if isinstance(v, _Sym):
            return v.name
        if type(v) is float and 0.0 < math.copysign(1.0, v) and v < math.inf:
            return repr(v)
        key = (type(v), repr(v))  # -0.0, nan, inf, numpy scalars
        if key not in self.consts:
            self.consts[key] = (f"k{len(self.consts)}", v)
        return self.consts[key][0]

    def emit(self, text, args, plain, kept=False):
        if text in self.shared:
            return self.shared[text]
        name = f"t{len(self.lines)}"
        deps = [a.name for a in args if isinstance(a, _Sym)]
        self.lines.append((name, f"{name} = {text}", deps, kept))
        self.shared[text] = out = _Sym(self, name, plain)
        return out

    def op(self, fmt, *args):
        if fmt == "{} * {}" and any(a is self.one for a in args):
            # v * 1 is v bit for bit, and a value that is surely numpy
            # keeps its type, so the product by the variable's d1 is left out
            other = args[0] if args[1] is self.one else args[1]
            if isinstance(other, _Sym) and not other.plain:
                return other
        plain = all(a.plain if isinstance(a, _Sym)
                    else not isinstance(a, np.generic) for a in args)
        return self.emit(fmt.format(*map(self.ref, args)), args, plain,
                         kept=plain and "/" in fmt)

    def fresh(self, text, args):
        """A new array on every line, for the outputs."""
        self.shared.pop(text, None)
        return self.emit(text, args, False)

    def guard(self, value, op, message):
        self.lines.append((None, f"if np.any({value.name} {op} 0.0): "
                                 f"raise ExprDomainError({message!r})",
                           [value.name], True))

    def fail(self, exc):
        name = f"k{len(self.consts)}"
        self.consts[name] = (name, exc)
        self.lines.append((None, f"raise {name}.with_traceback(None)", [],
                           True))

    def source(self, outputs, order):
        """Kernel text returning each output's parts up to ``order``."""
        seen = {self.x.name}
        groups = []
        for parts in outputs or ():
            names = []
            for p in parts[:order + 1]:
                if not isinstance(p, _Sym):
                    p = self.fresh(f"np.full(np.shape(x), {self.ref(p)}, "
                                   "dtype=float)", [])
                elif p.name in seen:  # never hand back an alias
                    p = self.fresh(f"np.copy({p.name})", [p])
                seen.add(p.name)
                names.append(p.name)
            groups.append(f"({', '.join(names)},)")
        needed = set(seen)
        body = []
        for target, text, deps, kept in reversed(self.lines):
            if kept or target in needed:
                body.append(text)
                needed.update(deps)
        body.reverse()
        if outputs is not None:
            body.append(f"return ({', '.join(groups)},)")
        return "\n".join(["def kernel(x):",
                          "    with np.errstate(all='ignore'):"]
                         + [f"        {line}" for line in body]) + "\n"


def _np(fn, *args):
    """numpy function ``fn`` now on constants, else a line of the kernel."""
    syms = [a for a in args if isinstance(a, _Sym)]
    if not syms:
        func = _KERNEL_NS.get(fn) or getattr(np, fn.removeprefix("np."))
        return func(*args)
    tape = syms[0].tape
    return tape.emit(f"{fn}({', '.join(map(tape.ref, args))})", args,
                     plain=fn in ("ones_like", "zeros_like"))


def _domain(value, op, message):
    """The value checks of ``_pow_value`` and ``_apply_function``."""
    if isinstance(value, _Sym):
        value.tape.guard(value, op, message)
    elif np.any(np.asarray(value) <= 0.0 if op == "<="
                else np.asarray(value) < 0.0):
        raise ExprDomainError(message)


# The Jet1 rules over (f, d1, d2, d3) tuples of constants and _Syms; each
# keeps the expression text of its counterpart in dual.py.

def _k_lift(c):
    z = _zeros_like(c)
    return (c, z, z, z)


def _k_add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def _k_sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


def _k_neg(a):
    return (-a[0], -a[1], -a[2], -a[3])


def _k_mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0,
        a1 * b0 + a0 * b1,
        a2 * b0 + 2.0 * a1 * b1 + a0 * b2,
        a3 * b0 + 3.0 * a2 * b1 + 3.0 * a1 * b2 + a0 * b3,
    )


def _k_reciprocal(b):
    b0, b1, b2, b3 = b
    inv = 1.0 / b0
    inv2 = inv * inv
    return (
        inv,
        -b1 * inv2,
        (2.0 * b1 * b1 - b0 * b2) * inv2 * inv,
        (-b3 * b0 * b0 + 6.0 * b0 * b1 * b2 - 6.0 * b1 * b1 * b1) * inv2 * inv2,
    )


def _k_compose(a, g0, g1, g2, g3):
    _, u1, u2, u3 = a
    return (
        g0,
        g1 * u1,
        g2 * u1 * u1 + g1 * u2,
        g3 * u1 * u1 * u1 + 3.0 * g2 * u1 * u2 + g1 * u3,
    )


def _k_sin(a):
    s, c = _np("np.sin", a[0]), _np("np.cos", a[0])
    return _k_compose(a, s, c, -s, -c)


def _k_cos(a):
    s, c = _np("np.sin", a[0]), _np("np.cos", a[0])
    return _k_compose(a, c, -s, -c, s)


def _k_tan(a):
    t = _np("np.tan", a[0])
    sec2 = 1.0 + t * t
    return _k_compose(a, t, sec2, 2.0 * t * sec2, sec2 * (2.0 + 6.0 * t * t))


def _k_exp(a):
    e = _np("np.exp", a[0])
    return _k_compose(a, e, e, e, e)


def _k_log(a):
    u = a[0]
    return _k_compose(a, _np("np.log", u), 1.0 / u, -1.0 / (u * u),
                      2.0 / (u * u * u))


def _k_sqrt(a):
    r = _np("np.sqrt", a[0])
    return _k_compose(a, r, 0.5 / r, -0.25 / (r * a[0]),
                      0.375 / (r * a[0] * a[0]))


def _k_atan(a):
    u = a[0]
    d = 1.0 / (1.0 + u * u)
    return _k_compose(a, _np("np.arctan", u), d, -2.0 * u * d * d,
                      (6.0 * u * u - 2.0) * d * d * d)


def _k_abs(a):
    s = _np("np.sign", a[0])
    z = _np("zeros_like", a[0])
    return _k_compose(a, _np("np.abs", a[0]), s, z, z)


def _k_sgn(a):
    z = _np("zeros_like", a[0])
    return (_np("np.sign", a[0]), z, z, z)


def _k_atan2(y, x):
    u0, u1, u2, u3 = x
    v0, v1, v2, v3 = y
    c0 = u0 * v1 - v0 * u1
    c1 = u0 * v2 - v0 * u2
    c2 = u0 * v3 - v0 * u3 + u1 * v2 - v1 * u2
    r0 = u0 * u0 + v0 * v0
    r1 = 2.0 * (u0 * u1 + v0 * v1)
    r2 = 2.0 * (u1 * u1 + u0 * u2 + v1 * v1 + v0 * v2)
    inv = 1.0 / r0
    inv2 = inv * inv
    return (
        _np("np.arctan2", v0, u0),
        c0 * inv,
        (c1 * r0 - c0 * r1) * inv2,
        c2 * inv - (2.0 * c1 * r1 + c0 * r2) * inv2 + 2.0 * c0 * r1 * r1 * inv2 * inv,
    )


def _k_power(a, c):
    """``dual._power``: a jet to a constant power."""
    cf = float(c)
    if cf == int(cf) and abs(cf) <= 128:
        n = int(cf)
        if n == 0:
            one = _np("ones_like", a[0])
            z = _np("zeros_like", one)
            return (one, z, z, z)
        inverted = n < 0
        n = abs(n)
        out = a
        for _ in range(n - 1):
            out = _k_mul(out, a)
        return _k_reciprocal(out) if inverted else out
    u = a[0]
    g0 = _np("np.power", u, cf)
    g1 = cf * _np("np.power", u, cf - 1.0)
    g2 = cf * (cf - 1.0) * _np("np.power", u, cf - 2.0)
    g3 = cf * (cf - 1.0) * (cf - 2.0) * _np("np.power", u, cf - 3.0)
    return _k_compose(a, g0, g1, g2, g3)


def _k_pow(base, exponent):
    """``_pow_value`` with at least one side a jet."""
    if isinstance(exponent, tuple):
        bval = base[0] if isinstance(base, tuple) else base
        _domain(bval, "<=", "power with variable exponent needs positive base")
        if not isinstance(base, tuple):
            base = _k_lift(base)
        return _k_exp(_k_mul(exponent, _k_log(base)))
    c = float(exponent)
    if c != int(c):
        _domain(base[0], "<", "negative base with non-integer exponent")
    return _k_power(base, c)


_K_UNARY = {"sin": _k_sin, "cos": _k_cos, "tan": _k_tan, "atan": _k_atan,
            "exp": _k_exp, "log": _k_log, "sqrt": _k_sqrt, "abs": _k_abs,
            "sgn": _k_sgn}


def _k_node(e: Expr, var: str, var_jet):
    """A constant, or the (f, d1, d2, d3) parts of ``e``."""
    if isinstance(e, Var) and e.name == var:
        return var_jet
    if isinstance(e, Neg):
        kids = (e.arg,)
    elif isinstance(e, Bin):
        kids = (e.lhs, e.rhs)
    else:
        kids = e.args if isinstance(e, Call) else ()
    vals = [_k_node(k, var, var_jet) for k in kids]
    if not any(isinstance(v, tuple) for v in vals):
        return evaluate(e, {})
    if isinstance(e, Neg):
        return _k_neg(vals[0])
    if isinstance(e, Call):
        if e.fn == "atan2":
            y, x = (v if isinstance(v, tuple) else _k_lift(v) for v in vals)
            return _k_atan2(y, x)
        (v,) = vals
        if e.fn == "log":
            _domain(v[0], "<=", "log of nonpositive value")
        if e.fn == "sqrt":
            _domain(v[0], "<", "sqrt of negative value")
        return _K_UNARY[e.fn](v)
    lhs, rhs = vals
    if e.op == "^":
        return _k_pow(lhs, rhs)
    if not isinstance(lhs, tuple):
        # c + J and c * J go to J's reflected method, which keeps the jet
        # as the left operand; c - J and c / J lift the constant instead
        lhs, rhs = (rhs, lhs) if e.op in "+*" else (_k_lift(lhs), rhs)
    if not isinstance(rhs, tuple):
        rhs = _k_lift(rhs)
    if e.op == "+":
        return _k_add(lhs, rhs)
    if e.op == "-":
        return _k_sub(lhs, rhs)
    if e.op == "*":
        return _k_mul(lhs, rhs)
    return _k_mul(lhs, _k_reciprocal(rhs))


_KERNEL_NS = {"np": np, "ones_like": _ones_like, "zeros_like": _zeros_like,
              "ExprDomainError": ExprDomainError}
_KERNELS: dict = {}
_KERNEL_CACHE_SIZE = 256


def _compile_jets(exprs: tuple, var: str, order: int):
    tape = _Tape()
    tape.one = _np("ones_like", tape.x)
    zero = _np("zeros_like", tape.x)
    var_jet = (tape.x, tape.one, zero, zero)
    outputs = []
    try:
        with np.errstate(all="ignore"):
            for e in exprs:
                v = _k_node(e, var, var_jet)
                outputs.append(v if isinstance(v, tuple) else (v, 0.0, 0.0, 0.0))
    except (ArithmeticError, ValueError) as exc:
        tape.fail(exc)  # raised on every input, after the checks before it
        outputs = None
    text = tape.source(outputs, order)
    ns = dict(_KERNEL_NS, **dict(tape.consts.values()))
    exec(compile(text, f"<jet kernel, order {order}>", "exec"), ns)
    kernel = ns["kernel"]
    kernel.source = text
    return kernel


def jet_kernel(exprs, var: str, order: int):
    """Compiled jets of expressions in the one variable ``var``.

    Returns ``kernel(x)``, which gives for each expression the tuple
    (value, d1, ..., d_order).  Each part is bit-identical to evaluating
    the expression over ``Jet1.variable(x)`` under
    ``np.errstate(all="ignore")``, and the kernel raises where that
    evaluation raises.  Parts are shaped like ``x``, new for every call
    (a constant expression gives filled arrays, zero derivatives) and
    never the caller's array.  Kernels are compiled on first request
    and cached on ``(repr(exprs), var, order)``.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be 0, 1, 2 or 3, got {order}")
    exprs = tuple(exprs)
    key = (repr(exprs), var, order)
    kernel = _KERNELS.get(key)
    if kernel is None:
        kernel = _compile_jets(exprs, var, order)
        if len(_KERNELS) >= _KERNEL_CACHE_SIZE:
            del _KERNELS[next(iter(_KERNELS))]
        _KERNELS[key] = kernel
    return kernel


# ---------------------------------------------------------------------------
# Serialization (re-parsing the output evaluates identically)

_NODE_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}


def to_text(e: Expr) -> str:
    return _fmt(e, 0)


def _fmt(e: Expr, parent_bp: int) -> str:
    if isinstance(e, Num):
        v = e.value
        text = repr(int(v)) if abs(v) < 1e15 and v == int(v) else repr(v)
        return text if v >= 0 else f"({text})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = _fmt(e.arg, _UNARY_BP)
        out = f"-{inner}"
        return f"({out})" if parent_bp > _UNARY_BP else out
    if isinstance(e, Bin):
        bp = _NODE_PREC[e.op]
        lhs = _fmt(e.lhs, bp if e.op != "^" else bp + 1)
        rhs = _fmt(e.rhs, bp + 1 if e.op != "^" else bp)
        out = f"{lhs} {e.op} {rhs}" if e.op in "+-" else f"{lhs}{e.op}{rhs}"
        return f"({out})" if bp < parent_bp else out
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(_fmt(a, 0) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")
