"""Tiny scalar expression language for ingesting surfaces and curves as text.

Grammar: numbers, declared variables, ``+ - * / ^`` (with ``^`` right
associative and binding tightest, then unary minus, then ``* /``, then
``+ -``), function calls over {sin, cos, tan, atan, atan2, exp, log, sqrt,
abs, sgn}, and the constants pi and e.

Evaluation is generic over the value type: plain floats, numpy arrays, or
the jets from dual.py.  Derivatives for the hot paths come from
``jet_kernel``, which traces that evaluation over ``Jet1`` (one variable,
orders 0-3) or ``Jet2`` (a pair, orders 0-2) once and compiles what the
jet rules do into straight-line numpy code; ``deriv`` evaluates over
``Jet1`` directly.  No finite differences on either path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin

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


def _domain(value, op, message):
    """Raise unless every ``value`` passes; a kernel line when symbolic."""
    if isinstance(value, _Sym):
        value.tape.guard(value, op, message)
    elif np.any(np.asarray(value) <= 0.0 if op == "<="
                else np.asarray(value) < 0.0):
        raise ExprDomainError(message)


def _pow_value(base, exponent):
    if isinstance(exponent, (Jet1, Jet2)):
        # Variable exponent: b^c = exp(c log b), requires positive base.
        _domain(_value_part(base), "<=",
                "power with variable exponent needs positive base")
        if not isinstance(base, (Jet1, Jet2)):
            base = type(exponent).constant(base)
        return (exponent * base.log()).exp()
    c = float(exponent)
    if c != int(c):
        _domain(_value_part(base), "<",
                "negative base with non-integer exponent")
    if isinstance(base, (Jet1, Jet2)):
        return _power(base, c)
    return np.power(base, c) if isinstance(base, np.ndarray) else float(np.power(base, c))


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
    if name == "log":
        _domain(_value_part(v), "<=", "log of nonpositive value")
    if name == "sqrt":
        _domain(_value_part(v), "<", "sqrt of negative value")
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
# Compiled jets
#
# ``jet_kernel`` compiles expressions into a straight-line numpy function
# by tracing: it runs ``evaluate`` once over ``Jet1.variable(x)`` or
# ``Jet2.variables(x, y)`` whose coefficients are ``_Sym`` placeholders,
# so the jet rules of dual.py run unchanged and each operation they do on
# a placeholder becomes one line of the kernel, with the same operands in
# the same order.  The kernel's parts are therefore bit-identical to that
# evaluation, and it raises where that evaluation raises.  Work on
# constants (variable-free subtrees, lifted constants) runs once at
# compile time.  Parts above the requested order are dropped as dead
# code, which is exact because the rule for an order reads only lower
# or equal orders.

_TAPE_OPS = {np.add: "{} + {}", np.subtract: "{} - {}",
             np.multiply: "{} * {}", np.true_divide: "{} / {}",
             np.negative: "-{}"}
_LIKE = {np.zeros_like: "zeros_like", np.ones_like: "ones_like"}


class _Sym(NDArrayOperatorsMixin):
    """A local of the kernel being compiled, known only when it runs.

    Python operators and numpy ufuncs on it record a line on its tape.
    ``plain`` marks a value that may be a Python scalar at run time (a
    variable and what arithmetic and ``zeros_like``/``ones_like`` make of
    it): division between two such values raises on zero, so it is kept
    at every order.
    """

    __slots__ = ("tape", "name", "plain")

    def __init__(self, tape, name, plain):
        self.tape, self.name, self.plain = tape, name, plain

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        fmt = _TAPE_OPS.get(ufunc)
        if fmt is not None:
            return self.tape.op(fmt, *args)
        return self.tape.call(f"np.{ufunc.__name__}", args, plain=False)

    def __array_function__(self, func, types, args, kwargs):
        if func not in _LIKE or kwargs:
            return NotImplemented
        return self.tape.call(_LIKE[func], args, plain=True)


class _Tape:
    """Straight-line code under construction, one statement a line.

    Equal right-hand sides share one line: the operations are pure, so a
    repeat gives the same bits.
    """

    def __init__(self, names):
        self.lines = []  # (target, text, deps, kept at every order)
        self.consts = {}
        self.shared = {}
        self.vars = tuple(_Sym(self, name, True) for name in names)
        self.ones = ()  # each variable's own unit derivative, once made

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

    def call(self, fn, args, plain):
        return self.emit(f"{fn}({', '.join(map(self.ref, args))})", args,
                         plain)

    def unit(self, v):
        return any(v is one for one in self.ones)

    def op(self, fmt, *args):
        if fmt == "{} * {}" and any(map(self.unit, args)):
            # v * 1 is v bit for bit, and a value that is surely numpy
            # keeps its type, so the product by a variable's own unit
            # derivative is left out
            other = args[1] if self.unit(args[0]) else args[0]
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

    def source(self, outputs, count):
        """Kernel text returning each output's first ``count`` parts."""
        seen = {v.name for v in self.vars}
        groups = []
        for parts in outputs or ():
            names = []
            for p in parts[:count]:
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
                # walking backwards, a local not yet needed is read here
                # for the last time: free it, so that only live locals
                # hold grid-sized arrays
                dead = sorted({target, *deps} - needed - {None})
                if dead:
                    body.append(f"del {', '.join(dead)}")
                body.append(text)
                needed.update(deps)
        body.reverse()
        if outputs is not None:
            body.append(f"return ({', '.join(groups)},)")
        args = ", ".join(v.name for v in self.vars)
        return "\n".join([f"def kernel({args}):",
                          "    with np.errstate(all='ignore'):"]
                         + [f"        {line}" for line in body]) + "\n"


_KERNEL_NS = {"np": np, "ones_like": _ones_like, "zeros_like": _zeros_like,
              "ExprDomainError": ExprDomainError}
_KERNELS: dict = {}
_KERNEL_CACHE_SIZE = 256


def _compile_jets(exprs: tuple, var, order: int):
    if isinstance(var, str):
        tape = _Tape(("x",))
        x = Jet1.variable(*tape.vars)
        env, tape.ones, count = {var: x}, (x.d1,), order + 1
    else:
        tape = _Tape(("x", "y"))
        x, y = Jet2.variables(*tape.vars)
        env, tape.ones = dict(zip(var, (x, y))), (x.fx, y.fy)
        count = (1, 3, 6)[order]
    outputs = []
    try:
        with np.errstate(all="ignore"):
            for e in exprs:
                v = evaluate(e, env)
                outputs.append([getattr(v, f.name) for f in fields(v)]
                               if isinstance(v, (Jet1, Jet2))
                               else [v] + [0.0] * (count - 1))
    except (ArithmeticError, ValueError) as exc:
        tape.fail(exc)  # raised on every input, after the checks before it
        outputs = None
    text = tape.source(outputs, count)
    ns = dict(_KERNEL_NS, **dict(tape.consts.values()))
    exec(compile(text, f"<jet kernel, order {order}>", "exec"), ns)
    kernel = ns["kernel"]
    kernel.source = text
    return kernel


def jet_kernel(exprs, var, order: int):
    """Compiled jets of expressions in ``var``, one name or a pair.

    For one name, returns ``kernel(x)``, which gives for each expression
    the tuple (value, d1, ..., d_order), order 0 to 3; each part is
    bit-identical to evaluating the expression over ``Jet1.variable(x)``.
    For a pair of names, returns ``kernel(x, y)`` for x and y of one
    shape, which gives the first 1, 3 or 6 of (f, fx, fy, fxx, fxy, fyy)
    at order 0, 1 or 2, each bit-identical to evaluating over
    ``Jet2.variables(x, y)``.  Both under ``np.errstate(all="ignore")``,
    and the kernel raises where that evaluation raises.  Parts are shaped
    like ``x``, new for every call (a constant expression gives filled
    arrays, zero derivatives) and never the caller's array.  Kernels are
    compiled on first request and cached on ``(repr(exprs), var, order)``.
    """
    pair = not isinstance(var, str)
    if order not in ((0, 1, 2) if pair else (0, 1, 2, 3)):
        raise ValueError(f"order must be 0 to {2 if pair else 3} for "
                         f"{var!r}, got {order}")
    exprs = tuple(exprs)
    key = (repr(exprs), tuple(var) if pair else var, order)
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
