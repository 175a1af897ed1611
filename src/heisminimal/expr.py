"""Tiny scalar expression language for ingesting surfaces and curves as text.

Grammar: numbers, declared variables, ``+ - * / ^`` (with ``^`` right
associative and binding tightest, then unary minus, then ``* /``, then
``+ -``), function calls over {sin, cos, tan, atan, atan2, exp, log, sqrt,
abs, sgn}, and the constants pi and e.

Evaluation is generic over the value type: plain floats, numpy arrays, or
the jets from dual.py, which is how every derivative in the package is
produced (no finite differences on this path).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import Jet1, Jet2, atan2_jet1, atan2_jet2, _power


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
