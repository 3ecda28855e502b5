"""Tiny arithmetic expression parser for user-supplied scalar coefficients.

Grammar (recursive descent, ^ is right-associative exponentiation):

    expr    := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?
    atom    := NUMBER | VAR | FUNC '(' expr ')' | '(' expr ')'

Supported functions: sin, cos, exp, log, sqrt, abs.  The single variable
name is configurable ('t' for coefficients, 'r' for radial sources).
Compiled expressions evaluate vectorized over numpy arrays, and carry
their exact derivative: forward mode over the parse tree, each node
giving its value and its derivative as a pair (Griewank & Walther,
Evaluating Derivatives, 2008).
"""

from __future__ import annotations

import numpy as np

_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


class ExpressionError(ValueError):
    pass


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "+-*/^()":
            tokens.append(c)
            i += 1
        elif c.isdigit() or c == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE" or
                                     (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            try:
                tokens.append(float(text[i:j]))
            except ValueError:
                raise ExpressionError(f"bad number near '{text[i:j]}'")
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ExpressionError(f"unexpected character {c!r}")
    return tokens


class _Parser:
    def __init__(self, tokens, var):
        self.tokens = tokens
        self.pos = 0
        self.var = var

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        if self.next() != tok:
            raise ExpressionError(f"expected {tok!r}")

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ExpressionError(f"trailing input near {self.peek()!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            node = (np.add if op == "+" else np.subtract, node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.unary()
            node = (np.multiply if op == "*" else np.divide, node, rhs)
        return node

    def unary(self):
        if self.peek() == "-":
            self.next()
            return (np.negative, self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.next()
            return (np.power, base, self.unary())
        return base

    def atom(self):
        tok = self.next()
        if isinstance(tok, float):
            return tok
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        if isinstance(tok, str):
            if tok == self.var:
                return "VAR"
            if tok in _FUNCS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return (_FUNCS[tok], arg)
            raise ExpressionError(f"unknown name {tok!r} (variable is {self.var!r})")
        raise ExpressionError("unexpected end of expression")


def _evaluate(node, x):
    if node == "VAR":
        return x
    if isinstance(node, float):
        return node
    op, *args = node
    return op(*(_evaluate(a, x) for a in args))


def _is_zero(dv):
    # a derivative that is the scalar 0: the subtree does not depend on x
    return np.ndim(dv) == 0 and dv == 0


def _power(a, da, b, db):
    val = np.power(a, b)
    if _is_zero(db):                 # constant exponent: b a^(b-1) a'
        return val, b * np.power(a, b - 1.0) * da
    dval = val * np.log(a) * db      # d(a^b) = a^b (b' log a + b a'/a)
    if not _is_zero(da):
        dval = dval + val * b * da / a
    return val, dval


# dual rules: (value, derivative) of each node from those of its arguments
_DUAL = {
    np.add: lambda a, da, b, db: (a + b, da + db),
    np.subtract: lambda a, da, b, db: (a - b, da - db),
    np.multiply: lambda a, da, b, db: (a * b, da * b + a * db),
    np.divide: lambda a, da, b, db: (a / b, (da - a / b * db) / b),
    np.power: _power,
    np.negative: lambda a, da: (-a, -da),
    np.sin: lambda a, da: (np.sin(a), np.cos(a) * da),
    np.cos: lambda a, da: (np.cos(a), -np.sin(a) * da),
    np.exp: lambda a, da: (np.exp(a), np.exp(a) * da),
    np.log: lambda a, da: (np.log(a), da / a),
    np.sqrt: lambda a, da: (np.sqrt(a), da / (2.0 * np.sqrt(a))),
    np.abs: lambda a, da: (np.abs(a), np.sign(a) * da),
}


def _dual(node, x):
    if node == "VAR":
        return x, 1.0
    if isinstance(node, float):
        return node, 0.0
    op, *args = node
    return _DUAL[op](*(v for a in args for v in _dual(a, x)))


def _vectorized(evaluate):
    """evaluate(x) over a float array x, shaped like x."""
    def func(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = evaluate(x)
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy() \
            if np.ndim(out) != np.ndim(x) or np.shape(out) != np.shape(x) else out
    return func


def compile_expression(text, var="t"):
    """Compile an expression string into a vectorized callable of one
    variable; its attribute `derivative` is the vectorized exact
    derivative, by forward mode over the same parse tree."""
    tree = _Parser(_tokenize(text), var).parse()
    # Fail early on syntax-valid but numerically broken expressions.
    with np.errstate(all="ignore"):
        _evaluate(tree, np.asarray([1.0]))

    func = _vectorized(lambda x: _evaluate(tree, x))
    func.derivative = _vectorized(lambda x: _dual(tree, x)[1])
    func.expression = text
    return func
