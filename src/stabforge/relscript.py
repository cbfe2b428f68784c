"""Relation scripts: `name := expr` definitions and `check lhs == rhs` lines.

Expressions use +, -, *, ^ (integer exponents, negative means inversion),
parentheses, integer literals and named constants.  The base environment
provides S, omega and, for p = 2, n = 2, rho with rho^2 = -7.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InsufficientPrecision, UnknownName
from .order import OrderParams, check_verdict, embed_q8, example049_elements
from .padic import PadicInt, hensel_sqrt

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[()+\-*^=]))")


def _tokenize(text: str):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad token at: {text[pos:]!r}")
        pos = m.end()
        if m.group(1):
            out.append(("int", int(m.group(1))))
        elif m.group(2):
            out.append(("name", m.group(2)))
        else:
            op = "^" if m.group(3) == "**" else m.group(3)
            out.append(("op", op))
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens, env, params):
        self.toks = tokens
        self.i = 0
        self.env = env
        self.params = params

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expr(self):
        val = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term(self):
        val = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            val = val * self.factor()
        return val

    def factor(self):
        sign = 1
        while self.peek() == ("op", "-"):
            self.take()
            sign = -sign
        val = self.atom()
        while self.peek() == ("op", "^"):
            self.take()
            esign = 1
            while self.peek() == ("op", "-"):
                self.take()
                esign = -esign
            kind, k = self.take()
            if kind != "int":
                raise ValueError("exponent must be an integer literal")
            val = val ** (esign * k)
        return val if sign == 1 else -val

    def atom(self):
        kind, v = self.take()
        if kind == "int":
            return self.params.from_int(v)
        if kind == "name":
            if v not in self.env:
                raise UnknownName(f"unknown name {v!r}; defined here: {', '.join(sorted(self.env))}")
            return self.env[v]
        if (kind, v) == ("op", "("):
            val = self.expr()
            if self.take() != ("op", ")"):
                raise ValueError("missing ')'")
            return val
        raise ValueError(f"unexpected token {kind} {v!r}")


def eval_expr(text: str, env: dict, params: OrderParams):
    p = _Parser(_tokenize(text), env, params)
    val = p.expr()
    if p.peek() != ("end", None):
        raise ValueError(f"trailing input in {text!r}")
    return val


def base_environment(params: OrderParams) -> dict:
    env = {"S": params.s(), "omega": params.omega()}
    if params.p == 2:
        try:
            env["rho"] = params.scalar(hensel_sqrt(PadicInt(2, params.p_prec, -7)))
        except InsufficientPrecision:  # -7 = 1 mod 8 is a square once p_prec >= 3
            pass
    if (params.p, params.n) == (2, 2) and params.u.val == 1:
        i, j, k = embed_q8(params)
        env.update({"i": i, "j": j, "k": k})
    if (params.p, params.n) == (3, 4) and params.u.val == 1:
        x, z, zeta3, tau = example049_elements(params)
        env.update({"X": x, "Z": z, "zeta3": zeta3, "tau": tau})
    return env


@dataclass
class CheckResult:
    line_no: int
    text: str
    verdict: str  # holds / fails / indeterminate


def run_script(text: str, params: OrderParams):
    """Execute a relation script; returns the list of check results."""
    env = base_environment(params)
    results = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("check "):
            body = line[len("check "):]
            lhs_text, sep, rhs_text = body.partition("==")
            if not sep:
                raise ValueError(f"line {line_no}: check needs '=='")
            lhs = eval_expr(lhs_text, env, params)
            rhs = eval_expr(rhs_text, env, params)
            results.append(CheckResult(line_no, line, check_verdict(lhs, rhs)))
        elif ":=" in line:
            name, _, body = line.partition(":=")
            name = name.strip()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
                raise ValueError(f"line {line_no}: bad name {name!r}")
            env[name] = eval_expr(body, env, params)
        else:
            raise ValueError(f"line {line_no}: expected 'name := expr' or 'check a == b'")
    return results
