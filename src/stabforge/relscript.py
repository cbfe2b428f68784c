"""Relation scripts: `name := expr` definitions and `check lhs == rhs` lines.

One grammar reads these expressions and the CLI's --elem literals:
+, -, *, ^ (or **) with integer exponents, parentheses, integer literals,
names, and lists [c0, c1, ...] of integer literals, each optionally negated:
the element sum c_j beta^j of the ring's unramified part.  Unary minus binds
looser than ^, so -2^2 = -4, and x^-k is the inverse of x^k.  The ring is
anything with from_int and from_beta_coeffs: an OrderParams here, a
FieldTower for --elem, where the name pi is the uniformizer.  The base
environment of a script provides S, omega and, for p = 2, rho with
rho^2 = -7.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InsufficientPrecision, StabforgeError, UnknownName
from .order import OrderParams, check_verdict, embed_q8, example049_elements
from .padic import PadicInt, hensel_sqrt

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[()\[\],+\-*^=]))")


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
    def __init__(self, tokens, env, ring):
        self.toks = tokens
        self.i = 0
        self.env = env
        self.ring = ring

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

    def signs(self):
        """The sign of a run of unary minuses."""
        sign = 1
        while self.peek() == ("op", "-"):
            self.take()
            sign = -sign
        return sign

    def integer(self, what):
        sign = self.signs()
        kind, k = self.take()
        if kind != "int":
            raise ValueError(f"{what} must be an integer literal")
        return sign * k

    def factor(self):
        sign = self.signs()
        val = self.atom()
        while self.peek() == ("op", "^"):
            self.take()
            val = val ** self.integer("exponent")
        return val if sign == 1 else -val

    def atom(self):
        kind, v = self.take()
        if kind == "int":
            return self.ring.from_int(v)
        if kind == "name":
            if v not in self.env:
                raise UnknownName(f"unknown name {v!r}; defined here: {', '.join(sorted(self.env))}")
            return self.env[v]
        if (kind, v) == ("op", "("):
            val = self.expr()
            if self.take() != ("op", ")"):
                raise ValueError("missing ')'")
            return val
        if (kind, v) == ("op", "["):
            coeffs = [self.integer("coefficient")]
            while self.peek() == ("op", ","):
                self.take()
                coeffs.append(self.integer("coefficient"))
            if self.take() != ("op", "]"):
                raise ValueError("missing ']'")
            return self.ring.from_beta_coeffs(coeffs)
        raise ValueError("unexpected end of input" if kind == "end" else f"unexpected {v!r}")


def eval_expr(text: str, env: dict, ring):
    try:
        p = _Parser(_tokenize(text), env, ring)
        val = p.expr()
        if p.peek() != ("end", None):
            raise ValueError(f"unexpected {p.peek()[1]!r} after a complete expression")
    except ValueError as exc:
        raise ValueError(f"bad expression {text.strip()!r}: {exc}") from None
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

    def evaluate(expr_text):
        try:
            return eval_expr(expr_text, env, params)
        except (ValueError, StabforgeError) as exc:
            raise type(exc)(f"line {line_no}: {exc}") from None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("check "):
            body = line[len("check "):]
            lhs_text, sep, rhs_text = body.partition("==")
            if not sep:
                raise ValueError(f"line {line_no}: check needs '=='")
            lhs = evaluate(lhs_text)
            rhs = evaluate(rhs_text)
            results.append(CheckResult(line_no, line, check_verdict(lhs, rhs)))
        elif ":=" in line:
            name, _, body = line.partition(":=")
            name = name.strip()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
                raise ValueError(f"line {line_no}: bad name {name!r}")
            env[name] = evaluate(body)
        else:
            raise ValueError(f"line {line_no}: expected 'name := expr' or 'check a == b'")
    return results
