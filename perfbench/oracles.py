"""Independent checks of answers, from the paper's corollaries and the algebra.

``check(query, rc, text, result)`` returns None when the answer passes, or a
one-line reason.  The goldens pin every byte; these checks say whether the
bytes are right, so a golden regenerated from a wrong program is caught.
"""

from __future__ import annotations

import json

from stabforge.errors import StabforgeError
from stabforge.localfield import FieldElem, FieldTower
from stabforge.order import check_verdict


def _digits(raw):
    return [tuple(d) if isinstance(d, list) else (d,) for d in raw]


def _tower(c, n_pi):
    return FieldTower.for_pi_prec(c["p"], 1, c["alpha"], n_pi)


def _member(c, rc, text, result):
    got = json.loads(text)["member"]
    if got != c["expect"] or rc != (0 if got else 1):
        return f"member={got} exit {rc}, corollary says member={c['expect']}"
    return None


def _epsilon(c, rc, text, result):
    """p * epsilon = pi^phi(p^alpha), and the two digit lists re-sum to +-epsilon."""
    out = json.loads(text)
    n_pi = out["precision"]
    t = _tower(c, n_pi)
    eps = FieldElem.from_pi_digits(t, _digits(out["epsilon_digits"]))
    neg = FieldElem.from_pi_digits(t, _digits(out["neg_epsilon_digits"]))
    if not (eps.scale(c["p"]) - t.pi() ** t.e).pi_valuation_at_least(n_pi + t.e):
        return "p * epsilon != pi^phi(p^alpha)"
    if not (eps + neg).pi_valuation_at_least(n_pi):
        return "neg_epsilon_digits do not re-sum to -epsilon"
    return None


def _expand(c, rc, text, result):
    out = json.loads(text)
    n_pi = out["precision"]
    t = _tower(c, n_pi)
    x = t.zero()
    for power, coeff in c["terms"]:
        x = x + t.from_int(coeff) * t.pi() ** power
    got = FieldElem.from_pi_digits(t, _digits(out["digits"]))
    if not (got - x).pi_valuation_at_least(n_pi):
        return "digits do not re-sum to the element"
    return None


def _r1(c, rc, text, result):
    out = json.loads(text)
    want = [d for d in range(1, c["maximal"] + 1) if c["maximal"] % d == 0]
    if out["maximal"] != c["maximal"] or out["admissible"] != want:
        return f"r1 {out['admissible']}, corollary says {want}"
    return None


def _xi(q, result):
    a = q["args"]
    params, xi = result
    verdict = check_verdict(xi ** a["n"], params.from_int(a["p"] * a["target"]))
    return None if verdict == "holds" else f"xi^n = p*u {verdict}"


def _invert(q, result):
    x, y = result
    one = x.params.one()
    verdicts = (check_verdict(x * y, one), check_verdict(y * x, one))
    return None if verdicts == ("holds", "holds") else f"x * x^-1 = 1 {verdicts}"


def _verify(c, rc, text, result):
    last = text.splitlines()[-1] if text else ""
    return None if rc == 0 and last.startswith("all checks hold") else f"relation script: {last!r}"


def _cohomology(c, rc, text, result):
    entries = json.loads(text)
    bad = [e["tag"] for e in entries if not e["ok"]]
    return None if rc == 0 and entries and not bad else f"golden entries failed: {bad}"


_CLI = {
    "member": _member,
    "epsilon": _epsilon,
    "expand": _expand,
    "r1": _r1,
    "verify": _verify,
    "cohomology": _cohomology,
}
_LIB = {"xi": _xi, "invert": _invert}


def check(q, rc, text, result):
    if rc not in (0, 1):
        return f"exit {rc}"
    c = q["check"]
    try:
        if c["oracle"] in _LIB:
            return _LIB[c["oracle"]](q, result)
        return _CLI[c["oracle"]](c, rc, text, result)
    except (StabforgeError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable answer: {type(exc).__name__}: {exc}"
