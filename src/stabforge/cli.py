"""Command-line front end: classify, epsilon, expand, membership, r1, r2,
epsilon-test, verify, cohomology.

Exit codes: 0 for success / true verdicts, 1 for false verdicts or failed
checks, 2 for usage errors and for checks the precision leaves undecided.
JSON output is byte-deterministic for identical inputs.

`main(argv)` may be called many times in one process: the argparse parser is
built on the first call and reused, since parsing keeps no state between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import classifier, cohomology, unitclasses
from .errors import StabforgeError
from .intarith import check_params, prime_factors
from .localfield import FieldTower, epsilon_alpha
from .order import OrderParams
from .padic import parse_literal
from .relscript import eval_expr, run_script


def _emit(obj, mode="json"):
    if mode == "json":
        sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    else:
        _emit_table(obj)


def _emit_table(obj, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                sys.stdout.write(f"{prefix}{k}:\n")
                _emit_table(v, prefix + "  ")
            else:
                sys.stdout.write(f"{prefix}{k}: {v}\n")
    elif isinstance(obj, list):
        for v in obj:
            _emit_table(v, prefix)
    else:
        sys.stdout.write(f"{prefix}{obj}\n")


def _parse_unit(text):
    """An integer --u as an int, a 'p:' literal as a PadicInt at its own
    precision; unitclasses.normalize_unit checks its prime and precision
    against what a test needs."""
    if text.strip().startswith("p:"):
        return parse_literal(text)
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--u {text!r} is neither an integer nor a p-adic literal such as 'p:3 [1,0,2]'") from None


def _parse_field_elem(tower, text):
    """An element in relscript's grammar, with pi the uniformizer."""
    return eval_expr(text, {"pi": tower.pi()}, tower)


# relscript's grammar, which reads both --elem and verify scripts
_GRAMMAR = "+, -, *, ^ (x^-k inverts, -2^2 = -4), parentheses, integers, names and lists [c0,c1,...] = sum c_j beta^j"


def _digits_json(digits, f):
    if f == 1:
        return [d[0] for d in digits]
    return [list(d) for d in digits]


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="stabforge",
        description="Exact arithmetic in p-adic division algebras and the "
        "classification of maximal finite stabilizer subgroups.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser(
        "classify",
        help="maximal finite subgroup classes of the extended group",
        description="Classification rules thm024/thm032 (inner classes), "
        "thm250/thm259/thm260 (extension branches) and the n=2 tables "
        "thm261/thm264.",
    )
    c.add_argument("--p", type=int)
    c.add_argument("--n", type=int)
    c.add_argument("--u-mod", type=int, help="u mod p^2 (odd p) or mod 8 (p=2); default 1")
    c.add_argument("--inner", action="store_true", help="classes inside the stabilizer group")
    c.add_argument("--abelian", action="store_true", help="abelian classes, as (alpha, d) pairs")
    c.add_argument("--scan", action="store_true", help="sweep a grid, emit a table")
    c.add_argument("--p-max", type=int, help="--scan: largest prime (default 3)")
    c.add_argument("--n-max", type=int, help="--scan: largest height (default 6)")
    c.add_argument("--mode", choices=["json", "table"], default="json")

    e = sub.add_parser(
        "epsilon",
        help="digit expansion of the unit epsilon_alpha",
        description="The unit with p*epsilon = pi^phi(p^alpha), its digit "
        "expansions (prop290/prop111/example292 data).",
    )
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--alpha", type=int, required=True)
    e.add_argument("--f", type=int, default=1)
    e.add_argument("--pi-prec", type=int, default=None)
    e.add_argument("--mode", choices=["json", "table"], default="json")

    x = sub.add_parser(
        "expand",
        help="pi-adic digit expansion of a field element",
        description="Teichmueller digit expansions in cyclotomic towers.",
    )
    x.add_argument("--p", type=int, required=True)
    x.add_argument("--alpha", type=int, required=True)
    x.add_argument("--f", type=int, default=1)
    x.add_argument(
        "--elem", required=True, help=f"element such as 'pi^i * [c0,c1,...] + ...', pi the uniformizer: {_GRAMMAR}"
    )
    x.add_argument("--pi-prec", type=int, default=None)
    x.add_argument("--mode", choices=["json", "table"], default="json")

    m = sub.add_parser(
        "membership",
        help="power-class membership in <zeta, U_1^k>",
        description="Filtration-quotient membership (lemma198/thm200/thm113 "
        "obstructions); exit code 1 when the element is not a member.",
    )
    m.add_argument("--p", type=int, required=True)
    m.add_argument("--alpha", type=int, required=True)
    m.add_argument("--f", type=int, default=1)
    m.add_argument("--k", type=int, required=True)
    m.add_argument("--elem", help="element literal, as for expand; defaults to epsilon_alpha")
    m.add_argument("--u", default="1", help="divide the element by this unit")
    m.add_argument("--no-mu", action="store_true", help="span without the torsion generator")
    m.add_argument("--mode", choices=["json", "table"], default="json")

    r1 = sub.add_parser(
        "r1",
        help="admissible first extension indices",
        description="Largest r1 with a valuation-1/r1 extension (cor202 for "
        "odd p, cor115/cor294 for p=2).",
    )
    for flag in ("--p", "--n", "--alpha", "--d"):
        r1.add_argument(flag, type=int, required=True)
    r1.add_argument("--u", default="1")
    r1.add_argument("--mode", choices=["json", "table"], default="json")

    r2 = sub.add_parser(
        "r2",
        help="admissible second extension indices",
        description="Divisors of the greatest allowed index (thm223/thm225, "
        "counts per cor224).",
    )
    for flag in ("--p", "--n", "--alpha", "--d", "--r1"):
        r2.add_argument(flag, type=int, required=True)
    r2.add_argument("--u", default="1")
    r2.add_argument("--mode", choices=["json", "table"], default="json")

    et = sub.add_parser(
        "epsilon-test",
        help="triviality of epsilon_alpha/u modulo <F_0, r1-th powers>",
        description="The extension-existence criterion thm098; exit code 1 "
        "when the class is non-trivial.",
    )
    for flag in ("--p", "--n", "--alpha", "--d", "--r1"):
        et.add_argument(flag, type=int, required=True)
    et.add_argument("--u", default="1")
    et.add_argument("--mode", choices=["json", "table"], default="json")

    v = sub.add_parser(
        "verify",
        help="run a relation script against the order",
        description="Evaluates 'name := expr' and 'check a == b' lines over "
        "W_n<S> (remark210/example049 relation suites); exit 0 iff all hold, 1 if one fails, "
        f"2 if none fails but one is indeterminate at --p-prec.  Expressions: {_GRAMMAR}.",
    )
    v.add_argument("script", help="path to the .rel file")
    v.add_argument("--p", type=int, default=2)
    v.add_argument("--n", type=int, default=2)
    v.add_argument("--u", default="1")
    v.add_argument("--p-prec", type=int, default=6)

    ch = sub.add_parser(
        "cohomology",
        help="cyclic group cohomology of a module",
        description="H^0, H^odd, H^even via kernels/images of 1-t and the "
        "norm (the lemma215-family engine).",
    )
    ch.add_argument("--rank", type=int, default=0)
    ch.add_argument("--torsion", default="", help="comma-separated orders")
    ch.add_argument("--action", help="rows 'a,b;c,d'")
    ch.add_argument("--order", type=int)
    ch.add_argument("--golden", action="store_true", help="run the transcribed golden suite")
    ch.add_argument("--mode", choices=["json", "table"], default="json")

    return ap


# the value flags each classify mode reads; mode "" (no mode flag) classifies the extended group
_CLASSIFY_READS = {
    "--scan": ("--p-max", "--n-max"),
    "--inner": ("--p", "--n"),
    "--abelian": ("--p", "--n"),
    "": ("--p", "--n", "--u-mod"),
}


def _cmd_classify(args):
    if args.inner + args.abelian + args.scan > 1:
        raise ValueError("classify takes at most one of --inner, --abelian and --scan")
    mode = next((flag for flag in ("--scan", "--inner", "--abelian") if getattr(args, flag[2:])), "")
    given = {"--p": args.p, "--n": args.n, "--u-mod": args.u_mod, "--p-max": args.p_max, "--n-max": args.n_max}
    stray = [flag for flag, value in given.items() if value is not None and flag not in _CLASSIFY_READS[mode]]
    if stray:
        *first, last = _CLASSIFY_READS[mode]
        raise ValueError(
            f"classify {mode or 'without --scan, --inner or --abelian'} does not read {', '.join(stray)};"
            f" it reads {', '.join(first)} and {last}"
        )
    if args.scan:
        p_max = 3 if args.p_max is None else args.p_max
        n_max = 6 if args.n_max is None else args.n_max
        primes = [q for q in range(2, p_max + 1) if prime_factors(q) == [q]]
        rows = []
        for p, n, u, rep in classifier.scan(primes, range(1, n_max + 1), range(1, 9)):
            rows.append({"p": p, "n": n, "u_mod": u, "classes": [c.name for c in sorted(rep.classes)]})
        if args.mode == "table":
            for r in rows:
                sys.stdout.write(
                    f"p={r['p']} n={r['n']} u={r['u_mod']}: {', '.join(r['classes'])}\n"
                )
        else:
            _emit(rows)
        return 0
    if args.p is None or args.n is None:
        raise ValueError("classify needs --p and --n (or --scan)")
    if args.inner:
        rep = classifier.maximal_in_Sn(args.p, args.n)
    elif args.abelian:
        rep = classifier.abelian_classes(args.p, args.n)
    else:
        u_mod = 1 if args.u_mod is None else args.u_mod
        rep = classifier.maximal_in_Gn(classifier.ClassificationInput(args.p, args.n, u_mod))
    _emit(rep.to_json(), args.mode)
    return 0


def _tower_at_pi_prec(args):
    """The tower of epsilon and expand and its pi-adic precision, --pi-prec or
    p^alpha + 2; the parameters are checked before p^alpha is computed."""
    check_params(args.p, args.alpha, f=args.f)
    n_pi = args.p**args.alpha + 2 if args.pi_prec is None else args.pi_prec
    return FieldTower.for_pi_prec(args.p, args.f, args.alpha, n_pi), n_pi


def _cmd_epsilon(args):
    tower, n_pi = _tower_at_pi_prec(args)
    eps = epsilon_alpha(tower)
    out = {
        "p": args.p,
        "alpha": args.alpha,
        "precision": n_pi,
        "epsilon_digits": _digits_json(eps.pi_digit_expansion(n_pi), args.f),
        "neg_epsilon_digits": _digits_json((-eps).pi_digit_expansion(n_pi), args.f),
    }
    _emit(out, args.mode)
    return 0


def _cmd_expand(args):
    tower, n_pi = _tower_at_pi_prec(args)
    x = _parse_field_elem(tower, args.elem)
    digits = x.pi_digit_expansion(n_pi)
    _emit({"digits": _digits_json(digits, args.f), "precision": n_pi}, args.mode)
    return 0


def _cmd_membership(args):
    quotient = unitclasses.FiltrationQuotient.standard(args.p, args.f, args.alpha, args.k)
    tower = quotient.tower
    if args.elem is None and args.alpha < 1:
        raise ValueError("membership at alpha = 0 needs --elem: its default, epsilon_alpha, needs alpha >= 1")
    x = epsilon_alpha(tower) if args.elem is None else _parse_field_elem(tower, args.elem)
    u = unitclasses.normalize_unit(_parse_unit(args.u), args.p, tower.prec)
    x = x * tower.from_int(u.val).invert()
    span = unitclasses.subgroup_span(quotient, args.k, include_mu_torsion=not args.no_mu)
    member = unitclasses.membership(x, span)
    _emit(
        {
            "member": member,
            "k": args.k,
            "depth": quotient.depth,
            "branch": "quotient-echelon",
        },
        args.mode,
    )
    return 0 if member else 1


def _cmd_r1(args):
    u = _parse_unit(args.u)
    v = unitclasses.r1_max(args.p, args.n, args.alpha, args.d, u)
    _emit({"admissible": list(v.admissible), "maximal": v.maximal, "branch": v.branch}, args.mode)
    return 0


def _cmd_r2(args):
    u = _parse_unit(args.u)
    v = unitclasses.r2_admissible(args.p, args.n, args.alpha, args.d, u, args.r1)
    _emit(
        {
            "admissible": list(v.admissible),
            "maximal": v.maximal,
            "branch": v.branch,
            "field_counts": {str(k): c for k, c in sorted(v.field_counts.items())},
        },
        args.mode,
    )
    return 0


def _cmd_epsilon_test(args):
    u = _parse_unit(args.u)
    ok = unitclasses.epsilon_test(args.p, args.n, args.alpha, args.d, u, args.r1)
    _emit({"trivial": ok, "r1": args.r1, "branch": "thm098"}, args.mode)
    return 0 if ok else 1


def _cmd_verify(args):
    if args.p_prec < 1:
        raise ValueError(f"--p-prec must be >= 1, got {args.p_prec}")
    with open(args.script, encoding="utf-8") as fh:
        text = fh.read()
    params = OrderParams(args.p, args.n, u=_parse_unit(args.u), p_prec=args.p_prec)
    results = run_script(text, params)
    for r in results:
        sys.stdout.write(f"line {r.line_no}: {r.verdict}: {r.text}\n")
    failed = any(r.verdict == "fails" for r in results)
    undecided = sum(r.verdict == "indeterminate" for r in results)
    summary = "some checks failed" if failed else "some checks indeterminate" if undecided else "all checks hold"
    sys.stdout.write(f"{summary} ({len(results)} checks)\n")
    if undecided and not failed:  # a false verdict needs a failed check; undecided is no verdict
        raise ValueError(
            f"{undecided} checks indeterminate at --p-prec {args.p_prec}; a larger --p-prec may decide them"
        )
    return 1 if failed else 0


_LIST_FORMS = {"--torsion": "comma-separated integers such as '2,4'", "--action": "rows 'a,b;c,d' of integers"}


def _list_entry(flag, text, entry):
    """One integer of a --torsion or --action list."""
    try:
        return int(entry)
    except ValueError:
        raise ValueError(f"{flag} {text!r}: {entry!r} is not an integer; expected {_LIST_FORMS[flag]}") from None


def _cmd_cohomology(args):
    if args.golden:
        report = cohomology.golden_suite()
        out = [{"tag": tag, "ok": ok} for tag, ok, _ in report]
        _emit(out, args.mode)
        return 0 if all(r["ok"] for r in out) else 1
    if args.action is None or args.order is None:
        raise ValueError("cohomology needs --action and --order (or --golden)")
    torsion = [_list_entry("--torsion", args.torsion, t) for t in args.torsion.split(",") if t.strip()]
    action = [[_list_entry("--action", args.action, x) for x in row.split(",")] for row in args.action.split(";")]
    m = cohomology.CycModule(args.rank, torsion, action, args.order)
    groups = {"h0": m.h0(), "h_odd": m.h_odd(), "h_even": m.h_even()}
    _emit({h: {"free_rank": g.free_rank, "invariants": list(g.invariants)} for h, g in groups.items()}, args.mode)
    return 0


_DISPATCH = {
    "classify": _cmd_classify,
    "epsilon": _cmd_epsilon,
    "expand": _cmd_expand,
    "membership": _cmd_membership,
    "r1": _cmd_r1,
    "r2": _cmd_r2,
    "epsilon-test": _cmd_epsilon_test,
    "verify": _cmd_verify,
    "cohomology": _cmd_cohomology,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _DISPATCH[args.cmd](args)
    except (StabforgeError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
