import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stabforge.classifier import ClassificationInput, maximal_in_Gn
from stabforge.cli import _parse_field_elem, build_parser, main
from stabforge.intarith import divisors
from stabforge.localfield import FieldTower, euler_phi_prime_power
from stabforge.unitclasses import epsilon_test, r1_max

SRC = Path(__file__).resolve().parents[1] / "src"
SCRIPTS = SRC / "stabforge" / "scripts"  # the working directory, so "q8.rel" resolves

REJECTED = [
    # n = 0, k = 0: splitting powers of p off 0 never ends
    ["classify", "--p", "3", "--n", "0"],
    ["classify", "--p", "2", "--n", "0"],
    ["membership", "--p", "2", "--alpha", "2", "--k", "0"],
    # p = 1: splitting powers of 1 off k never ends
    ["membership", "--p", "1", "--alpha", "1", "--k", "2"],
    # n = 0: dividing gcd(0, p - 1) out of 0 never ends
    ["r2", "--p", "3", "--n", "0", "--alpha", "1", "--d", "2", "--r1", "1"],
    # d = 0, r1 = 0: a zero modulus must not escape as a traceback (exit code 1)
    ["r1", "--p", "3", "--n", "2", "--alpha", "1", "--d", "0"],
    ["r2", "--p", "3", "--n", "2", "--alpha", "1", "--d", "2", "--r1", "0"],
    ["epsilon-test", "--p", "3", "--n", "2", "--alpha", "1", "--d", "2", "--r1", "0"],
    # precision 0 is invalid, not a request for the default 6
    ["verify", "q8.rel", "--p-prec", "0"],
    # a non-positive pi-adic precision has no digits to print
    ["epsilon", "--p", "3", "--alpha", "1", "--pi-prec", "-3"],
    ["expand", "--p", "3", "--alpha", "1", "--elem", "1", "--pi-prec", "0"],
    # u = 2 is not a 2-adic unit, also on the branches that never read u
    ["r1", "--p", "2", "--n", "4", "--alpha", "2", "--d", "1", "--u", "2"],
    ["r1", "--p", "2", "--n", "4", "--alpha", "1", "--d", "1", "--u", "2"],
    # p must be prime: these answered, failed a check or crashed in unramified_poly
    ["classify", "--p", "4", "--n", "2"],
    ["classify", "--p", "1", "--n", "3"],
    ["classify", "--p", "6", "--n", "5", "--inner"],
    ["r1", "--p", "4", "--n", "3", "--alpha", "1", "--d", "3"],
    ["r2", "--p", "6", "--n", "5", "--alpha", "1", "--d", "5", "--r1", "1"],
    ["epsilon-test", "--p", "4", "--n", "3", "--alpha", "1", "--d", "3", "--r1", "3"],
    ["epsilon", "--p", "4", "--alpha", "1"],
    ["verify", "q8.rel", "--p", "4", "--n", "2"],
    # f = 0 has no residue field
    ["epsilon", "--p", "3", "--alpha", "1", "--f", "0"],
    ["classify", "--p", "3", "--n", "-2"],
    # r1 must divide gcd(phi(p^alpha), p - 1 for odd p, 2 for p = 2): these answered
    ["r2", "--p", "2", "--n", "4", "--alpha", "2", "--d", "3", "--r1", "3"],
    ["r2", "--p", "2", "--n", "8", "--alpha", "3", "--d", "3", "--r1", "4"],
    ["r2", "--p", "3", "--n", "2", "--alpha", "0", "--d", "2", "--r1", "5"],
    # a zero torsion order divided by zero; order <= 0 and negative torsion answered
    ["cohomology", "--torsion", "0", "--action", "1", "--order", "2"],
    ["cohomology", "--rank", "1", "--action", "1", "--order", "0"],
    ["cohomology", "--rank", "1", "--action", "1", "--order", "-2"],
    ["cohomology", "--torsion=-3", "--action", "1", "--order", "2"],
    # a unit literal with fewer digits than --p-prec (it was read with int())
    ["verify", "q8.rel", "--p", "2", "--n", "2", "--u", "p:2 [1,0]"],
    # empty terms and coefficient lists read as 1 and 0
    ["expand", "--p", "3", "--alpha", "1", "--elem", ""],
    ["expand", "--p", "3", "--alpha", "1", "--elem", "+"],
    ["membership", "--p", "3", "--alpha", "2", "--k", "3", "--elem", "pi^2 +"],
    ["membership", "--p", "3", "--alpha", "2", "--k", "3", "--elem", ""],
    ["expand", "--p", "3", "--alpha", "2", "--elem", "pi^2 * []"],
    # an empty coefficient was dropped, a missing ']' ignored, an empty exponent failed in int()
    ["expand", "--p", "3", "--alpha", "1", "--f", "2", "--pi-prec", "3", "--elem", "pi * [1,,2]"],
    ["expand", "--p", "3", "--alpha", "1", "--f", "2", "--pi-prec", "3", "--elem", "pi * [1"],
    ["expand", "--p", "3", "--alpha", "1", "--f", "2", "--pi-prec", "3", "--elem", "pi^ * [1]"],
    # a product needs its '*'
    ["expand", "--p", "3", "--alpha", "1", "--f", "2", "--pi-prec", "3", "--elem", "pi^2 [1,2]"],
    # without --golden, a module needs its action and order
    ["cohomology", "--order", "2"],
    # p <= 1: p^alpha and phi(p^alpha) were computed before p was checked (ZeroDivisionError)
    ["epsilon", "--p", "1", "--alpha", "2"],
    ["epsilon", "--p", "0", "--alpha", "-1"],
    ["expand", "--p", "1", "--alpha", "1", "--elem", "pi", "--pi-prec", "3"],
    # an empty digit of a unit literal was dropped
    ["r1", "--p", "3", "--n", "2", "--alpha", "1", "--d", "2", "--u", "p:3 [1,,2]"],
    # an integer --u that int() cannot read: its message named neither the flag nor the forms
    ["r1", "--p", "3", "--n", "2", "--alpha", "1", "--d", "2", "--u", "x"],
    ["r1", "--p", "3", "--n", "2", "--alpha", "1", "--d", "2", "--u", ""],
    # a --torsion or --action entry that int() cannot read: its message named neither the flag nor the form
    ["cohomology", "--torsion", "x", "--action", "1", "--order", "2"],
    ["cohomology", "--rank", "1", "--action", "1;x", "--order", "2"],
    ["cohomology", "--rank", "1", "--action", "", "--order", "2"],
    # checks that the precision leaves undecided are no false verdict (exit 1)
    ["verify", "q8.rel", "--p-prec", "5"],
    ["verify", "example049.rel", "--p", "3", "--n", "4", "--p-prec", "2"],
]


def run_cli(argv, **env_vars):
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, **env_vars)
    return subprocess.run(
        [sys.executable, "-m", "stabforge.cli", *argv], capture_output=True, text=True, timeout=10, env=env, cwd=SCRIPTS
    )


@pytest.mark.parametrize("argv", REJECTED, ids=[" ".join(a) for a in REJECTED])
def test_bad_input_exits_2_with_message(argv):
    proc = run_cli(argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_bad_input_message_names_the_argument(tmp_path):
    # an expression error in a script names its line
    (tmp_path / "power.rel").write_text("x := S\ncheck S ** == S\n")
    (tmp_path / "name.rel").write_text("x := S\n\ny := x * rho2\n")
    for argv, message in [
        (["verify", str(tmp_path / "power.rel")], "line 2: bad expression 'S **': exponent must be an integer literal"),
        (["verify", str(tmp_path / "name.rel"), "--p", "3"], "line 3: unknown name 'rho2'; defined here: S, omega, x"),
        (["classify", "--p", "3", "--n", "-2"], "n must be >= 1, got -2"),
        (["verify", "q8.rel", "--n", "0"], "n must be >= 1, got 0"),
        (["verify", "q8.rel", "--u", "p:2 [1,0]"], "unit precision too low for the requested test"),
        (["verify", "q8.rel", "--p", "3", "--n", "2"], "line 3: unknown name 'rho'; defined here: S, omega"),
        (["verify", "q8.rel", "--p-prec", "0"], "--p-prec must be >= 1, got 0"),
        (["epsilon", "--p", "1", "--alpha", "2"], "p must be a prime, got 1"),
        (
            ["r1", "--p", "3", "--n", "2", "--alpha", "1", "--d", "2", "--u", "p:3 [1,,2]"],
            "unit literal 'p:3 [1,,2]' has an empty digit",
        ),
        (
            ["r2", "--p", "3", "--n", "2", "--alpha", "1", "--d", "2", "--r1", "1", "--u", "p:5 [1,0,2]"],
            "unit literal 'p:5 [1,0,2]' has prime 5, expected p = 3",
        ),
        (
            ["r1", "--p", "3", "--n", "2", "--alpha", "1", "--d", "2", "--u", "x"],
            "--u 'x' is neither an integer nor a p-adic literal such as 'p:3 [1,0,2]'",
        ),
        (
            ["cohomology", "--torsion", "x", "--action", "1", "--order", "2"],
            "--torsion 'x': 'x' is not an integer; expected comma-separated integers such as '2,4'",
        ),
        (
            ["cohomology", "--rank", "1", "--action", "1;x", "--order", "2"],
            "--action '1;x': 'x' is not an integer; expected rows 'a,b;c,d' of integers",
        ),
        (
            ["cohomology", "--rank", "1", "--action", "", "--order", "2"],
            "--action '': '' is not an integer; expected rows 'a,b;c,d' of integers",
        ),
        (
            ["verify", "example049.rel", "--p", "3", "--n", "4", "--p-prec", "2"],
            "2 checks indeterminate at --p-prec 2; a larger --p-prec may decide them",
        ),
    ] + [
        (
            ["expand", "--p", "3", "--alpha", "1", "--f", "2", "--pi-prec", "3", "--elem", elem],
            f"bad expression {elem!r}: {why}",
        )
        for elem, why in [
            ("pi * [1,,2]", "coefficient must be an integer literal"),
            ("pi * [1", "missing ']'"),
            ("pi^ * [1]", "exponent must be an integer literal"),
        ]
    ]:
        proc = run_cli(argv)
        assert proc.stderr == f"error: {message}\n", argv


def test_elem_literals_read_the_script_grammar():
    t = FieldTower.for_pi_prec(3, 2, 1, 3)
    pi = t.pi()
    assert _parse_field_elem(t, "pi^2 * [1,2] + [4]") == pi**2 * (1 + 2 * t.beta()) + 4
    assert _parse_field_elem(t, "-7") == t.from_int(-7)
    assert _parse_field_elem(t, "[-1, 2]") == 2 * t.beta() - 1
    # a list, pi and integers combine like any other operands
    assert _parse_field_elem(t, "[1,2] * pi") == _parse_field_elem(t, "pi * [1, 2]")
    assert _parse_field_elem(t, "pi*pi") == pi**2
    assert _parse_field_elem(t, "(1+pi)^3") == t.zeta() ** 3


def test_false_verdicts_exit_1():
    proc = run_cli(["membership", "--p", "3", "--alpha", "2", "--k", "3"])
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["member"] is False


def test_failed_check_exits_1(tmp_path):
    script = tmp_path / "commute.rel"
    script.write_text("check S * omega == omega * S\n")
    proc = run_cli(["verify", str(script)])
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "line 1: fails: check S * omega == omega * S\nsome checks failed (1 checks)\n"


def test_indeterminate_checks_exit_2():
    # a check the precision cannot decide is listed, but the script neither holds nor fails
    proc = run_cli(["verify", "q8.rel", "--p-prec", "5"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout.count(": indeterminate: ") == 1 and ": fails: " not in proc.stdout
    assert proc.stdout.endswith("line 15: holds: check (1+i)^2 == 2*i\nsome checks indeterminate (13 checks)\n")
    assert proc.stderr == "error: 1 checks indeterminate at --p-prec 5; a larger --p-prec may decide them\n"


def test_main_can_be_called_again_in_one_process(monkeypatch):
    # the parser is built once per process; each call must still answer as a fresh process does
    monkeypatch.chdir(SCRIPTS)
    r1 = ["r1", "--p", "3", "--n", "2", "--alpha", "1", "--d", "2"]
    for argv in [
        ["classify", "--p", "x"],  # argparse error: SystemExit(2)
        r1,
        ["membership", "--p", "3", "--alpha", "2", "--k", "3"],  # exit 1
        ["classify", "--p", "3", "--n", "-2"],  # ValueError: exit 2
        ["verify", "q8.rel"],
        [*r1, "--mode", "table"],
        r1,
    ]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
        proc = run_cli(argv)
        assert (rc, out.getvalue(), err.getvalue()) == (proc.returncode, proc.stdout, proc.stderr), argv
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["r2", "--p", "2", "--n", "8", "--alpha", "2", "--d", "5", "--r1", "1", "--u", "3"],
        ["classify", "--p", "2", "--n", "6", "--abelian"],
        ["cohomology", "--golden"],
        ["classify", "--scan", "--p-max", "5", "--n-max", "4"],
    ],
    ids=" ".join,
)
def test_output_does_not_depend_on_the_hash_seed(argv):
    first, second = (run_cli(argv, PYTHONHASHSEED=seed) for seed in ("1", "77"))
    assert first.returncode == 0, first.stderr
    assert first.stdout and first.stdout == second.stdout


def test_cohomology_of_a_large_torsion_order_answers():
    # 2^101 - 1 has no factor below 10^12: trial division of the invariant factors stalled here
    proc = run_cli(["cohomology", "--rank", "0", "--torsion", str(2**101 - 1), "--action", "1", "--order", "1"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["h0"] == {"free_rank": 0, "invariants": [2**101 - 1]}


def test_cohomology_of_a_large_action_order_answers():
    # T^r and the norm were reached by r matrix products
    proc = run_cli(["cohomology", "--rank", "1", "--action", "1", "--order", "100000000"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["h_even"] == {"free_rank": 0, "invariants": [100000000]}
    # 2 has order 3 mod 7, and 3 divides the order: no fixed points in any degree
    proc = run_cli(["cohomology", "--torsion", "7", "--action", "2", "--order", "300000000"])
    assert proc.returncode == 0, proc.stderr
    assert all(g == {"free_rank": 0, "invariants": []} for g in json.loads(proc.stdout).values())


def test_field_degree_of_a_large_d_answers():
    # d = 2^101 - 1 has no factor below 10^12: ord_d(2) = 101 was found by factoring d
    d = str(2**101 - 1)
    proc = run_cli(["r2", "--p", "2", "--n", "202", "--alpha", "0", "--d", d, "--r1", "1"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["admissible"] == [1, 2]
    proc = run_cli(["epsilon-test", "--p", "2", "--n", "202", "--alpha", "1", "--d", d, "--r1", "1"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["trivial"] is True


def test_table_mode():
    proc = run_cli(["r1", "--p", "3", "--n", "2", "--alpha", "1", "--d", "2", "--mode", "table"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "admissible:\n  1\n  2\nbranch: cor202\nmaximal: 2\n"
    proc = run_cli(["classify", "--scan", "--mode", "table", "--p-max", "3", "--n-max", "2"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        *(f"p=2 n=1 u={u}: C2:G" for u in (1, 3, 5, 7)),
        "p=2 n=2 u=1: C6:C2, O48",
        "p=2 n=2 u=3: D8, C3:C4, C6:C2, T24",
        "p=2 n=2 u=5: Q8, C3:C4, C6:C2, T24",
        "p=2 n=2 u=7: C3:C4, T24:C2",
        *(f"p=3 n=1 u={u}: C2:C1" for u in (1, 2, 4, 5, 7, 8)),
        *(f"p=3 n=2 u={u}: SD16, C3:{'Q8' if u % 3 == 1 else 'D8'}" for u in (1, 2, 4, 5, 7, 8)),
    ]


def test_verify_reads_a_unit_literal():
    proc = run_cli(["verify", "q8.rel", "--p", "2", "--n", "2", "--u", "p:2 [1,0,0,0,0,0]"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("all checks hold (13 checks)\n")


def test_cohomology_golden_needs_no_module():
    proc = run_cli(["cohomology", "--golden"])
    assert proc.returncode == 0, proc.stderr
    entries = json.loads(proc.stdout)
    assert entries and all(e["ok"] for e in entries)


def test_answers_past_the_former_size_caps():
    # p = 11 > 7, n = 14 > 12 and residue degree ord_2186(3) = 7 > 6 were refused
    for p, n in [(11, 10), (3, 14)]:
        proc = run_cli(["classify", "--p", str(p), "--n", str(n)])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == maximal_in_Gn(ClassificationInput(p, n, 1)).to_json()
    proc = run_cli(["epsilon-test", "--p", "3", "--n", "14", "--alpha", "1", "--d", "2186", "--r1", "2"])
    assert proc.returncode == (0 if epsilon_test(3, 14, 1, 2186, 1, 2) else 1), proc.stderr
    assert json.loads(proc.stdout)["trivial"] == epsilon_test(3, 14, 1, 2186, 1, 2)
    # the scan sweeps every prime up to --p-max
    proc = run_cli(["classify", "--scan", "--p-max", "13", "--n-max", "2"])
    assert sorted({row["p"] for row in json.loads(proc.stdout)}) == [2, 3, 5, 7, 11, 13]


def test_r1_odd_p_integer_u_answers():
    # an integer --u reaches epsilon_test at the precision it needs
    proc = run_cli(["r1", "--p", "3", "--n", "2", "--alpha", "1", "--d", "1", "--u", "1"])
    assert proc.returncode == 0, proc.stderr
    v = r1_max(3, 2, 1, 1, 1)
    assert json.loads(proc.stdout) == {"admissible": list(v.admissible), "maximal": v.maximal, "branch": v.branch}


def test_abelian_classes_enumerate_divisors_quickly():
    # 7^10 - 1 = 2.8e8 candidates to scan but only 80 divisors; 6 does not divide 10, so alpha = 0 only
    proc = run_cli(["classify", "--p", "7", "--n", "10", "--abelian"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pairs"] == [[0, d] for d in divisors(7**10 - 1)]



def _flags(**strategies):
    """Each flag given as --name=value (so negative values stay values), in order;
    a None value leaves its flag out."""
    names = list(strategies)
    return st.tuples(*strategies.values()).map(
        lambda values: [f"--{n.replace('_', '-')}={v}" for n, v in zip(names, values) if v is not None]
    )


def _mostly(valid, invalid):
    """Mostly valid values, so that most examples get past the checks."""
    return st.integers(0, 5).flatmap(lambda i: invalid if i == 3 else valid)


_PRIMES = _mostly(st.sampled_from([2, 3, 5, 7]), st.integers(-1, 9))
_POSITIVE = _mostly(st.integers(1, 6), st.integers(-1, 0))
_UNITS = st.none() | _mostly(
    st.sampled_from(["1", "3", "5", "-1", "p:2 [1,1,0,0,0,0]", "p:3 [2,1,0,0,0,0]", "p:5 [3,0,0,0,0,0]"]),
    st.sampled_from(["0", "2", "x", "", "p:3 [1,,2]", "p:3 []", "p:3 [1", "p:5 [2]", "p:2 [1]"]),
)
_ELEMS = _mostly(
    st.sampled_from(["pi", "1", "[1,2] * pi^2 + 3", "(1+pi)^3", "-7", "[0,1]^2 - pi"]),
    st.sampled_from(["pi^-1", "pi * [1,,2]", "", "+", "rho", "2^-1", "pi^2 [1]", "[]"]),
)


@st.composite
def _tower(draw, max_q):
    """(p, alpha, f), with p^alpha <= max_q when p and alpha are valid."""
    p, f = draw(_PRIMES), draw(_mostly(st.integers(1, 3), st.integers(-1, 0)))
    alpha = draw(_mostly(st.integers(0, 3), st.just(-1)))
    while p >= 2 and alpha > 0 and p**alpha > max_q:
        alpha -= 1
    return p, alpha, f


@st.composite
def _extension(draw, cmd):
    """r1, r2 or epsilon-test: mostly with n a multiple of e = phi(p^alpha),
    d | p^(n/e) - 1 and r1 | e when p and alpha are valid."""
    p, alpha, _ = draw(_tower(9))
    valid = p in (2, 3, 5, 7) and alpha >= 0 and draw(_mostly(st.just(True), st.just(False)))
    e = euler_phi_prime_power(p, alpha) if valid else 1
    n_alpha = draw(st.integers(1, 3))
    n = e * n_alpha if valid else draw(_POSITIVE)
    d = draw(st.sampled_from(divisors(p**n_alpha - 1))) if valid else draw(st.integers(-1, 12))
    argv = [cmd, f"--p={p}", f"--n={n}", f"--alpha={alpha}", f"--d={d}"]
    if cmd != "r1":
        argv.append(f"--r1={draw(st.sampled_from(divisors(e))) if valid else draw(st.integers(-1, 6))}")
    return argv + draw(_flags(u=_UNITS))


@st.composite
def _verify(draw):
    """A shipped script (or a missing one), mostly at its own p and n."""
    script, p, n = draw(st.sampled_from([("q8.rel", 2, 2), ("example049.rel", 3, 4), ("missing.rel", 2, 2)]))
    flags = draw(_mostly(st.just([f"--p={p}", f"--n={n}"]), _flags(p=_PRIMES, n=_POSITIVE)))
    more = draw(_flags(p_prec=_mostly(st.integers(2, 6), st.integers(-1, 1)), u=_UNITS))
    return ["verify", str(SCRIPTS / script), *flags, *more]


@st.composite
def _module(draw):
    """cohomology of a module, mostly with a rank, torsion and action of one shape."""
    rank, torsion, action = draw(
        _mostly(
            st.sampled_from([(1, "", "1"), (1, "", "-1"), (0, "3", "2"), (0, "3,4", "1,0;0,1"), (2, "", "0,1;1,0")]),
            st.sampled_from([(0, "0", "1"), (-1, "", "1"), (1, "", "1,2"), (0, "x", "1"), (0, "-3", "1"), (1, "2", "1")]),
        )
    )
    argv = ["cohomology", f"--rank={rank}", f"--torsion={torsion}", f"--action={action}"]
    return argv + draw(_flags(order=st.none() | _POSITIVE))


def _tower_cmd(cmd, max_q, **more):
    return st.tuples(_tower(max_q), _flags(**more)).map(
        lambda pair: [cmd, f"--p={pair[0][0]}", f"--alpha={pair[0][1]}", f"--f={pair[0][2]}", *pair[1]]
    )


_ARGV = {
    "classify": st.tuples(
        _flags(p=_PRIMES, n=_POSITIVE, u_mod=st.integers(-1, 9)),
        st.sampled_from([[], ["--inner"], ["--abelian"], ["--mode=table"]]),
    ).map(lambda parts: ["classify", *parts[0], *parts[1]])
    | _flags(p_max=st.integers(-1, 5), n_max=st.integers(-1, 4)).map(lambda f: ["classify", "--scan", *f])
    | st.just(["classify"]),
    "epsilon": _tower_cmd("epsilon", 27, pi_prec=st.none() | st.integers(-1, 12)),
    "expand": _tower_cmd("expand", 27, elem=_ELEMS, pi_prec=st.none() | st.integers(-1, 12)),
    "membership": _tower_cmd("membership", 9, k=_POSITIVE, u=_UNITS, elem=st.none() | _ELEMS),
    "r1": _extension("r1"),
    "r2": _extension("r2"),
    "epsilon-test": _extension("epsilon-test"),
    "verify": _verify(),
    "cohomology": st.just(["cohomology", "--golden"]) | _module(),
}


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(st.one_of(*_ARGV.values()))
@example(["epsilon", "--p", "1", "--alpha", "2"])
@example(["epsilon", "--p", "0", "--alpha", "-1"])
@example(["expand", "--p", "1", "--alpha", "1", "--elem", "pi", "--pi-prec", "3"])
def test_every_input_is_answered_or_refused(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse prints its usage and message
            assert exc.code == 2, argv
            return
    assert rc in (0, 1, 2), argv
    if rc == 1:  # a false verdict or a failed check, which only these give
        assert argv[0] in ("membership", "epsilon-test", "verify") or argv == ["cohomology", "--golden"], argv
        assert argv[0] != "verify" or ": fails: " in out.getvalue(), argv
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
    else:
        assert err.getvalue() == "", argv
