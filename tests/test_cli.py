import os
import subprocess
import sys
from pathlib import Path

import pytest

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
]


@pytest.mark.parametrize("argv", REJECTED, ids=[" ".join(a) for a in REJECTED])
def test_bad_input_exits_2_with_message(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("STABFORGE_PREC_OVERRIDE", None)
    proc = subprocess.run(
        [sys.executable, "-m", "stabforge.cli", *argv], capture_output=True, text=True, timeout=10, env=env, cwd=SCRIPTS
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
