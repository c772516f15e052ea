"""The experiment scripts refuse a bad flag as the entlab CLI does: exit 2,
one stderr line naming the script, nothing on stdout and no file written."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import entlab

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    ("script", "flags", "message"),
    [
        ("kappa_profile.py", ["--steps", "1"], "--steps must be >= 2, got 1"),
        ("kappa_profile.py", ["--m-list", "0"], "tensor power m must be a positive integer, got 0"),
        ("catalysis_decay.py", ["--lambda", "0"], "lambda must lie strictly between 0 and 1, got 0.0"),
        ("embezzle_sweep.py", ["--d-list", "2.5"], "--d-list entries must be integers, got 2.5"),
    ],
    ids=["kappa-steps", "kappa-m", "catalysis-lambda", "embezzle-d"],
)
def test_script_refuses_a_bad_flag_with_exit_2_and_one_line(script, flags, message, tmp_path):
    src = str(Path(entlab.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    out = tmp_path / "out.csv"
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *flags, "--out", str(out)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"{script}: {message}\n"
    assert not out.exists()


def test_catalysis_script_where_the_inverse_of_lambda_overflows(tmp_path):
    """At lambda = 1e-320, 1/lambda is inf; the period is then -log(lambda)
    and every row is written, not refused as a flow time t=inf."""
    src = str(Path(entlab.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    out = tmp_path / "out.csv"
    done = subprocess.run([sys.executable, str(SCRIPTS / "catalysis_decay.py"), "--lambda", "1e-320",
                           "--exp-max", "2", "--out", str(out)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert out.read_bytes() == (b"m,deviation_on_period,deviation_off_period\r\n"
                                b"1,2,2\r\n2,2,2\r\n4,2,2\r\n")
