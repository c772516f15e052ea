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
        ("catalysis_decay.py", ["--exp-max", "-1"], "--exp-max must be >= 0, got -1"),
        ("embezzle_sweep.py", ["--exp-max", "1"], "--exp-max must be >= 2, got 1"),
    ],
    ids=["kappa-steps", "kappa-m", "catalysis-lambda", "embezzle-d", "catalysis-empty-ladder",
         "embezzle-empty-ladder"],
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


def _run_script(script, flags, cwd):
    src = str(Path(entlab.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, str(SCRIPTS / script), *flags],
                          capture_output=True, text=True, env=env, cwd=cwd)


@pytest.mark.parametrize(
    ("script", "flags", "expected"),
    [
        ("embezzle_sweep.py", ["--d-list", "1,5", "--exp-max", "8"],
         b"d,n,fidelity,trace_error,fidelity_bound,epsilon,meets_bound\r\n"
         b"1,4,1,0,1,0,true\r\n1,16,1,0,1,0,true\r\n1,64,1,0,1,0,true\r\n1,256,1,0,1,0,true\r\n"
         b"5,4,0.35726750509315169,1.603411980629867,0,1.523787417879332,true\r\n"
         b"5,16,0.51522267437676672,1.3925190492388007,0.17599533242052237,1.0774804162692151,true\r\n"
         b"5,64,0.62417649801260888,1.2260889070330767,0.37578369275496959,0.87975907590039715,true\r\n"
         b"5,256,0.69809150901954375,1.0989240027962921,0.50375782124421042,0.76189370893966601,true\r\n"),
        ("catalysis_decay.py", ["--lambda", "0.7", "--exp-max", "6"],
         b"m,deviation_on_period,deviation_off_period\r\n"
         b"1,1.1764705882352942,2\r\n2,0.96885813148788935,2\r\n4,0.7040145592126531,2\r\n"
         b"8,0.55070722175931808,2\r\n16,0.38722158487495484,2\r\n32,0.28427314955499167,2\r\n"
         b"64,0.20143061029176318,1.9999999999999998\r\n"),
    ],
    ids=["embezzle-d-1-5", "catalysis-lambda-0.7"],
)
def test_script_csv_bytes_are_pinned(script, flags, expected, tmp_path):
    """The scripts build their rows with the code behind ``entlab embezzle
    sweep`` and ``entlab catalysis decay``; these bytes were recorded when
    each script still had its own copy of that code."""
    out = tmp_path / "out.csv"
    done = _run_script(script, [*flags, "--out", str(out)], tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert out.read_bytes() == expected


@pytest.mark.parametrize(
    ("script", "flags", "out_dir", "message"),
    [
        ("embezzle_sweep.py", ["--exp-max", "4"], "missing", "cannot write output: "),
        ("catalysis_decay.py", ["--exp-max", "2"], "missing", "cannot write output: "),
        ("kappa_profile.py", ["--m-list", "1", "--steps", "3"], "missing", "cannot write output: "),
        ("embezzle_sweep.py", ["--d-list", "100000000000000000000"], ".", "out of memory: "),
        ("kappa_profile.py", ["--m-list", "100000000000000000000"], ".", "out of memory: "),
    ],
    ids=["embezzle-out", "catalysis-out", "kappa-out", "embezzle-d", "kappa-m"],
)
def test_script_exits_3_with_one_line_as_the_cli_does(script, flags, out_dir, message, tmp_path):
    """An unwritable --out or a size NumPy cannot index exits 3 with one
    stderr line naming the script, as ``entlab`` does, not a traceback."""
    out = tmp_path / out_dir / "out.csv"
    done = _run_script(script, [*flags, "--out", str(out)], tmp_path)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith(f"{script}: {message}") and done.stderr.count("\n") == 1
    assert not out.exists()
