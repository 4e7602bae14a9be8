"""Smoke runs of the timing scripts: each one, in a fresh process, on its
smallest arguments, so a script that calls a removed API fails here."""

import os
import subprocess
import sys

import pytest

import weylchar

SRC = os.path.dirname(os.path.dirname(weylchar.__file__))
SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts")


# script -> (smallest arguments, a word its header prints)
RUNS = {
    "time_tables.py": (
        ["--algebras", "G2", "--repeat", "1", "--weights", "1"], "build"
    ),
    "benchmark_amortization.py": (
        ["--algebras", "G2", "--count", "5"], "build+alt"
    ),
    "time_startup.py": (["--repeat", "1"], "character"),
}


@pytest.mark.parametrize("script", list(RUNS))
def test_script_runs(script):
    args, header = RUNS[script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout


def test_every_script_is_smoke_tested():
    found = {f for f in os.listdir(SCRIPTS) if f.endswith(".py")}
    assert found == set(RUNS)
