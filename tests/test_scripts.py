"""Smoke runs of the timing scripts: each one, in a fresh process, on its
smallest arguments, so a script that calls a removed API fails here."""

import json
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


# scripts that append a run to a JSON record with --json PATH, and the
# repeat count their smallest arguments (RUNS) record
RECORDS = {
    "time_tables.py": 1,
    "time_startup.py": 1,
    "benchmark_amortization.py": 5,   # a fixed REPEATS, no option
}
RECORD_KEYS = {
    "script", "date", "commit", "python", "nproc", "PYTHONDONTWRITEBYTECODE",
    "statistic", "repeat", "workloads", "results",
}


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", list(RUNS))
def test_script_runs(script):
    args, header = RUNS[script]
    assert header in run_script(script, args)


@pytest.mark.parametrize("script", sorted(RECORDS))
def test_script_appends_a_run_to_its_json_record(script, tmp_path):
    path = tmp_path / "BENCH.json"
    args, _ = RUNS[script]
    for _ in range(2):
        run_script(script, args + ["--json", str(path)])
    runs = json.loads(path.read_text())["runs"]
    assert len(runs) == 2
    for run in runs:
        assert set(run) >= RECORD_KEYS
        assert run["script"] == script and run["repeat"] == RECORDS[script]
        assert run["results"]


def test_every_script_is_smoke_tested():
    found = {f for f in os.listdir(SCRIPTS) if f.endswith(".py")}
    assert found == set(RUNS)
