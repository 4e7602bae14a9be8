"""Command-line interface: subcommands, formats, exit codes, cache reuse."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import golden_g2
from weylchar import characters, tables
from weylchar.cli import main


@pytest.fixture()
def cache(tmp_path):
    return str(tmp_path / "cache")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_character_text(capsys, cache):
    code, out, err = run(
        capsys, "character", "--algebra", "G2", "--weight", "0,1",
        "--cache-dir", cache,
    )
    assert code == 0 and err == ""
    assert "dimension: 7" in out
    assert "alpha-basis: x y^2 + x y + y + 1 + y^-1 + x^-1 y^-1 + x^-1 y^-2" in out
    assert "[0, 0]  1" in out


def test_character_json(capsys, cache):
    code, out, _ = run(
        capsys, "character", "--algebra", "A1", "--weight", "3",
        "--format", "json", "--cache-dir", cache,
    )
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 4
    assert data["presentation"] == "u^(3/2) + u^(1/2) + u^(-1/2) + u^(-3/2)"
    exps = [tuple(m["exponents"]) for m in data["monomials"]]
    assert exps == sorted(exps, key=lambda e: (sum(e), e))


def test_character_weyl_method(capsys, cache):
    code, out, _ = run(
        capsys, "character", "--algebra", "A2", "--weight", "1,1",
        "--method", "weyl", "--cache-dir", cache,
    )
    assert code == 0
    assert "method: weyl" in out
    assert "dimension: 8" in out


def test_gamma_text_matches_golden(capsys, cache):
    code, out, _ = run(capsys, "gamma", "--algebra", "G2", "--cache-dir", cache)
    assert code == 0
    assert "entries: 12 (= |W|)" in out
    for k, drop in enumerate(golden_g2.CANDIDATES_SLOT1, start=1):
        assert f"{k}: {list(drop)}" in out
    for selector, sign in golden_g2.ENTRIES.items():
        assert f"{list(selector)}  {'+1' if sign > 0 else '-1'}" in out


def test_gamma_json(capsys, cache):
    code, out, _ = run(
        capsys, "gamma", "--algebra", "G2", "--format", "json",
        "--cache-dir", cache,
    )
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 12
    assert data["candidates"][0] == [list(d) for d in golden_g2.CANDIDATES_SLOT1]
    got = {tuple(e["selector"]): e["signature"] for e in data["entries"]}
    assert got == golden_g2.ENTRIES


def test_tensor_text(capsys, cache):
    code, out, _ = run(
        capsys, "tensor", "--algebra", "G2", "--left", "1,0",
        "--right", "1,1", "--cache-dir", cache,
    )
    assert code == 0
    assert "2 x [1, 1]  dim 64" in out
    assert "dimension check: 14 * 64 = 896" in out


def test_tensor_json(capsys, cache):
    code, out, _ = run(
        capsys, "tensor", "--algebra", "G2", "--left", "1,0",
        "--right", "1,1", "--format", "json", "--cache-dir", cache,
    )
    assert code == 0
    data = json.loads(out)
    got = {tuple(s["weight"]): s["multiplicity"] for s in data["summands"]}
    assert got == golden_g2.TENSOR_L1_BY_L1L2
    assert data["dimension_check"]["product"] == data["dimension_check"]["sum"]


def test_tensor_builds_or_loads_one_table(capsys, cache, monkeypatch):
    builds = []
    real_build = tables.build_table

    def counting_build(a):
        builds.append(a.name)
        return real_build(a)

    monkeypatch.setattr(tables, "build_table", counting_build)

    def fresh_process_request():
        tables.shared_table.cache_clear()
        characters._character_cached.cache_clear()
        return run(
            capsys, "tensor", "--algebra", "G2", "--left", "1,0",
            "--right", "1,1", "--cache-dir", cache,
        )[0]

    assert fresh_process_request() == 0
    assert builds == ["G2"]  # empty cache: one build, saved
    assert fresh_process_request() == 0
    assert builds == ["G2"]  # filled cache: loaded, no build


def test_dimension(capsys, cache):
    code, out, _ = run(
        capsys, "dimension", "--algebra", "F4", "--weight", "0,0,0,1",
        "--cache-dir", cache,
    )
    assert code == 0
    assert "dimension: 26" in out


def test_verify_passes(capsys, cache):
    code, out, _ = run(
        capsys, "verify", "--algebra", "B2", "--depth", "2",
        "--cache-dir", cache,
    )
    assert code == 0
    assert "result: all checks passed" in out


def test_verify_json(capsys, cache):
    code, out, _ = run(
        capsys, "verify", "--algebra", "A2", "--format", "json",
        "--cache-dir", cache,
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert {c["name"] for c in data["checks"]} >= {
        "entry-count-matches-group-order",
        "alternant-routes-agree",
        "characters-match-recursion-and-dimension",
    }
    assert all(c["passed"] for c in data["checks"])


def test_verify_rejects_negative_depth(capsys, cache):
    for fmt in ("text", "json"):
        code, out, err = run(
            capsys, "verify", "--algebra", "B2", "--depth", "-1",
            "--format", fmt, "--cache-dir", cache,
        )
        assert code == 2
        assert err.startswith("error:") and "--depth" in err and out == ""
    assert not os.path.exists(cache)  # refused before any table is touched


def test_exit_code_2_on_bad_input(capsys, cache):
    for argv in [
        ["character", "--algebra", "Q9", "--weight", "1"],
        ["character", "--algebra", "G2", "--weight", "1"],
        ["character", "--algebra", "G2", "--weight", "1,x"],
        ["character", "--algebra", "G2", "--weight=-1,0"],
        ["dimension", "--algebra", "D3", "--weight", "1,1,1"],
    ]:
        code, out, err = run(capsys, *argv, "--cache-dir", cache)
        assert code == 2
        assert err.startswith("error:") and out == ""


def test_exit_code_4_on_envelope(capsys, cache):
    for name in ["E7", "E8", "B7"]:
        code, _, err = run(
            capsys, "gamma", "--algebra", name, "--cache-dir", cache
        )
        assert code == 4
        assert "envelope" in err


def test_exit_code_3_on_tampered_cache(capsys, cache):
    code, _, _ = run(capsys, "gamma", "--algebra", "A2", "--cache-dir", cache)
    assert code == 0
    path = os.path.join(cache, "a2.v1.json")
    data = json.loads(open(path).read())
    data["entries"][0]["signature"] *= -1
    other = {k: v for k, v in data.items() if k != "checksum"}
    data["checksum"] = tables._checksum(other)
    with open(path, "w") as fh:
        json.dump(data, fh)
    code, _, err = run(capsys, "gamma", "--algebra", "A2", "--cache-dir", cache)
    assert code == 3
    assert "signature" in err


def test_cache_file_created_and_reused(capsys, cache):
    run(capsys, "gamma", "--algebra", "G2", "--cache-dir", cache)
    path = os.path.join(cache, "g2.v1.json")
    assert os.path.exists(path)
    before = open(path, "rb").read()
    code, _, _ = run(
        capsys, "character", "--algebra", "G2", "--weight", "1,0",
        "--cache-dir", cache,
    )
    assert code == 0
    assert open(path, "rb").read() == before


def test_cache_dir_env_honored(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(tables.CACHE_DIR_ENV, str(tmp_path))
    code, _, _ = run(capsys, "gamma", "--algebra", "A2")
    assert code == 0
    assert os.path.exists(tmp_path / "a2.v1.json")


def test_json_output_deterministic(capsys, cache):
    argv = [
        "character", "--algebra", "B2", "--weight", "1,1",
        "--format", "json", "--cache-dir", cache,
    ]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_console_script_entry_point(tmp_path):
    exe = shutil.which("weylchar")
    if exe is None:
        pytest.skip("console script not on PATH")
    env = dict(os.environ, WEYLCHAR_CACHE_DIR=str(tmp_path))
    proc = subprocess.run(
        [exe, "dimension", "--algebra", "A1", "--weight", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "dimension: 2" in proc.stdout


def test_module_entry_point(tmp_path):
    env = dict(os.environ, WEYLCHAR_CACHE_DIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-m", "weylchar", "dimension", "--algebra", "A1",
         "--weight", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "dimension: 3" in proc.stdout
