"""Command-line interface: subcommands, formats, exit codes, the ignored
--cache-dir, argument parsing and the JSON writer."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import given, strategies as st

import faults
import golden_g2
from oracles import ORACLE_ALGEBRAS
from weylchar import characters, cli, tables, tensor, verify
from weylchar.algebra import MAX_RANK, build_algebra
from weylchar.characters import character
from weylchar.cli import main
from weylchar.errors import IntegrityError


def run(capsys, *argv):
    """(exit code, stdout, stderr) of one request.

    Every JSON output must also be exactly what json.dumps writes for the
    value it holds.
    """
    code = main(list(argv))
    captured = capsys.readouterr()
    if code == 0 and ("json" in argv or "--format=json" in argv):
        assert captured.out == json.dumps(
            json.loads(captured.out), sort_keys=True, indent=2
        ) + "\n"
    return code, captured.out, captured.err


def test_character_text(capsys):
    code, out, err = run(
        capsys, "character", "--algebra", "G2", "--weight", "0,1",
    )
    assert code == 0 and err == ""
    assert "dimension: 7" in out
    assert "alpha-basis: x y^2 + x y + y + 1 + y^-1 + x^-1 y^-1 + x^-1 y^-2" in out
    assert "[0, 0]  1" in out


def test_character_json(capsys):
    code, out, _ = run(
        capsys, "character", "--algebra", "A1", "--weight", "3",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 4
    assert data["presentation"] == "u^(3/2) + u^(1/2) + u^(-1/2) + u^(-3/2)"
    exps = [tuple(m["exponents"]) for m in data["monomials"]]
    assert exps == sorted(exps, key=lambda e: (sum(e), e))


def test_character_weyl_method(capsys):
    code, out, _ = run(
        capsys, "character", "--algebra", "A2", "--weight", "1,1",
        "--method", "weyl",
    )
    assert code == 0
    assert "method: weyl" in out
    assert "dimension: 8" in out


def test_gamma_text_matches_golden(capsys):
    code, out, _ = run(capsys, "gamma", "--algebra", "G2")
    assert code == 0
    assert "entries: 12 (= |W|)" in out
    for k, drop in enumerate(golden_g2.CANDIDATES_SLOT1, start=1):
        assert f"{k}: {list(drop)}" in out
    for selector, sign in golden_g2.ENTRIES.items():
        assert f"{list(selector)}  {'+1' if sign > 0 else '-1'}" in out


def test_gamma_json(capsys):
    code, out, _ = run(
        capsys, "gamma", "--algebra", "G2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 12
    assert data["candidates"][0] == [list(d) for d in golden_g2.CANDIDATES_SLOT1]
    got = {tuple(e["selector"]): e["signature"] for e in data["entries"]}
    assert got == golden_g2.ENTRIES


def test_tensor_text(capsys):
    code, out, _ = run(
        capsys, "tensor", "--algebra", "G2", "--left", "1,0",
        "--right", "1,1",
    )
    assert code == 0
    assert "2 x [1, 1]  dim 64" in out
    assert "dimension check: 14 * 64 = 896" in out


def test_tensor_json(capsys):
    code, out, _ = run(
        capsys, "tensor", "--algebra", "G2", "--left", "1,0",
        "--right", "1,1", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    got = {tuple(s["weight"]): s["multiplicity"] for s in data["summands"]}
    assert got == golden_g2.TENSOR_L1_BY_L1L2
    assert data["dimension_check"]["product"] == data["dimension_check"]["sum"]


def test_tensor_builds_one_table(capsys, monkeypatch):
    builds = []
    real_build = tables.build_table

    def counting_build(a):
        builds.append(a.name)
        return real_build(a)

    monkeypatch.setattr(tables, "build_table", counting_build)
    for n in (1, 2):
        # what a fresh process starts without
        tables.shared_table.cache_clear()
        characters._character_cached.cache_clear()
        code, _, _ = run(
            capsys, "tensor", "--algebra", "G2", "--left", "1,0",
            "--right", "1,1",
        )
        assert code == 0
        assert builds == ["G2"] * n  # one build per request


def test_dimension(capsys):
    code, out, _ = run(
        capsys, "dimension", "--algebra", "F4", "--weight", "0,0,0,1",
    )
    assert code == 0
    assert "dimension: 26" in out


def test_dimension_at_the_rank_envelope(capsys):
    """A24, the largest rank kept, answers in text and in JSON."""
    weight = ",".join(["1"] + ["0"] * 23)
    code, out, _ = run(capsys, "dimension", "--algebra", "A24", "--weight", weight)
    assert code == 0
    assert "dimension: 25" in out
    code, out, _ = run(
        capsys, "dimension", "--algebra", "A24", "--weight", weight,
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["dimension"] == 25


def test_verify_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--algebra", "B2", "--depth", "2",
    )
    assert code == 0
    assert "result: all checks passed" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--algebra", "A2", "--format", "json",
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


def orbit_check(a, table):
    """(passed, detail) of verify's candidate-counts-match-orbit-sizes."""
    for name, passed, detail in verify._verify_checks(a, table, 0):
        if name == "candidate-counts-match-orbit-sizes":
            return passed, detail


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_verify_counts_orbits_apart_from_the_candidates(name):
    """The orbit sizes come from the group, not from the walk that made the
    candidates: a table whose slot k lost a candidate fails the check."""
    a = build_algebra(name[0], int(name[1:]))
    table = tables.shared_table(a)
    assert orbit_check(a, table)[0]
    fields = {f: getattr(table, f) for f in tables.AlternantTable.__slots__}
    for k, slot in enumerate(table.candidates, 1):
        cands = list(table.candidates)
        cands[k - 1] = slot[:-1]
        short = tables.AlternantTable(**dict(fields, candidates=tuple(cands)))
        passed, detail = orbit_check(a, short)
        assert not passed
        assert f"slot {k}: {len(slot) - 1}/{len(slot)}" in detail.split(", ")


def test_verify_rejects_negative_depth(capsys, monkeypatch):
    def no_table(a):
        raise AssertionError("refused before any table is touched")

    monkeypatch.setattr(tables, "shared_table", no_table)
    for fmt in ("text", "json"):
        for depth in (["--depth", "-1"], ["--depth=-1"]):
            code, out, err = run(
                capsys, "verify", "--algebra", "B2", *depth, "--format", fmt,
            )
            assert code == 2 and out == ""
            assert err == "error: --depth must be non-negative, got -1\n"


def test_verify_refuses_a_grid_past_the_envelope(capsys, monkeypatch):
    """A grid of more than 4,096 weights, however deep, exits 4 on the work
    budget before any table or grid is made."""
    def no_table(a):
        raise AssertionError("refused before any table is touched")

    monkeypatch.setattr(tables, "shared_table", no_table)
    for algebra, depth in [
        ("A1", "99999999999999999999"),
        ("A1", "9" * 30),
        ("A1", "4096"),
        ("A2", "64"),
        ("A24", "9" * 4300),
        ("B3", "400"),
        ("B3", "16"),
        ("E6", "4"),
    ]:
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", "--algebra", algebra, "--depth", depth)
        assert time.perf_counter() - t0 < 1.0
        assert code == 4 and out == ""
        assert err == (
            f"error: verify --depth {depth} on {algebra} would take on more than "
            f"{verify.VERIFY_MAX_WORK} units of work, past the verify envelope\n"
        )


# every type the command line takes: the classical families up to MAX_RANK
SUPPORTED = (
    [f"A{r}" for r in range(1, MAX_RANK + 1)]
    + [f"{f}{r}" for f in "BC" for r in range(2, MAX_RANK + 1)]
    + [f"D{r}" for r in range(4, MAX_RANK + 1)]
    + ["G2", "F4", "E6", "E7", "E8"]
)


def test_work_budget_refuses_every_grid_past_4096_weights():
    """The budget is verify's one envelope: on every supported type, the
    smallest depth whose grid holds more than 4,096 weights already passes
    it, so the budget alone refuses every grid past 4,096 weights."""
    assert len(SUPPORTED) == 96
    for name in SUPPORTED:
        a = build_algebra(name[0], int(name[1:]))
        depth = next(d for d in range(4097) if (d + 1) ** a.rank > 4096)
        assert verify._verify_work(a, depth) > verify.VERIFY_MAX_WORK, name


# verify requests the work budget must admit: the benchmark's and CI's
ADMITTED = [("B3", 1), ("C3", 1), ("F4", 1), ("D5", 1), ("E6", 0), ("G2", 2)] + [
    (name, 0) for name in
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5"]
]
# and two it must refuse: each grid holds at most 4,096 weights, and each
# ran for minutes before the budget
REFUSED = [("A7", 1), ("A1", 4095)]


def test_verify_work_budget():
    """From the estimates alone: nothing is verified."""
    for name, depth in ADMITTED:
        a = build_algebra(name[0], int(name[1:]))
        assert verify._verify_work(a, depth) <= verify.VERIFY_MAX_WORK, name
    for name, depth in REFUSED:
        a = build_algebra(name[0], int(name[1:]))
        assert verify._verify_work(a, depth) > verify.VERIFY_MAX_WORK, name


def test_verify_work_counts_by_hand(monkeypatch):
    """|W| + sum over the dominant mu below lam of |W| + N (1 + ht(lam - mu)).

    A1 (|W| = 2, N = 1): the weights 0 and 1 have only themselves below,
    2 (1 + 1) + 1 = 5 each; the weight 2 has 2 and 0 = 2 - a_1 below,
    2 (1 + 2) + (1 + 0) + (1 + 1) = 9.  G2 (|W| = 12, N = 6) at 0: 30.
    """
    a1 = build_algebra("A", 1)
    assert verify._verify_work(a1, 1) == 10
    assert verify._verify_work(a1, 2) == 5 + 5 + 9
    assert verify._verify_work(build_algebra("G", 2), 0) == 30
    monkeypatch.setattr(verify, "VERIFY_MAX_WORK", 7)
    assert verify._verify_work(a1, 2) == 10   # stops once past the budget


def test_verify_refuses_work_past_the_budget(capsys, monkeypatch):
    """Exit 4 before any table, group or grid is made, from the estimate."""
    def nothing_made(*args, **kwargs):
        raise AssertionError("refused before anything is made")

    monkeypatch.setattr(tables, "shared_table", nothing_made)
    monkeypatch.setattr("weylchar.weylgroup.generate", nothing_made)
    monkeypatch.setattr(verify, "_verify_checks", nothing_made)
    for name, depth in REFUSED:
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", "--algebra", name, "--depth", str(depth))
        assert time.perf_counter() - t0 < 2.0
        assert code == 4 and out == ""
        assert err == (
            f"error: verify --depth {depth} on {name} would take on more than "
            f"{verify.VERIFY_MAX_WORK} units of work, past the verify envelope\n"
        )


def test_exit_code_2_on_bad_input(capsys):
    for argv in [
        ["character", "--algebra", "Q9", "--weight", "1"],
        ["character", "--algebra", "G2", "--weight", "1"],
        ["character", "--algebra", "G2", "--weight", "1,x"],
        ["character", "--algebra", "G2", "--weight=-1,0"],
        ["dimension", "--algebra", "D3", "--weight", "1,1,1"],
        # str.isdigit() takes superscripts; int() reads Arabic-Indic digits
        ["dimension", "--algebra", "G\u00b2", "--weight", "1,0"],
        ["dimension", "--algebra", "B\u00b9", "--weight", "1,0"],
        ["dimension", "--algebra", "G\u0662", "--weight", "1,0"],
        # past the 4,300 digits int() reads from Python 3.11 on
        ["dimension", "--algebra", "G2", "--weight", "1," + "1" * 5000],
        ["tensor", "--algebra", "G2", "--left", "1" * 5000 + ",0", "--right", "1,0"],
        ["tensor", "--algebra", "G2", "--left", "1,0", "--right", "0," + "2" * 5000],
        ["verify", "--algebra", "G2", "--depth", "1" * 5000],
        ["dimension", "--algebra", "A" + "1" * 5000, "--weight", "1"],
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and out == ""
        assert len(err) < 200  # the number is not echoed back


@pytest.mark.parametrize("argv", [
    [],
    ["nope"],
    ["--algebra", "G2", "character", "--weight", "1,0"],
    ["character", "--weight", "1,0"],
    ["tensor", "--algebra", "G2", "--left", "1,0"],
    ["character", "--algebra", "G2", "--weight", "1,0", "--colour", "red"],
    ["gamma", "--algebra", "G2", "--weight", "1,0"],
    ["character", "--alg", "G2", "--weight", "1,0"],
    ["character", "--algebra", "G2", "--weight"],
    ["character", "--algebra", "--weight", "1,0"],
    ["dimension", "--algebra", "G2", "--weight", "1,0", "extra"],
    ["gamma", "--algebra", "G2", "--format", "xml"],
    ["gamma", "--algebra", "G2", "--format=JSON"],
    ["character", "--algebra", "G2", "--weight", "1,0", "--method", "freud"],
    ["verify", "--algebra", "G2", "--depth", "x"],
    ["verify", "--algebra", "G2", "--depth=+1"],
], ids=[
    "no-command", "unknown-command", "option-before-command",
    "missing-algebra", "missing-right", "unknown-option",
    "option-of-another-command", "abbreviated-option", "no-value-at-end",
    "no-value-before-option", "stray-argument", "bad-format",
    "format-is-case-sensitive", "bad-method", "depth-not-a-number",
    "depth-with-plus",
])
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_exits_0(capsys, flag):
    code, out, err = run(capsys, flag)
    assert code == 0 and err == "" and out.startswith("usage: weylchar COMMAND")
    assert all(f"\n  {command} " in out for command in cli._COMMANDS)
    for command, (_, _, required, optional) in cli._COMMANDS.items():
        # help wins over any other argument, good or bad
        for argv in ([command, flag], [command, "--algebra", "Q9", "--bad", flag]):
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == ""
            assert out.startswith(f"usage: weylchar {command} --algebra ")
            assert all(f"\n  {o} " in out for o in [*required, *optional])


def test_options_take_either_form(capsys):
    spaced = run(capsys, "tensor", "--algebra", "G2", "--left", "1,0",
                 "--right", "0,1", "--method", "weyl", "--format", "json")
    joined = run(capsys, "tensor", "--algebra=G2", "--left=1,0", "--right=0,1",
                 "--method=weyl", "--format=json")
    reordered = run(capsys, "tensor", "--format", "json", "--right", "0,1",
                    "--method=weyl", "--left", "1,0", "--algebra", "G2")
    assert spaced[0] == 0 and spaced == joined == reordered


_ODD_CHARS = '"\\/\x00\x08\t\n\x0c\r\x1f \x7f\x80\xe9\u2028\uffff\U0001f600\U0010ffff'
_TEXT = st.text(st.sampled_from(_ODD_CHARS) | st.characters(), max_size=12)
_VALUES = st.recursive(
    st.integers() | st.booleans() | _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)


@given(_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert cli._json(value, "") == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    None, 1.5, (1, 2), {1: 2}, {"a": {("b",): 1}}, [set()], b"x",
])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json(value, "")


@pytest.mark.parametrize("weight", [
    "1_0,0",            # int() reads 10
    "\u0663,0",         # ARABIC-INDIC DIGIT THREE, which int() reads as 3
    "+1,0",
    "1,\uff10",         # FULLWIDTH DIGIT ZERO
    "-,0",
    "1,",
])
def test_weights_take_only_ascii_digits(capsys, weight):
    for command in ("character", "dimension"):
        code, out, err = run(capsys, command, "--algebra", "G2", f"--weight={weight}")
        assert code == 2 and out == ""
        assert err == (
            f"error: --weight must be comma-separated integers, got {weight!r}\n"
        )
    code, _, err = run(
        capsys, "tensor", "--algebra", "G2", "--left", "1,0", f"--right={weight}",
    )
    assert code == 2 and "--right must be comma-separated integers" in err


def test_negative_weight_is_reported_as_not_dominant(capsys):
    code, out, err = run(capsys, "dimension", "--algebra", "G2", "--weight", "-1, 0")
    assert code == 2 and out == ""
    assert err == "error: --weight must be dominant (non-negative), got [-1, 0]\n"


def test_exit_code_4_on_envelope(capsys):
    for name in ["E7", "E8", "B7"]:
        code, _, err = run(capsys, "gamma", "--algebra", name)
        assert code == 4
        assert "envelope" in err


def test_rank_past_the_envelope_exits_4_at_once(capsys):
    for label in ["A25", "D1000", "B" + str(10**6)]:
        t0 = time.perf_counter()
        code, out, err = run(capsys, "dimension", "--algebra", label, "--weight", "1")
        assert time.perf_counter() - t0 < 1.0
        assert code == 4 and out == ""
        assert err.startswith("error: ") and "rank envelope" in err


def test_runaway_characters_exit_4_at_once(capsys):
    """Weights far below 2^60 whose characters have too many dominant
    weights are refused by the descent's cap, not computed for minutes."""
    for argv in [
        ("character", "--algebra", "G2", "--weight", "100000000000,0"),
        ("character", "--algebra", "A1", "--weight", "1000000000"),
        ("tensor", "--algebra", "A1", "--left", "1000000000",
         "--right", "1000000000"),
    ]:
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 2.0
        assert code == 4 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "dominant weights" in err


def test_exit_code_3_on_failed_verification(capsys, monkeypatch):
    faults.verify(monkeypatch.setattr)
    code, out, err = run(capsys, "verify", "--algebra", "A2")
    assert code == 3 and err == ""
    failed = [line for line in out.splitlines() if line.startswith("  FAIL ")]
    assert failed == ["  FAIL alternant-routes-agree: first mismatch at [0, 0]"]
    assert out.endswith("result: FAILED\n")


def test_exit_code_3_on_corrupted_denominator(capsys, monkeypatch):
    faults.character(monkeypatch.setattr)
    characters._character_cached.cache_clear()
    with pytest.raises(IntegrityError):
        character(build_algebra("G", 2), (1, 0))
    code, out, err = run(capsys, "character", "--algebra", "G2", "--weight", "1,0")
    assert code == 3
    assert err.startswith("error:") and out == ""
    characters._character_cached.cache_clear()


def test_verify_reports_a_failing_character(capsys, monkeypatch):
    """With one sign of the G2 table flipped, verify still prints its report:
    the character check fails like the two alternant checks, stderr stays
    empty and the exit code is 3."""
    g2 = build_algebra("G", 2)
    table = tables.shared_table(g2)
    n = [row for row, _ in tables.rho_shifts(table)].index((1, 0))  # s_1
    signs = list(table.signatures)
    signs[n] = -signs[n]
    flipped = tables.AlternantTable(
        algebra=g2, candidates=table.candidates, levels=table.levels,
        signatures=tuple(signs),
    )
    monkeypatch.setattr(tables, "shared_table", lambda a: flipped)
    characters._character_cached.cache_clear()
    try:
        code, out, err = run(capsys, "verify", "--algebra", "G2", "--depth", "1")
    finally:
        characters._character_cached.cache_clear()
    assert code == 3 and err == ""
    failed = [line for line in out.splitlines() if line.startswith("  FAIL ")]
    assert [line.split(":")[0] for line in failed] == [
        "  FAIL alternant-routes-agree",
        "  FAIL characters-match-recursion-and-dimension",
        "  FAIL signatures-match-expansion",
    ]
    assert "non-positive multiplicity" in failed[1]
    assert out.endswith("result: FAILED\n")


def test_exit_code_3_on_negative_tensor_multiplicity(capsys, monkeypatch):
    # only the highest weight's term reaches the top summand, so its net
    # multiplicity turns from 1 to -1
    faults.tensor_top(monkeypatch.setattr)
    with pytest.raises(IntegrityError, match="net multiplicity -1 at"):
        tensor.tensor_decompose(build_algebra("G", 2), (1, 0), (1, 1))
    code, out, err = run(
        capsys, "tensor", "--algebra", "G2", "--left", "1,0", "--right", "1,1",
    )
    assert code == 3
    assert err.startswith("error:") and out == ""


@pytest.mark.parametrize("argv", [
    ["character", "--algebra", "G2", "--weight", "1,0"],
    ["character", "--algebra", "G2", "--weight", "1,0", "--method", "weyl"],
    ["gamma", "--algebra", "A2"],
    ["tensor", "--algebra", "G2", "--left", "1,0", "--right", "0,1"],
    ["verify", "--algebra", "A2"],
    ["dimension", "--algebra", "B3", "--weight", "1,0,1"],
], ids=["character", "character-weyl", "gamma", "tensor", "verify", "dimension"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cache_dir_flag_and_env_are_ignored(capsys, monkeypatch, tmp_path, argv, fmt):
    argv = argv + ["--format", fmt]
    cache = tmp_path / "cache"
    plain = run(capsys, *argv)
    assert plain[0] == 0
    assert run(capsys, *argv, "--cache-dir", str(cache)) == plain
    monkeypatch.setenv("WEYLCHAR_CACHE_DIR", str(cache))
    assert run(capsys, *argv) == plain
    assert not cache.exists()


def test_json_output_deterministic(capsys):
    argv = [
        "character", "--algebra", "B2", "--weight", "1,1",
        "--format", "json",
    ]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_console_script_entry_point():
    exe = shutil.which("weylchar")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "dimension", "--algebra", "A1", "--weight", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "dimension: 2" in proc.stdout


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "weylchar", "dimension", "--algebra", "A1",
         "--weight", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "dimension: 3" in proc.stdout


TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (TESTS, SRC, env.get("PYTHONPATH")) if p
    )
    return env


# the package's __main__ run as `python -m` runs it, after one fault of
# tests/faults.py is installed; argv[1] names the fault
FAULTY_MAIN = (
    "import runpy, sys, faults; "
    "getattr(faults, sys.argv.pop(1))(setattr); "
    "runpy.run_module('weylchar', run_name='__main__', alter_sys=True)"
)

# (argv, fault or None, exit code): every command, and every exit code the
# commands document
ENTRY_CASES = [
    (["character", "--algebra", "G2", "--weight", "1,0"], None, 0),
    (["character", "--algebra", "B2", "--weight", "1,1", "--format", "json"], None, 0),
    (["gamma", "--algebra", "A2", "--format", "json"], None, 0),
    (["tensor", "--algebra", "G2", "--left", "1,0", "--right", "0,1"], None, 0),
    (["verify", "--algebra", "B3", "--depth", "1", "--format", "json"], None, 0),
    (["dimension", "--algebra", "B3", "--weight", "1,0,1"], None, 0),
    (["--help"], None, 0),
    (["character", "--algebra", "G2", "--weight", "1,x"], None, 2),
    (["gamma", "--algebra", "Q9"], None, 2),
    (["tensor", "--algebra", "G2", "--left", "1,0"], None, 2),
    (["verify", "--algebra", "B2", "--depth", "-1"], None, 2),
    (["dimension", "--algebra", "D3", "--weight", "1,1,1"], None, 2),
    (["character", "--algebra", "G2", "--weight", "1,0"], "character", 3),
    (["tensor", "--algebra", "G2", "--left", "1,0", "--right", "1,1"], "tensor_top", 3),
    (["verify", "--algebra", "A2", "--format", "json"], "verify", 3),
    (["character", "--algebra", "G2", "--weight", "100000000000,0"], None, 4),
    (["gamma", "--algebra", "E7"], None, 4),
    (["tensor", "--algebra", "A1", "--left", "1000000000", "--right", "1000000000"],
     None, 4),
    (["verify", "--algebra", "E6", "--depth", "4"], None, 4),
    (["dimension", "--algebra", "A25", "--weight", ",".join("0" * 25)], None, 4),
]


@pytest.mark.parametrize("argv,fault,code", ENTRY_CASES,
                         ids=[f"{c[0][0]}-{c[2]}" for c in ENTRY_CASES])
def test_module_entry_writes_what_main_writes(capsys, monkeypatch, argv, fault, code):
    """A fresh `python -m weylchar` process, which ends through cli.run and
    os._exit, prints the bytes main() prints in-process, on stdout and on
    stderr, and exits with the code main() returns."""
    if fault is None:
        cmd = [sys.executable, "-m", "weylchar", *argv]
    else:
        cmd = [sys.executable, "-c", FAULTY_MAIN, fault, *argv]
    proc = subprocess.run(cmd, capture_output=True, env=child_env(), timeout=60)

    if fault is not None:
        getattr(faults, fault)(monkeypatch.setattr)
    characters._character_cached.cache_clear()
    try:
        got = main(list(argv))   # returns: a SystemExit would fail the test
    finally:
        characters._character_cached.cache_clear()
    captured = capsys.readouterr()
    assert type(got) is int and got == code
    assert proc.returncode == code
    assert proc.stdout == captured.out.encode()
    assert proc.stderr == captured.err.encode()


def test_a_reader_that_stops_early_ends_the_request_with_exit_1():
    """`| head -c 10`: the output (168 kB) outgrows the pipe, the write that
    meets the closed pipe ends the request with code 1, and no traceback."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "weylchar", "character", "--algebra", "D5",
         "--weight", "1,1,0,1,1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    assert proc.stdout.read(10) == b"algebra: D"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_a_closed_stdout_is_not_flushed():
    """With stdout closed (`>&-`) sys.stdout is None: the answer goes
    nowhere, and the request still exits 0."""
    proc = subprocess.run(
        ["sh", "-c", '"$0" -m weylchar dimension --algebra G2 --weight 1,1 >&-',
         sys.executable],
        capture_output=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""


class _UnwritableStream:
    """A stream whose every write fails, as one on a full device does."""

    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


@pytest.mark.parametrize("argv,code", [
    (["dimension", "--algebra", "G2", "--weight", "x"], 2),
    (["character", "--algebra", "G2", "--weight", "1,0"], 3),
    (["gamma", "--algebra", "E7"], 4),
], ids=["input-2", "integrity-3", "envelope-4"])
def test_an_unwritable_stderr_keeps_the_exit_code(monkeypatch, argv, code):
    """The `error:` line cannot be written; main() still returns the code of
    the error, and raises nothing."""
    if code == 3:
        faults.character(monkeypatch.setattr)
    monkeypatch.setattr(sys, "stderr", _UnwritableStream())
    characters._character_cached.cache_clear()
    try:
        assert main(argv) == code
    finally:
        characters._character_cached.cache_clear()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("redirect,code", [
    ("--weight x 2>/dev/full", 2),   # only the error line is lost
    ("--weight 1,1 >/dev/full", 1),  # the answer is lost
], ids=["stderr-2", "stdout-1"])
def test_a_full_device_ends_the_request_without_a_traceback(redirect, code):
    proc = subprocess.run(
        ["sh", "-c", f'"$0" -m weylchar dimension --algebra G2 {redirect}',
         sys.executable],
        capture_output=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == code
    assert b"Traceback" not in proc.stderr
