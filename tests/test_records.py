"""Immutable records (no assignment, equality rules, reprs), light imports
and the lazy package namespace."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import weylchar
from weylchar import characters
from weylchar.algebra import WeightVec, build_algebra
from weylchar.characters import character
from weylchar.tables import build_table, exponent_forms
from weylchar.tensor import tensor_decompose
from weylchar.weylgroup import generate


@pytest.fixture(scope="module")
def records():
    """One instance of each record type, plus an independently built twin."""
    g2 = build_algebra("G", 2)

    def make():
        table = build_table(g2)
        characters._character_cached.cache_clear()  # a twin, not the memo
        return {
            "WeightVec": WeightVec.weight((1, 0)),
            "Algebra": g2,
            "AlternantTable": table,
            "AffineExponents": exponent_forms(table)[0],
            "WeylGroup": generate(g2),
            "CharacterResult": character(g2, (1, 0)),
            "Decomposition": tensor_decompose(g2, (1, 0), (0, 1)),
        }

    return make(), make()


# record type -> one of its fields
FIELDS = {
    "WeightVec": "coords",
    "Algebra": "rank",
    "AlternantTable": "signatures",
    "AffineExponents": "constant",
    "WeylGroup": "elements",
    "CharacterResult": "poly",
    "Decomposition": "summands",
}


@pytest.mark.parametrize("name, field", FIELDS.items())
def test_records_are_immutable(records, name, field):
    obj = records[0][name]
    assert type(obj).__name__ == name
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        obj.extra = 1
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) is before


# the records that take the constructor of Frozen
GENERIC = ["Algebra", "AlternantTable", "AffineExponents", "WeylGroup",
           "CharacterResult", "Decomposition"]


@pytest.mark.parametrize("name", GENERIC)
def test_records_refuse_missing_unknown_and_repeated_fields(records, name):
    obj = records[0][name]
    cls = type(obj)
    assert "__init__" not in vars(cls)
    fields = {f: getattr(obj, f) for f in cls.__slots__}
    first, *rest = cls.__slots__
    copy = cls(fields[first], **{f: fields[f] for f in rest})
    assert all(getattr(copy, f) is fields[f] for f in fields)
    missing = dict(fields)
    del missing[rest[-1]]
    for args, kwargs in [
        ((), missing),                                   # missing
        ((), {**fields, "extra": 1}),                    # unknown
        ((fields[first],), fields),                      # repeated
        ((*fields.values(), 1), {}),                     # one value too many
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_weightvec_compares_by_value():
    v = WeightVec.weight((1, 0))
    assert v == WeightVec(coords=(1, 0), basis="weight")
    assert v != WeightVec.root((1, 0))
    assert v != (1, 0)
    assert hash(v) == hash(WeightVec.weight((1, 0)))
    assert len({v, WeightVec.weight((1, 0)), WeightVec.root((1, 0))}) == 2
    assert {v: "x"}[WeightVec.weight([1, 0])] == "x"


@pytest.mark.parametrize("name", list(FIELDS)[1:])
def test_other_records_compare_by_identity(records, name):
    first, twin = records[0][name], records[1][name]
    assert first == first
    if name == "Algebra":
        assert twin is first  # interned by build_algebra
    else:
        assert twin is not first and twin != first
        assert hash(first) == object.__hash__(first)


def test_reprs(records):
    r = records[0]
    g2 = r["Algebra"]
    group = r["WeylGroup"]
    assert repr(r["WeightVec"]) == "WeightVec(coords=(1, 0), basis='weight')"
    assert repr(g2) == "Algebra(G2)"
    assert repr(r["AlternantTable"]) == "AlternantTable(G2, entries=12)"
    assert repr(r["AffineExponents"]) == (
        "AffineExponents(signature=1, "
        "constant=(Fraction(3, 1), Fraction(5, 1)), "
        "linear=((Fraction(2, 1), Fraction(3, 1)), "
        "(Fraction(1, 1), Fraction(2, 1))))"
    )
    assert repr(group) == (
        f"WeylGroup(algebra=Algebra(G2), elements={group.elements!r}, "
        f"signatures={group.signatures!r})"
    )
    assert repr(r["CharacterResult"]) == "CharacterResult(G2, [1, 0], dim=14)"
    assert repr(r["Decomposition"]) == (
        "Decomposition(algebra=Algebra(G2), left=(1, 0), right=(0, 1), "
        "summands=(((1, 1), 1), ((0, 2), 1), ((0, 1), 1)))"
    )


SUBMODULES = tuple(
    f"weylchar.{m.name}" for m in pkgutil.iter_modules(weylchar.__path__)
)


def loaded_by_cli_import(*modules, argv=None, code="import weylchar.cli"):
    """Which of modules a fresh interpreter holds after `import weylchar.cli`.

    With argv it then also runs the request weylchar.cli.main(argv), as
    `python -m weylchar` would; code replaces the import.
    """
    src = os.path.dirname(os.path.dirname(weylchar.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    if argv is not None:
        code += f"; assert weylchar.cli.main({argv!r}) == 0"
    probe = (
        f"import sys; {code}\n"
        f"print(' '.join(m for m in {modules!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        check=True,
    )
    # the request's own output, if any, comes first
    return proc.stdout.splitlines()[-1].split()


def test_cli_import_leaves_out_heavy_modules():
    assert loaded_by_cli_import("dataclasses", "inspect") == []


def test_cli_import_leaves_out_hashlib():
    """No table is hashed or cached on disk, so OpenSSL is never loaded."""
    assert loaded_by_cli_import("hashlib") == []


def test_package_import_loads_no_submodule():
    assert SUBMODULES and "weylchar.cli" in SUBMODULES
    assert loaded_by_cli_import(*SUBMODULES, code="import weylchar") == []
    # dir() lists every export before any is used, and loads nothing either
    listed = "import weylchar; assert set(weylchar.__all__) <= set(dir(weylchar))"
    assert loaded_by_cli_import(*SUBMODULES, code=listed) == []


# request -> modules it must not load
LEFT_OUT = [
    (["dimension", "--algebra", "D5", "--weight", "1,0,0,0,1"],
     ("weylchar.tables", "weylchar.characters", "weylchar.tensor",
      "weylchar.laurent")),
    (["gamma", "--algebra", "B3"],
     ("weylchar.weylgroup", "weylchar.tensor")),
    (["character", "--algebra", "G2", "--weight", "1,1"],
     ("weylchar.weylgroup", "weylchar.tensor")),
]


@pytest.mark.parametrize(
    "argv, modules", LEFT_OUT, ids=["dimension", "gamma", "character-gamma"]
)
def test_cli_request_loads_only_what_it_runs(argv, modules):
    for fmt in ("text", "json"):
        assert loaded_by_cli_import(*modules, argv=argv + ["--format", fmt]) == []


# one request of each kind the command-line benchmark runs
REQUEST_KINDS = [
    ["character", "--algebra", "G2", "--weight", "1,1"],
    ["character", "--algebra", "G2", "--weight", "1,1", "--method", "weyl"],
    ["tensor", "--algebra", "G2", "--left", "1,1", "--right", "0,2"],
    ["verify", "--algebra", "B3", "--depth", "1"],
    ["gamma", "--algebra", "B3"],
    ["dimension", "--algebra", "D5", "--weight", "1,0,0,0,1"],
]

# standard-library modules no request needs: argument parsing, the json
# package, rationals and what each of them pulls in
HEAVY = (
    "argparse", "json", "fractions", "decimal", "numbers", "gettext",
    "locale", "__future__",
)


@pytest.mark.parametrize(
    "argv", REQUEST_KINDS,
    ids=["character-gamma", "character-weyl", "tensor", "verify", "gamma",
         "dimension"],
)
def test_cli_request_loads_no_heavy_module(argv, tmp_path):
    for fmt in ("text", "json"):
        request = argv + ["--format", fmt, "--cache-dir", str(tmp_path)]
        assert loaded_by_cli_import(*HEAVY, argv=request) == []


def test_lazy_exports_are_the_module_attributes():
    listed = [name for names in weylchar._EXPORTS.values() for name in names]
    assert sorted(listed) == weylchar.__all__  # each name under one module
    for module, names in weylchar._EXPORTS.items():
        mod = importlib.import_module(f"weylchar.{module}")
        for name in names:
            assert getattr(weylchar, name) is getattr(mod, name), name


def test_lazy_exports_are_listed_and_star_importable():
    assert set(weylchar.__all__) <= set(dir(weylchar))
    namespace = {}
    exec("from weylchar import *", namespace)
    for name in weylchar.__all__:
        assert namespace[name] is getattr(weylchar, name), name


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        weylchar.no_such_name
    with pytest.raises(ImportError):
        exec("from weylchar import no_such_name", {})
