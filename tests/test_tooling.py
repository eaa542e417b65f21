import ast
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import INADMISSIBLE_CORNER, nonfinite_potential, rand_admissible_chain

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rodtopo"


def test_library_has_no_bare_asserts():
    # python -O strips assert statements, so invariants must raise instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_library_imports_are_all_used():
    # a name imported at module level and read nowhere in the module is
    # left over from a deletion; the package's __init__ re-exports names
    # on purpose, so it is not scanned, and so does an import of the form
    # "name as name"
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    if alias.asname != alias.name:
                        imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
    assert found == []


def _names(tree):
    """How often each identifier is read or called in tree: bare names and
    attribute names (``self._f``, ``IntMatrix._trusted``) alike."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_library_private_functions_are_all_used():
    # a _private function or method that no module of the package names
    # outside its own definition is left over from a deletion; tests may
    # still reach it, so only the package is scanned
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    named = Counter()
    for tree in trees.values():
        named.update(_names(tree))
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and named[node.name] == _names(node)[node.name]
    ]
    assert found == []


def _cli(args, optimize):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "rodtopo.cli", *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "args",
    [
        ["decompose", "diagrams/plumbed-doc.json", "--format", "json"],
        ["analyze", "diagrams/counterexample.json"],
    ],
)
def test_cli_output_identical_under_optimize(args):
    plain = _cli(args, optimize=False)
    optimized = _cli(args, optimize=True)
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == plain.returncode
    assert optimized.stdout == plain.stdout
    assert plain.stdout


def test_long_run_decompose_identical_under_optimize(tmp_path):
    # a seeded rank-4 run of 40 rods: every triple reading and its Det_3
    # certificate must raise, not assert, so -O changes no byte
    rng = random.Random(55)
    chain = rand_admissible_chain(rng, 4, 40)
    rods = [{"kind": "axis", "v": list(v)} for v in chain]
    rods += [{"kind": "horizon"}, {"kind": "axis", "v": [0, 0, 0, 1]}]
    path = tmp_path / "long-run.json"
    path.write_text(json.dumps({"n": 4, "shape": "half_plane", "rods": rods}))
    args = ["decompose", str(path), "--format", "json"]
    plain = _cli(args, optimize=False)
    optimized = _cli(args, optimize=True)
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == 0
    assert optimized.stdout == plain.stdout
    (piece,) = [p for p in json.loads(plain.stdout)["pieces"] if p["kind"] == "toric_plumbing"]
    assert len(piece["plumbing"]["bundles"]) == 38


def test_model_verify_identical_under_optimize():
    # a report is written either way; at h = 0.1 it is under-resolved and
    # the verdict (exit 3) must not depend on -O either
    args = [
        "model-verify", "diagrams/two-horizon-one-corner.json",
        "--grid-h", "0.1", "--format", "json",
    ]
    plain = _cli(args, optimize=False)
    optimized = _cli(args, optimize=True)
    assert plain.returncode in (0, 3), plain.stderr
    assert optimized.returncode == plain.returncode
    assert optimized.stdout == plain.stdout
    assert plain.stdout


EXACT_SUBCOMMANDS = [
    ["validate"], ["hnf"], ["snf"], ["detk", "--k", "2"], ["analyze"],
    ["decompose"], ["pi1"], ["fillin"], ["compactify"], ["classify"],
]

# Run in a fresh interpreter: the modules that importing the CLI adds (a
# set difference, so modules a site hook loaded earlier do not count),
# then the given subcommands on every diagram, and the package's modules
# and numpy as loaded after them.
NO_NUMPY_PROBE = """
import sys
before = set(sys.modules)
from rodtopo import cli
imported = sorted(set(sys.modules) - before)

import contextlib, io, json
from pathlib import Path

codes = []
for path in sorted(Path("diagrams").glob("*.json")):
    for cmd, *rest in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main([cmd, str(path), *rest]))
loaded = sorted(m for m in sys.modules if m == "numpy" or m.partition(".")[0] == "rodtopo")
print(json.dumps({"imported": imported, "codes": codes, "loaded": loaded}))
"""


def _no_numpy_probe(subcommands):
    run = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_PROBE, json.dumps(subcommands)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_exact_subcommands_do_not_load_numpy():
    out = _no_numpy_probe(EXACT_SUBCOMMANDS)
    # numpy is for model-verify only; dataclasses loads inspect and
    # compiles methods for every class, on every start of an exact command
    assert not {"numpy", "dataclasses"} & set(out["imported"]), out["imported"]
    # every subcommand parses a diagram, and loads the layers it calls
    # only when it runs
    assert [m for m in out["imported"] if m.partition(".")[0] == "rodtopo"] == [
        "rodtopo", "rodtopo.cli", "rodtopo.errors", "rodtopo.intlin", "rodtopo.roddiagram",
    ]
    diagrams = len(list((ROOT / "diagrams").glob("*.json")))
    assert len(out["codes"]) == diagrams * len(EXACT_SUBCOMMANDS)
    assert set(out["codes"]) <= {0, 1}  # 1: the diagram is outside the command's domain
    assert 0 in out["codes"][len(EXACT_SUBCOMMANDS) - 1 :: len(EXACT_SUBCOMMANDS)]  # classify
    assert not {"numpy", "rodtopo.modelbuild", "rodtopo.modelmap"} & set(out["loaded"]), out["loaded"]
    # the model map's exact build loads no numpy either
    probe = ("import sys, rodtopo.modelbuild as mb, rodtopo.roddiagram as rd; "
             "mb.build_model_map(rd.parse(open('diagrams/two-horizon-one-corner.json').read())); "
             "sys.exit('numpy' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert run.returncode == 0
    # each in a fresh interpreter: no subcommand loads both plumbing and topology
    for cmd, layer, other in [("decompose", "plumbing", "topology"), ("analyze", "topology", "plumbing")]:
        out = _no_numpy_probe([[cmd]])
        assert set(out["codes"]) <= {0, 1}
        assert f"rodtopo.{layer}" in out["loaded"] and f"rodtopo.{other}" not in out["loaded"], cmd


# the names the package re-exports, by defining layer
PACKAGE_EXPORTS = {
    "intlin": [
        "IntMatrix", "HermiteResult", "SmithResult", "determinant_divisor",
        "hermite_normal_form", "is_primitive_set", "is_primitive_vector", "smith_normal_form",
    ],
    "roddiagram": [
        "CrossSectionTopology", "Rod", "RodDiagram", "RodStructure", "asymptotic_end",
        "cross_section_topology", "parse",
    ],
    "plumbing": [
        "Bundle", "DocDecomposition", "ToricPlumbing", "decompose_component", "doc_decomposition",
        "plumbing_to_rods", "plumbing_vector", "triple_to_bundle", "verify_plumbing_relations",
    ],
    "topology": [
        "AbelianGroup", "FillinPlan", "betti2", "classify", "compactify", "end_pi1",
        "fillin_path", "fundamental_group", "is_simply_connected",
    ],
    "modelbuild": ["ModelMap", "build_model_map"],
    "modelmap": ["TensionReport", "potentials", "tension_norm", "verify_tension"],
}

# Run in a fresh interpreter: layers reached through the package, the names
# a star import binds and whether it loaded numpy, then every re-exported
# name against its defining layer's (the verifier's last: it loads numpy),
# and a name the package does not have.
PACKAGE_NAMES_PROBE = """
import importlib, json, sys
import rodtopo
from rodtopo import cli
layers = [rodtopo.topology.__name__, cli.__name__]
star = {}
exec("from rodtopo import *", star)
star.pop("__builtins__")
star_numpy = "numpy" in sys.modules
same = {
    name: getattr(rodtopo, name) is getattr(importlib.import_module("rodtopo." + layer), name)
    for layer, names in json.loads(sys.argv[1]).items()
    for name in names
}
layers.append(rodtopo.modelmap.__name__)
try:
    rodtopo.no_such_name
    missing = "resolved"
except AttributeError:
    missing = "AttributeError"
print(json.dumps({"layers": layers, "star": sorted(star), "star_numpy": star_numpy,
                  "same": same, "missing": missing}))
"""


def test_package_names_and_star_import():
    run = subprocess.run(
        [sys.executable, "-c", PACKAGE_NAMES_PROBE, json.dumps(PACKAGE_EXPORTS)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["layers"] == ["rodtopo.topology", "rodtopo.cli", "rodtopo.modelmap"]
    # a star import binds the exact layers' names, the model map's build
    # among them, and loads no numpy
    exact = {name for layer, names in PACKAGE_EXPORTS.items() if layer != "modelmap" for name in names}
    assert exact <= set(out["star"]), sorted(exact - set(out["star"]))
    assert not set(out["star"]) & set(PACKAGE_EXPORTS["modelmap"])
    assert not out["star_numpy"]
    assert sorted(out["same"]) == sorted(n for names in PACKAGE_EXPORTS.values() for n in names)
    assert all(out["same"].values()), out["same"]
    assert out["missing"] == "AttributeError"


# Run in a fresh interpreter: dir(rodtopo), and the modules that calling it adds.
PACKAGE_DIR_PROBE = """
import json, sys
import rodtopo
before = set(sys.modules)
names = dir(rodtopo)
print(json.dumps({"dir": names, "loaded": sorted(set(sys.modules) - before)}))
"""


def test_package_dir_lists_lazy_names():
    run = subprocess.run(
        [sys.executable, "-c", PACKAGE_DIR_PROBE],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    # every layer and every re-exported name, as tab completion needs them
    lazy = {*PACKAGE_EXPORTS, "errors", "cli"}
    lazy.update(name for names in PACKAGE_EXPORTS.values() for name in names)
    assert lazy <= set(out["dir"]), sorted(lazy - set(out["dir"]))
    assert out["dir"] == sorted(out["dir"])
    assert not [m for m in out["loaded"] if m.partition(".")[0] == "rodtopo"], out["loaded"]


# Run in a fresh interpreter: the modules that importing the model map adds.
MODELMAP_IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import rodtopo.modelmap
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_modelmap_import_loads_no_dataclasses():
    # the model map's records are NamedTuples like every other record of
    # the package, so not even model-verify loads dataclasses
    run = subprocess.run(
        [sys.executable, "-c", MODELMAP_IMPORT_PROBE],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    imported = json.loads(run.stdout)
    assert {"numpy", "rodtopo.modelmap"} <= set(imported)
    assert "dataclasses" not in imported


def test_model_verify_without_numpy_is_a_usage_error():
    # numpy made unimportable: model-verify refuses a map it can build with
    # one error line and exit 2, as for any other unusable invocation, and
    # no traceback; a diagram that cannot be built is rejected as it is
    # with numpy, since the build is exact
    def model_verify(path, numpy):
        probe = ("import sys; " + "sys.modules['numpy'] = None; " * (not numpy)
                 + "from rodtopo.cli import main; sys.exit(main(sys.argv[1:]))")
        return subprocess.run(
            [sys.executable, "-c", probe, "model-verify", path],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )

    run = model_verify("diagrams/two-horizon-one-corner.json", numpy=False)
    assert run.returncode == 2
    assert run.stdout == ""
    assert "Traceback" not in run.stderr
    assert run.stderr.splitlines() == ["error: model-verify needs numpy, which is not installed"]
    for name, reason in [("counterexample", "missing geometry"), ("plumbed-doc", "missing geometry"),
                         ("plumbed-doc-closed", "half-plane")]:
        bare, full = (model_verify(f"diagrams/{name}.json", numpy) for numpy in (False, True))
        assert (bare.returncode, bare.stdout, bare.stderr) == (1, "", full.stderr), name
        assert full.returncode == 1 and reason in full.stderr, name


# Run in a fresh interpreter with numpy made unimportable: the outcome of
# building each diagram of frame_corpus(1000), and the first message of
# each kind of rejection.
CORPUS_BUILD_PROBE = """
import json, sys
sys.modules["numpy"] = None
from helpers import frame_corpus
from rodtopo.errors import ModelMapError
from rodtopo.modelbuild import build_model_map

kinds = ("frame transition", "inadmissible", "slot parity", "radial frame blend")
counts, first = {}, {}
for diagram in frame_corpus(1000):
    try:
        build_model_map(diagram)
        kind = "built"
    except ModelMapError as e:
        kind = next((k for k in kinds if k in str(e)), str(e))
        first.setdefault(kind, str(e))
    counts[kind] = counts.get(kind, 0) + 1
print(json.dumps({"counts": counts, "first": first}))
"""


def test_frame_corpus_builds_without_numpy():
    # the model map's build is exact: the whole corpus builds or is
    # rejected without numpy.  ROADMAP items 5, 6 and 14 are to turn the
    # rejections of admissible diagrams into built maps
    run = subprocess.run(
        [sys.executable, "-c", CORPUS_BUILD_PROBE],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["counts"] == {
        "built": 371, "frame transition": 313, "inadmissible": 256, "slot parity": 51,
        "radial frame blend": 9,
    }
    # a rejected frame path names its ramp, the ramp's z-window and its frames' dets
    assert out["first"]["frame transition"] == (
        "frame transition passes through a degenerate matrix on ramp 2 of 5 from the south "
        "(z in [1.4, 2.6], between frames of det 1 and 1); the diagram needs a different "
        "frame completion"
    )
    assert out["first"]["radial frame blend"] == (
        "radial frame blend passes through a degenerate matrix on ramp 2 of 4 from the south "
        "(z in [1.8, 2.7], between frames of det 2 and 4); the diagram needs a different "
        "frame completion"
    )


# Run in a fresh interpreter, with every warning shown: each (input,
# arguments) pair through cli.main, its exit code, stdout and stderr
# recorded; an exception that escapes main is recorded as its traceback.
EDGE_SWEEP = """
import contextlib, io, json, sys, traceback, warnings
from rodtopo import cli

warnings.simplefilter("always")
results = []
for args in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except Exception:
            code = None
            traceback.print_exc()
    results.append([args, code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_every_subcommand_on_edge_inputs_reports_without_traceback(tmp_path):
    # the committed diagrams and the known edge inputs (non-finite
    # potentials, potentials whose tension overflows, an inadmissible
    # corner, integers beyond the float range): an exit code of the
    # documented kind, no traceback or numpy warning, and strict JSON reports
    inputs = sorted(str(p) for p in (ROOT / "diagrams").glob("*.json"))
    huge_z = nonfinite_potential(0.0)
    huge_z["rods"][0]["z"] = ["-inf", 10**400]
    for name, diagram in [
        ("nan", nonfinite_potential(float("nan"))),
        ("infinity", nonfinite_potential(float("inf"))),
        ("huge100", nonfinite_potential(1e100)),
        ("huge150", nonfinite_potential(1e150)),
        ("inadmissible", INADMISSIBLE_CORNER),
        ("hugeint-z", huge_z),
        ("hugeint-potential", nonfinite_potential(10**400)),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(diagram))
        inputs.append(str(path))
    commands = EXACT_SUBCOMMANDS + [["classify", "--spin"], ["model-verify", "--grid-h", "0.2"]]
    runs = [
        [cmd, path, *rest, "--format", fmt]
        for path in inputs for cmd, *rest in commands for fmt in ("json", "text")
    ]
    run = subprocess.run(
        [sys.executable, "-c", EDGE_SWEEP, json.dumps(runs)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    results = json.loads(run.stdout)
    assert len(results) == len(runs)
    for args, code, out, err in results:
        assert code in (0, 1, 3), (args, err)
        assert "Traceback" not in err and "RuntimeWarning" not in err, (args, err)
        if args[-1] == "json" and code != 1:
            json.loads(out, parse_constant=_reject_constant)
    codes = {(Path(args[1]).name, args[0]): (code, err) for args, code, _, err in results}
    assert codes["nan.json", "validate"][0] == codes["infinity.json", "validate"][0] == 1
    for name in ("huge100.json", "huge150.json"):
        code, err = codes[name, "model-verify"]
        assert code == 1 and re.fullmatch(
            r"error: sup_excision of the annulus 0 <= r < 6 is (inf|nan): the tension "
            r"overflows double precision \(are the potential constants too large\?\)\n", err)
    assert codes["two-horizon-one-corner.json", "model-verify"][0] in (0, 3)
    for name, rod, key in (("hugeint-z.json", 0, "z"), ("hugeint-potential.json", 3, "potential")):
        assert codes[name, "validate"] == (
            1, f"error: rod {rod}: '{key}' holds an integer outside the float range\n")


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    run = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "toric plumbing of [L(5,2), L(2,1)]",
        "B^4 x S^1",
        "[0,1] x D^2 x T^2",
        "R+ x S^3 x S^1",
        "S^4",
    ]
