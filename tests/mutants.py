"""Hand-run mutation sweep of the model-map verifier and builder, and of
the plumbing certificates.

Each mutant changes one piece of text in one source file.  For each, the
script copies the tree (src, tests, diagrams and pyproject.toml) to a
temporary directory, applies the mutant there, runs the tests that TESTS
names for that file and reports whether a test failed (killed) or all
passed (survived), with the first failing test.  The checkout itself is
never changed.

    python tests/mutants.py    # every mutant, up to about 10 s each

A mutant listed in EQUIVALENT changes no result, so it is expected to
survive and is reported as equivalent.  The file name has no ``test_``
prefix, so pytest does not collect it; it is not part of the tier-1
suite.  Standard library only.  It exits 1 if a mutant's old text is no
longer in its file exactly once, if the unmutated copy fails its tests,
or if a mutant that is not marked equivalent survives.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODELMAP = "src/rodtopo/modelmap.py"
MODELBUILD = "src/rodtopo/modelbuild.py"
PLUMBING = "src/rodtopo/plumbing.py"
VERIFIER_TESTS = [
    "tests/test_modelmap.py",
    "tests/test_cli.py",
    "tests/test_acceptance.py",
    "tests/test_records.py",
]
# the test files run against a mutant of each source file
TESTS = {
    MODELMAP: VERIFIER_TESTS,
    MODELBUILD: VERIFIER_TESTS,
    PLUMBING: ["tests/test_plumbing.py"],
}

# (name, file, old text, new text, reason)
MUTANTS = [
    ("tau-f-quarter", MODELMAP,
     "tau_f2 = 0.25 * trA**2 + 0.25 * trA2", "tau_f2 = 0.5 * trA**2 + 0.25 * trA2",
     "the 1/4 in |tau_F|^2 = (tr A)^2 / 4 + tr(A^2) / 4"),
    ("omega-half", MODELMAP,
     "omega_term[:, span] = 0.5 * f[2:-2, cols]", "omega_term[:, span] = 1.0 * f[2:-2, cols]",
     "the 1/2 in the omega term of |tau|^2"),
    ("laplacian-1/rho", MODELMAP,
     "        + v_rho[1:-1] / rho\n", "",
     "the V_rho / rho term of the axisymmetric divergence"),
    ("excision-factor", MODELMAP,
     "EXCISION_FACTOR = 3.0", "EXCISION_FACTOR = 2.0",
     "excision radius around the axis set, in units of h"),
    ("sup-clearance", MODELMAP,
     "SUP_CLEARANCE = 0.75", "SUP_CLEARANCE = 0.5",
     "axis clearance of the sup-stability compacts"),
    ("annulus-pass", MODELMAP,
     '"pass": ratio < SUP_RATIO_LIMIT or quiet,', '"pass": True,',
     "every annulus passes its sup check"),
    ("rho-max", MODELMAP,
     "rho_max = width + 2.0", "rho_max = width + 1.0",
     "radial extent of the verifier grid"),
    ("z-lo", MODELMAP,
     "z_lo = lo - 1.8 * width", "z_lo = lo - 1.5 * width",
     "southern extent of the verifier grid"),
    ("annulus-bound", MODELMAP,
     "(0.0, 0.75 * width),\n        (0.75 * width,", "(0.0, 0.5 * width),\n        (0.5 * width,",
     "outer radius of the first annulus"),
    ("sup-ratio-limit", MODELMAP,
     "SUP_RATIO_LIMIT = 1.1", "SUP_RATIO_LIMIT = 1.5",
     "largest sup growth from h to h/2 that passes"),
    ("slope-limit", MODELMAP,
     "SLOPE_LIMIT = -2.3", "SLOPE_LIMIT = -1.5",
     "largest far-field decay slope that passes"),
    ("decay-ok", MODELMAP,
     "ok = below_noise or (mean is not None and mean <= SLOPE_LIMIT)", "ok = True",
     "the decay fit always passes"),
    ("passed-sup-only", MODELMAP,
     "passed = sup_ok and decay_pass", "passed = sup_ok",
     "the overall verdict drops the decay verdict"),
    ("blend-r1", MODELBUILD,
     "R1 = z_half + 2.5 * width", "R1 = z_half + 3.0 * width",
     "inner radius of the radial frame blend"),
    ("inner-rod-window", MODELBUILD,
     "windows.append((z_lo + 0.3 * span, z_hi - 0.3 * span))",
     "windows.append((z_lo + 0.1 * span, z_hi - 0.1 * span))",
     "share of an inner rod's span kept clear of its frame ramp"),
    ("epsilon", MODELMAP,
     "EPSILON = 0.2", "EPSILON = 0.3",
     "polar cap over which the far omega stays constant"),
    ("ray-margin", MODELMAP,
     "RAY_MARGIN = 0.25", "RAY_MARGIN = 0.35",
     "angle kept between the decay rays and the far omega caps"),
    ("rays", MODELMAP,
     "RAYS = 7", "RAYS = 5",
     "number of far-field decay rays"),
    ("decade-points", MODELMAP,
     "DECADE_POINTS = 24", "DECADE_POINTS = 16",
     "samples per decay ray"),
    ("noise-floor", MODELMAP,
     "NOISE_FLOOR = 1e-11", "NOISE_FLOOR = 1e-6",
     "tension below which the decay fit and the sup ratios are noise"),
    ("spacing-rtol", MODELMAP,
     "SPACING_RTOL = 1e-6", "SPACING_RTOL = 1e-3",
     "relative error allowed in a stencil or grid spacing"),
    ("strip-rows", MODELMAP,
     "STRIP_ROWS = 16", "STRIP_ROWS = 7",
     "rho rows of the tension field computed per strip"),
    ("north-ramp", MODELBUILD,
     "a_last + 0.6 * width", "a_last + 0.4 * width",
     "distance from the last corner to the north end ramp"),
    ("omega-window", MODELBUILD,
     "gap_lo + 0.25 * span", "gap_lo + 0.2 * span",
     "share of a horizon kept clear of its omega ramp"),
    ("certificate-depth", MODELBUILD,
     "CERTIFICATE_DEPTH = 6", "CERTIFICATE_DEPTH = 3",
     "halvings before an undecided frame patch is rejected"),
    ("det3-certificate", PLUMBING,
     "    if d3 != 1:\n", "    if False:\n",
     "the Det_3 certificate of a plumbing vector never raises"),
    ("divisibility", PLUMBING,
     "        if any([x % p for x in rest]):\n", "        if False:\n",
     "the plumbing vector's residual is not checked to be divisible by p"),
    ("q-flip", PLUMBING,
     "    flipped = p == 0 and q == -1\n", "    flipped = False\n",
     "a dependent triple read with q = -1 keeps its sign"),
    ("det2-gate", PLUMBING,
     '        if nxt[0] != 1:\n            raise _inadmissible("a", nxt[0])\n', "",
     "decompose_component reads a triple whose second pair has Det_2 != 1"),
]

# mutants that change no result, with the reason
EQUIVALENT = {
    "strip-rows": "each strip computes its rows of the field on their own, "
                  "so the strip height moves no bit of the report",
}

FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def _copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests", "diagrams"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_tests(tree, tests):
    """The first failing test's id, or None if every test passed."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree,
        # no bytecode: a mutant of the same length, written within the same
        # second, would otherwise pass the stale-cache check
        env={**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    if run.returncode == 0:
        return None
    found = FAILED.search(run.stdout)
    return found.group(1) if found else f"pytest exit {run.returncode}"


def main():
    for name, path, old, _, _ in MUTANTS:
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            print(f"{name}: the old text occurs {count} times in {path}, not once")
            return 1
    with tempfile.TemporaryDirectory(prefix="rodtopo-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        _copy_tree(tree)
        baseline = _run_tests(tree, sorted({t for tests in TESTS.values() for t in tests}))
        if baseline is not None:
            print(f"the unmutated tree fails: {baseline}")
            return 1
        print(f"{'mutant':<18} {'result':<10} first killing test")
        survivors = []
        for name, path, old, new, reason in MUTANTS:
            source = tree / path
            original = source.read_text(encoding="utf-8")
            source.write_text(original.replace(old, new), encoding="utf-8")
            try:
                killer = _run_tests(tree, TESTS[path])
            finally:
                source.write_text(original, encoding="utf-8")
            if killer is not None:
                result = "killed"
            elif name in EQUIVALENT:
                result, reason = "equivalent", EQUIVALENT[name]
            else:
                result = "survived"
                survivors.append(name)
            print(f"{name:<18} {result:<10} {killer or '-'}  ({reason})", flush=True)
    if survivors:
        print("surviving mutants: " + ", ".join(survivors))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
