"""Command-line front end.

Every subcommand is a function of the parsed arguments and of one parsed
rod diagram: it runs its analysis and returns a JSON payload, the lines of
its text report and an exit code.  ``main`` owns all input and output: it
reads and parses the diagram, writes the report (JSON or text, to stdout or
``--out``) and picks the exit code.  Exit codes: 0 success, 1 validation or
relation failure (for ``model-verify``: the model map cannot be built), 2
usage error (including an input that cannot be read or an output that
cannot be written), 3 the model map was built but failed the tension
verification.  ``model-verify`` alone writes a second file, ``--dump-csv``,
and checks both of its output directories before it evaluates any grid.

Each subcommand imports the layers it calls when it runs, beyond the
``intlin`` and ``roddiagram`` that ``main`` needs to read the diagram:
``decompose`` loads ``plumbing``, ``analyze``, ``pi1``, ``fillin``,
``compactify`` and ``classify`` load ``topology``, and only
``model-verify`` loads ``modelbuild``, and then, if the map builds,
``modelmap`` and with it numpy.  The import runs at call time, so a
stand-in bound on a layer's module is the one called.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from . import roddiagram
from .errors import RodTopoError
from .intlin import determinant_divisor, hermite_normal_form, smith_normal_form
from .roddiagram import parse


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}") from e


class UsageError(Exception):
    pass


def _write(path, write):
    """write(path), with an OSError turned into a usage error."""
    try:
        write(path)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror}") from e


def _require_directory(path):
    """Reject an output path whose directory does not exist, before any
    work is done; _write stays the backstop for every other write error."""
    parent = Path(path).parent
    if not parent.is_dir():
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
        raise UsageError(f"cannot write {path}: {os.strerror(code)}")


def _emit(args, payload, text_lines):
    if args.format == "json":
        out = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        out = "\n".join(text_lines) + "\n"
    if args.out:
        _write(args.out, lambda path: Path(path).write_text(out, encoding="utf-8"))
    else:
        sys.stdout.write(out)


def _diagram_text(diagram):
    lines = [f"n = {diagram.n}, shape = {diagram.shape}"]
    for i, rod in enumerate(diagram.rods):
        z = ""
        if rod.z is not None:
            z = f"  z=[{rod.z[0]}, {rod.z[1]}]"
        if rod.is_axis:
            pot = f"  omega={list(rod.potential)}" if rod.potential else ""
            lines.append(f"  {i:2d}  axis     v={list(rod.structure.v)}{z}{pot}")
        else:
            lines.append(f"  {i:2d}  horizon  ~~~~~~~~{z}")
    return lines


# ----------------------------------------------------------------------
# subcommands: (args, diagram) -> (JSON payload, text lines, exit code)


def _cmd_validate(args, diagram):
    payload = {"valid": True, "diagram": diagram.to_json_dict()}
    return payload, ["valid"] + _diagram_text(diagram), 0


def _cmd_hnf(args, diagram):
    res = hermite_normal_form(diagram.structure_matrix())
    payload = {
        "H": res.H.to_lists(),
        "Q": res.Q.to_lists(),
        "pivots": [list(p) for p in res.pivots],
    }
    lines = ["H (columns are the transformed structures):"]
    lines += ["  " + " ".join(f"{x:4d}" for x in row) for row in res.H.to_lists()]
    lines.append("Q (transformation matrix):")
    lines += ["  " + " ".join(f"{x:4d}" for x in row) for row in res.Q.to_lists()]
    return payload, lines, 0


def _cmd_snf(args, diagram):
    res = smith_normal_form(diagram.structure_matrix())
    payload = {
        "S": res.S.to_lists(),
        "U": res.U.to_lists(),
        "V": res.V.to_lists(),
        "divisors": list(res.divisors),
    }
    return payload, [f"elementary divisors: {list(res.divisors)}"], 0


def _cmd_detk(args, diagram):
    value = determinant_divisor(diagram.structure_matrix(), args.k)
    return {"k": args.k, "value": value}, [f"Det_{args.k} = {value}"], 0


def _cmd_analyze(args, diagram):
    from .topology import end_pi1, fundamental_group
    corners = []
    for i, j in diagram.corners():
        d = roddiagram.det2(diagram.rods[i].structure, diagram.rods[j].structure)
        corners.append({"rods": [i, j], "det2": d, "admissible": d == 1})
    horizons = []
    for h, left, right in diagram.horizon_flankings():
        cs = roddiagram.cross_section_topology(
            diagram.rods[left].structure, diagram.rods[right].structure, diagram.n
        )
        horizons.append({"rod": h, "cross_section": cs.to_json_dict()})
    pi1 = fundamental_group(diagram)
    payload = {
        "n": diagram.n,
        "shape": diagram.shape,
        "corners": corners,
        "horizons": horizons,
        "pi1": pi1.to_json_dict(),
        "simply_connected": pi1.trivial,
    }
    lines = _diagram_text(diagram)
    for c in corners:
        state = "admissible" if c["admissible"] else f"INADMISSIBLE (Det_2 = {c['det2']})"
        lines.append(f"corner {tuple(c['rods'])}: {state}")
    for h in horizons:
        lines.append(f"horizon {h['rod']}: cross-section {h['cross_section']['display']}")
    if diagram.shape == roddiagram.HALF_PLANE:
        end = roddiagram.asymptotic_end(diagram)
        end_group = end_pi1(diagram)
        payload["end"] = end.to_json_dict()
        payload["end_pi1"] = end_group.to_json_dict()
        lines.append(f"asymptotic end: R+ x {end.display()}")
        lines.append(f"end pi_1 = {end_group.display()}")
    lines.append(f"pi_1 = {pi1.display()}")
    return payload, lines, 0


def _cmd_decompose(args, diagram):
    from .plumbing import doc_decomposition
    doc = doc_decomposition(diagram)
    lines = [f"J = {doc.J}, N1 = {doc.N1}, N2 = {doc.N2}"]
    for p in doc.pieces:
        lines.append(f"  {p.display()}  (rods {list(p.source_rod_indices)})")
    return doc.to_json_dict(), lines, 0


def _cmd_pi1(args, diagram):
    from .topology import fundamental_group
    g = fundamental_group(diagram)
    return g.to_json_dict(), [f"pi_1 = {g.display()}"], 0


def _cmd_fillin(args, diagram):
    from .topology import compactify
    plan = compactify(diagram)
    payload = plan.to_json_dict()
    del payload["diagram"]
    lines = []
    for f in plan.horizon_fills:
        lines.append(f"horizon {f.rod_index}: {f.kind} {[list(u) for u in f.inserted]}")
    lines.append(f"end cap: {plan.end_cap.kind} {[list(u) for u in plan.end_cap.inserted]}")
    return payload, lines, 0


def _cmd_compactify(args, diagram):
    from .topology import compactify, is_simply_connected
    plan = compactify(diagram)
    payload = plan.to_json_dict()
    payload["simply_connected"] = is_simply_connected(plan.diagram)
    lines = _diagram_text(plan.diagram)
    lines.append(f"simply connected: {payload['simply_connected']}")
    return payload, lines, 0


def _cmd_classify(args, diagram):
    from .topology import classify
    c = classify(diagram, spin=args.spin)
    payload = c.to_json_dict()
    payload["spin"] = args.spin
    return payload, [f"homeomorphism type: {c.display}  (k = {c.k})"], 0


def _cmd_model_verify(args, diagram):
    from . import modelbuild
    for path in (args.out, args.dump_csv):
        if path:
            _require_directory(path)
    m = modelbuild.build_model_map(diagram)  # exact: a rejection needs no numpy
    try:
        from . import modelmap
    except ModuleNotFoundError as e:
        if e.name != "numpy":
            raise
        raise UsageError("model-verify needs numpy, which is not installed") from None

    rep = modelmap.verify_tension(m, h=args.grid_h)
    payload = rep.to_json_dict()
    if args.dump_csv:
        _write(args.dump_csv, lambda path: modelmap.dump_csv(m, rep, path))
        payload["csv"] = args.dump_csv
    lines = [
        f"grid h = {rep.h}, excision = {rep.excision_radius}",
        f"sup bounded across refinement: {rep.sup_bounded_pass}",
        f"decay slope: {rep.decay['mean_slope']} (limit {rep.decay['slope_limit']}): "
        f"{'PASS' if rep.decay_pass else 'FAIL'}",
        f"overall: {'PASS' if rep.passed else 'FAIL'}",
    ]
    return payload, lines, 0 if rep.passed else 3


# ----------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rodtopo",
        description="Exact-arithmetic analysis of rod diagrams of toric black holes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="rod diagram JSON file")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", help="write the report to this path")
        p.set_defaults(fn=fn)
        return p

    add("validate", _cmd_validate, "parse and validate a diagram")
    add("hnf", _cmd_hnf, "Hermite normal form of the structure matrix")
    add("snf", _cmd_snf, "Smith normal form of the structure matrix")
    p = add("detk", _cmd_detk, "k-th determinant divisor of the structure matrix")
    p.add_argument("--k", type=int, required=True)
    add("analyze", _cmd_analyze, "corners, horizons, end, fundamental groups")
    add("decompose", _cmd_decompose, "decomposition of the domain of outer communication")
    add("pi1", _cmd_pi1, "fundamental group of the total space")
    add("fillin", _cmd_fillin, "fill-in chains for horizons and the end")
    add("compactify", _cmd_compactify, "compactified diagram (simply connected disk)")
    p = add("classify", _cmd_classify, "homeomorphism type of a closed diagram")
    p.add_argument("--spin", action="store_true")
    p = add("model-verify", _cmd_model_verify, "build the model map and verify its tension")
    p.add_argument("--grid-h", type=float, default=0.05)
    p.add_argument("--dump-csv", help="write the tau field as CSV to this path")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        diagram = parse(_load(args.input))
        payload, text_lines, code = args.fn(args, diagram)
        _emit(args, payload, text_lines)
        return code
    except UsageError as e:
        return _fail(str(e), 2)
    except (RodTopoError, ValueError) as e:
        return _fail(str(e), 1)


if __name__ == "__main__":
    sys.exit(main())
