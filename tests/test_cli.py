import json
from pathlib import Path

import pytest

from rodtopo import modelbuild, modelmap
from rodtopo.cli import _build_parser, main

from helpers import (
    INADMISSIBLE_CORNER,
    SINGULAR_BLEND_RUN,
    SINGULAR_FRAME_RUN,
    long_integer_text,
    nonfinite_potential,
)


COUNTEREXAMPLE = {
    "n": 2,
    "shape": "half_plane",
    "rods": [
        {"kind": "axis", "v": [1, 0]},
        {"kind": "horizon"},
        {"kind": "axis", "v": [0, 1]},
        {"kind": "horizon"},
        {"kind": "axis", "v": [1, 0]},
    ],
}

FIGURE4 = {
    "n": 3,
    "shape": "half_plane",
    "rods": [
        {"kind": "axis", "v": [1, 0, 0]},
        {"kind": "axis", "v": [0, 1, 0]},
        {"kind": "axis", "v": [2, 1, 5]},
        {"kind": "axis", "v": [2, 1, 4]},
        {"kind": "horizon"},
        {"kind": "axis", "v": [1, 1, 0]},
        {"kind": "axis", "v": [4, 5, 0]},
        {"kind": "horizon"},
        {"kind": "axis", "v": [0, 0, 1]},
        {"kind": "horizon"},
        {"kind": "axis", "v": [0, 0, 1]},
    ],
}


@pytest.fixture
def counterexample_path(tmp_path):
    p = tmp_path / "counterexample.json"
    p.write_text(json.dumps(COUNTEREXAMPLE))
    return str(p)


@pytest.fixture
def figure4_path(tmp_path):
    p = tmp_path / "figure4.json"
    p.write_text(json.dumps(FIGURE4))
    return str(p)


def run_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_analyze_counterexample(capsys, counterexample_path):
    code, out = run_json(capsys, "analyze", counterexample_path)
    assert code == 0
    assert all(h["cross_section"]["display"] == "S^3" for h in out["horizons"])
    assert len(out["horizons"]) == 2
    assert out["end"]["display"] == "S^1 x S^2"
    assert out["pi1"]["display"] == "0"
    assert out["simply_connected"] is True
    assert out["end_pi1"]["display"] == "Z"


def test_decompose_figure4(capsys, figure4_path):
    code, out = run_json(capsys, "decompose", figure4_path)
    assert code == 0
    assert out["counts"] == {"J": 1, "N1": 1, "N2": 1}
    kinds = [p["kind"] for p in out["pieces"]]
    assert kinds == ["toric_plumbing", "corner_ball", "cylinder", "end"]
    plumb = out["pieces"][0]["plumbing"]
    assert [b["base"] for b in plumb["bundles"]] == ["L(5,2)", "L(2,1)"]
    assert plumb["plumbing_vectors"] == [[1, 0, 2]]


def test_validate_reports_an_overlong_integer_in_one_line(capsys, tmp_path):
    p = tmp_path / "long.json"
    p.write_text(long_integer_text())
    assert main(["validate", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not valid JSON: an integer has more than 4300 digits\n"


def test_hnf_snf_detk(capsys, tmp_path):
    d = {
        "n": 3,
        "shape": "half_plane",
        "rods": [
            {"kind": "axis", "v": [1, 0, 0]},
            {"kind": "horizon"},
            {"kind": "axis", "v": [1, -1, 1]},
            {"kind": "axis", "v": [2, 0, 3]},
            {"kind": "axis", "v": [1, 1, 0]},
        ],
    }
    p = tmp_path / "fig1.json"
    p.write_text(json.dumps(d))
    code, out = run_json(capsys, "hnf", str(p))
    assert code == 0
    assert out["Q"] == [[1, 1, 0], [0, -1, 0], [0, 1, 1]]
    code, out = run_json(capsys, "snf", str(p))
    assert code == 0
    assert out["divisors"] == [1, 1, 1]
    code, out = run_json(capsys, "detk", str(p), "--k", "2")
    assert code == 0
    assert out["value"] == 1


def test_compactify_and_classify_pipeline(capsys, counterexample_path, tmp_path):
    code, out = run_json(capsys, "compactify", counterexample_path, "--out", str(tmp_path / "disk.json"))
    disk = json.loads((tmp_path / "disk.json").read_text())
    assert code == 0
    assert disk["simply_connected"] is True
    structures = [r["v"] for r in disk["diagram"]["rods"]]
    assert structures == [[1, 0], [0, 1]]

    disk_path = tmp_path / "s4.json"
    disk_path.write_text(json.dumps(disk["diagram"]))
    code, out = run_json(capsys, "classify", str(disk_path), "--spin")
    assert code == 0
    assert out["display"] == "S^4"
    assert out["k"] == 0


DIAGRAMS = Path(__file__).resolve().parent.parent / "diagrams"


def test_classify_bundled_closed_diagram(capsys):
    # diagrams/plumbed-doc-closed.json is the compactification of
    # diagrams/plumbed-doc.json: a rank-3 disk with 7 corners, so k = 4
    closed = str(DIAGRAMS / "plumbed-doc-closed.json")
    code, out = run_json(capsys, "compactify", str(DIAGRAMS / "plumbed-doc.json"))
    assert code == 0
    assert out["diagram"] == json.loads(Path(closed).read_text())
    code, out = run_json(capsys, "classify", closed)
    assert code == 0
    assert (out["n"], out["k"], out["family_row"]) == (3, 4, "non_spin")
    assert out["display"] == "(S^2 ~x S^3) # 3(S^2 x S^3)"
    code, out = run_json(capsys, "classify", closed, "--spin")
    assert code == 0
    assert (out["family_row"], out["display"]) == ("spin", "#4(S^2 x S^3)")


def test_classify_rejects_non_simply_connected(capsys, tmp_path):
    d = {
        "n": 3,
        "shape": "disk",
        "rods": [
            {"kind": "axis", "v": [1, 0, 0]},
            {"kind": "axis", "v": [0, 1, 0]},
            {"kind": "axis", "v": [1, 0, 0]},
            {"kind": "axis", "v": [0, 1, 0]},
        ],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    code = main(["classify", str(p), "--spin"])
    assert code == 1
    assert "simply connected" in capsys.readouterr().err


def test_validation_failure_exit_code(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"n": 2, "shape": "half_plane", "rods": [{"kind": "axis", "v": [2, 4]}]}))
    assert main(["validate", str(p)]) == 1
    assert "primitive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decompose", "fillin", "compactify", "model-verify"])
def test_inadmissible_corner_exit_code(capsys, tmp_path, command):
    p = tmp_path / "inadmissible.json"
    p.write_text(json.dumps(INADMISSIBLE_CORNER))
    assert main([command, str(p)]) == 1
    assert "inadmissible (Det_2 = 2)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "model-verify"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_potential_exit_code(capsys, tmp_path, command, value):
    # both were accepted: validate exited 0, and model-verify wrote a report
    # with bare NaN sups (not JSON) and exited 3
    p = tmp_path / "nonfinite.json"
    p.write_text(json.dumps(nonfinite_potential(float(value))))
    spacing = ["--grid-h", "0.2"] if command == "model-verify" else []
    assert main([command, str(p), *spacing]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rod 3: potential constant is not finite\n"


@pytest.mark.parametrize(
    "diagram, message",
    [
        (SINGULAR_FRAME_RUN, "frame transition passes through a degenerate matrix"),
        (SINGULAR_BLEND_RUN, "radial frame blend passes through a degenerate matrix"),
    ],
    ids=["transition", "radial"],
)
def test_singular_frame_path_cannot_build(capsys, tmp_path, diagram, message):
    # both maps once built: the first passed verification, the second failed it
    p = tmp_path / "singular.json"
    p.write_text(json.dumps(diagram))
    assert main(["model-verify", str(p), "--grid-h", "0.1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_missing_file_is_usage_error(capsys):
    assert main(["analyze", "/nonexistent/nope.json"]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.json"])
    assert exc.value.code == 2


def test_output_deterministic(capsys, figure4_path):
    code1, out1 = run_json(capsys, "analyze", figure4_path)
    raw1 = json.dumps(out1, sort_keys=True)
    code2, out2 = run_json(capsys, "analyze", figure4_path)
    raw2 = json.dumps(out2, sort_keys=True)
    assert code1 == code2 == 0
    assert raw1 == raw2


def test_fillin_command(capsys, counterexample_path):
    code, out = run_json(capsys, "fillin", counterexample_path)
    assert code == 0
    assert [f["kind"] for f in out["horizon_fills"]] == ["corner", "corner"]
    assert out["end_cap"]["kind"] == "merge"


def test_model_verify_missing_geometry(capsys, counterexample_path):
    code = main(["model-verify", counterexample_path])
    assert code == 1
    assert "geometry" in capsys.readouterr().err


NO_CORNER = {
    "n": 3,
    "shape": "half_plane",
    "rods": [
        {"kind": "axis", "v": [1, 0, 0], "z": ["-inf", 0], "potential": [0, 0, 0]},
        {"kind": "horizon", "z": [0, 1]},
        {"kind": "axis", "v": [1, 0, 0], "z": [1, "+inf"], "potential": [0, 0, 0]},
    ],
}


@pytest.fixture
def no_corner_path(tmp_path):
    p = tmp_path / "nc.json"
    p.write_text(json.dumps(NO_CORNER))
    return str(p)


def test_model_verify_runs(capsys, tmp_path, no_corner_path):
    csv = tmp_path / "tau.csv"
    code, out = run_json(
        capsys, "model-verify", no_corner_path, "--grid-h", "0.2", "--dump-csv", str(csv),
    )
    assert code in (0, 3)  # pass/fail is the report's verdict
    assert out["decay"]["pass"] is True
    assert csv.exists()


PAPER_DIAGRAM = str(Path(__file__).resolve().parent.parent / "diagrams" / "two-horizon-one-corner.json")


def test_model_verify_failed_verification_exit_code(capsys, monkeypatch):
    # a map that is built but fails verification exits 3, not 1 ("cannot
    # build"); at h = 0.05 the paper diagram's own map passes, so only the
    # corrupted transition, reached through the patched builder, fails it
    real = modelbuild.build_model_map
    monkeypatch.setattr(
        modelbuild, "build_model_map", lambda d, **kw: real(d, corrupt_transition=True, **kw)
    )
    code, out = run_json(capsys, "model-verify", PAPER_DIAGRAM, "--grid-h", "0.05")
    assert code == 3
    assert out["passed"] is False
    assert [a["ratio"] for a in out["annuli"]] == pytest.approx([1.062, 4.23, 3.961], abs=1e-3)
    assert [a["pass"] for a in out["annuli"]] == [True, False, False]


def test_model_verify_exits_3_when_only_the_decay_fails(capsys, monkeypatch):
    # the paper map's sups hold at h = 0.05 and its decay slope is -3.48;
    # a slope limit of -5.0 fails the decay alone, and that fails the report
    monkeypatch.setattr(modelmap, "SLOPE_LIMIT", -5.0)
    code, out = run_json(capsys, "model-verify", PAPER_DIAGRAM, "--grid-h", "0.05")
    assert (out["sup_bounded_pass"], out["decay_pass"], out["passed"]) == (True, False, False)
    assert code == 3


EXACT_VARIANTS = [
    ["validate"], ["hnf"], ["snf"], ["detk", "--k", "2"], ["detk", "--k", "3"],
    ["detk", "--k", "9"], ["analyze"], ["decompose"], ["pi1"], ["fillin"], ["compactify"],
    ["classify"], ["classify", "--spin"],
]


def test_out_file_holds_what_stdout_prints(capsys, tmp_path):
    # main writes every report: with --out, the file holds what stdout
    # printed without it, stdout stays empty, and stderr and the exit code
    # are the same; a run that fails writes no file
    report = tmp_path / "report"
    paths = sorted(str(path) for path in DIAGRAMS.glob("*.json"))
    runs = [[*variant, path] for path in paths for variant in EXACT_VARIANTS]
    runs += [["model-verify", path, "--grid-h", "0.3"] for path in paths]
    codes = set()
    for argv in runs:
        for fmt in ("text", "json"):
            code = main([*argv, "--format", fmt])
            printed = capsys.readouterr()
            assert main([*argv, "--format", fmt, "--out", str(report)]) == code, argv
            written = capsys.readouterr()
            assert (written.out, written.err) == ("", printed.err), argv
            assert (report.read_text(encoding="utf-8") if report.exists() else "") == printed.out, argv
            report.unlink(missing_ok=True)
            codes.add(code)
    assert codes == {0, 1, 3}


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", PAPER_DIAGRAM, "--out", "/nonexistent/d/x.json"],
        ["model-verify", PAPER_DIAGRAM, "--grid-h", "0.25", "--dump-csv", "/nonexistent/d/t.csv"],
        ["model-verify", PAPER_DIAGRAM, "--out", "/nonexistent/d/x.json"],
    ],
    ids=["out", "dump-csv", "model-verify-out"],
)
def test_unwritable_output_is_usage_error(capsys, monkeypatch, argv):
    # model-verify rejects the path before it evaluates any grid
    calls = []
    monkeypatch.setattr(modelmap, "verify_tension", lambda *a, **kw: calls.append(a))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: cannot write /nonexistent/d/")
    assert calls == []


@pytest.mark.parametrize(
    "args, setting",
    [
        (["--grid-h", "0"], "h = 0.0"),
        (["--grid-h", "-0.1"], "h = -0.1"),
        (["--grid-h", "nan"], "h = nan"),
        (["--grid-h", "inf"], "h = inf"),
        (["--grid-h", "5"], "h = 5.0"),  # grid without an interior point
        (["--grid-h", "1e-300"], "h = 1e-300"),  # grid too large for an array
    ],
)
def test_model_verify_rejects_invalid_settings(capsys, no_corner_path, args, setting):
    # each of these once crashed or passed on an empty grid
    assert main(["model-verify", no_corner_path, *args, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert setting in lines[0]


def test_model_verify_options(capsys):
    # the grid spacing is the verifier's one setting; EPSILON, RAYS and
    # EXCISION_FACTOR are modelmap constants
    (subcommands,) = [a for a in _build_parser()._actions if a.dest == "command"]
    options = {
        opt for action in subcommands.choices["model-verify"]._actions
        for opt in action.option_strings
    }
    assert options - {"-h", "--help"} == {"--grid-h", "--dump-csv", "--format", "--out"}
    for flag in ("--rays", "--epsilon", "--excision-factor"):
        with pytest.raises(SystemExit) as exc:
            main(["model-verify", PAPER_DIAGRAM, flag, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
