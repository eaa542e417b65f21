"""Negative control for the tension verifier.

A model map whose first frame transition is deliberately corrupted must
fail verification.  Exits 0 when it fails as required and 1 when the
verifier passes it.  Run from the repository root:

    python3 bench/negative_control.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rodtopo.modelmap import build_model_map, verify_tension  # noqa: E402
from rodtopo.roddiagram import parse  # noqa: E402

DIAGRAM = "diagrams/two-horizon-one-corner.json"
H = 0.1


def main():
    diagram = parse((ROOT / DIAGRAM).read_text(encoding="utf-8"))
    report = verify_tension(build_model_map(diagram, corrupt_transition=True), h=H)
    print(f"negative control: {DIAGRAM} with a corrupted transition at h = {H}: "
          f"{'PASS (wrong)' if report.passed else 'FAIL (as required)'}")
    return 1 if report.passed else 0


if __name__ == "__main__":
    sys.exit(main())
