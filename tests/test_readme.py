"""The ``python`` examples of README's "Library tour" run as written and do what their
comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour_blocks() -> list[str]:
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    tour = tour[:tour.index("\n## ", 1)]
    return re.findall(r"```python\n(.*?)```", tour, flags=re.DOTALL)


def test_library_tour_examples_run_as_their_comments_say():
    time_block, plastic_block = _tour_blocks()
    scope = {}
    exec(time_block, scope)
    report = scope["report"]
    assert report.passed
    assert report["theta_branch"].witness["nu"] == 1
    assert report["delta_quantization"].witness["p"] == 1
    assert len(scope["terms"]) == 4

    exec(plastic_block, scope)
    assert scope["report"].passed
    asm = scope["asm"]
    assert len(asm.terms) == 4 and asm.calibration == -0.5
    assert all(t.dx_power + t.dy_power == 1 for t in asm.terms)  # transport: one derivative
    assert round(scope["result"].slope, 2) == 0.50
