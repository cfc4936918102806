"""The fixed CLI command set against its pinned outputs (`data/cli_golden.json`,
regenerate with `python tests/data/make_cli_golden.py`).

Text must match exactly; numbers must match to 1e-12 relative, or to 1e-14
absolute where they are roundoff-sized (route deviations of 1e-16).
"""

import json
import math
import pathlib
import re

import pytest

from anelor.cli import main

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def mismatch(got: str, expected: str) -> str | None:
    """First difference between two outputs, or None when they agree."""
    pieces, reference = NUMBER.split(got), NUMBER.split(expected)
    if len(pieces) != len(reference):
        return f"{len(pieces) // 2} numbers where {len(reference) // 2} were pinned"
    for k, (piece, pinned) in enumerate(zip(pieces, reference)):
        if k % 2 == 0:
            if piece != pinned:
                return f"text {piece!r} where {pinned!r} was pinned"
        elif not math.isclose(float(piece), float(pinned), rel_tol=1e-12, abs_tol=1e-14):
            return f"number {piece} where {pinned} was pinned"
    return None


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(capsys, name):
    pinned = GOLDEN[name]
    code = main(list(pinned["argv"]))
    captured = capsys.readouterr()
    assert code == pinned["code"]
    for stream, text in (("stdout", captured.out), ("stderr", captured.err)):
        assert mismatch(text, "\n".join(pinned[stream])) is None, stream

