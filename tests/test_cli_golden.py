"""The fixed CLI command set against its pinned outputs (`data/cli_golden.json`,
regenerate named entries with `python tests/data/make_cli_golden.py NAME ...`).

Text must match exactly; numbers must match to 1e-12 relative, or to 1e-14
absolute where they are roundoff-sized (route deviations of 1e-16).
"""

import importlib.util
import json
import math
import pathlib
import re

import pytest

from anelor.cli import main

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "cli_golden.json").read_text())
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



def test_generator_rewrites_only_the_named_entries(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_cli_golden", DATA / "make_cli_golden.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    document = dict(GOLDEN, **{"coeffs-flat": {"argv": [], "code": 9, "stdout": [], "stderr": []}})
    text = json.dumps(document, indent=1) + "\n"
    copy = tmp_path / "cli_golden.json"
    copy.write_text(text)
    monkeypatch.setattr(generator, "GOLDEN", copy)
    with pytest.raises(SystemExit):
        generator.main(["coeffs-flat", "no-such-entry"])
    assert copy.read_text() == text
    generator.main(["coeffs-flat"])
    regenerated = json.loads(copy.read_text())
    fresh, regenerated["coeffs-flat"] = regenerated["coeffs-flat"], document["coeffs-flat"]
    assert fresh["code"] == 0 and mismatch("\n".join(fresh["stdout"]),
                                           "\n".join(GOLDEN["coeffs-flat"]["stdout"])) is None
    assert json.dumps(regenerated, indent=1) + "\n" == text  # every other entry keeps its bytes
