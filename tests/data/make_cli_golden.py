"""Write cli_golden.json: exit code, stdout and stderr of a fixed set of anelor
commands, each run in process through `anelor.cli.main`.

`tests/test_cli_golden.py` runs the same commands and compares: numbers to
1e-12 relative (1e-14 absolute for roundoff-sized values), text exactly. Each
output is stored as a list of lines, so a regenerated file diffs line by line.

Run from the repository root: python tests/data/make_cli_golden.py (about 1 s).
"""

import contextlib
import io
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src")]

from anelor import cli  # noqa: E402

COMMANDS = {
    "coeffs-csv": ["coeffs", "--beta", "0.5", "--ra", "100"],
    "coeffs-json": ["coeffs", "--beta", "0.5", "--ra", "100", "--format", "json"],
    "coeffs-flat": ["coeffs", "--beta", "0", "--l", "2"],
    "critical-oracle": ["critical", "--beta-sweep", "0", "3", "7", "--source", "oracle"],
    "critical-closed-form": ["critical", "--beta-sweep", "0", "3", "7",
                             "--source", "closed_form"],
    "critical-published": ["critical", "--beta-sweep", "0", "3", "7",
                           "--source", "published"],
    "critical-widths": ["critical", "--beta-sweep", "0", "1", "5", "--l-sweep", "2", "3", "3"],
    "critical-optimize-l": ["critical", "--beta-sweep", "0", "1", "5", "--optimize-l",
                            "--source", "closed_form"],
    "simulate-csv": ["simulate", "--ra", "1500", "--beta", "0.2", "--coords", "both"],
    "simulate-json": ["simulate", "--ra", "1500", "--beta", "0.2", "--coords", "both",
                      "--format", "json"],
    "simulate-abc": ["simulate", "--coords", "abc", "--source", "closed_form", "--ra", "800"],
    "simulate-xyz": ["simulate", "--coords", "xyz", "--ra", "1500", "--beta", "0.2"],
    "validate-csv": ["validate", "--beta", "0.3", "--n-modes", "1", "2", "4", "8", "16"],
    "validate-json": ["validate", "--beta", "0.3", "--n-modes", "1", "2", "4", "8", "16",
                      "--format", "json"],
}


def capture(argv) -> dict:
    """Exit code, stdout and stderr lines of one in-process `main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"code": code, "stdout": out.getvalue().split("\n"),
            "stderr": err.getvalue().split("\n")}


def main() -> None:
    document = {name: {"argv": argv, **capture(argv)} for name, argv in COMMANDS.items()}
    (HERE / "cli_golden.json").write_text(json.dumps(document, indent=1) + "\n")


if __name__ == "__main__":
    main()
