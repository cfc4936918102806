"""Pin entries of cli_golden.json: exit code, stdout and stderr of named anelor
commands, each run in process through `anelor.cli.main`.

`tests/test_cli_golden.py` runs the same commands and compares: numbers to
1e-12 relative (1e-14 absolute for roundoff-sized values), text exactly. Each
output is stored as a list of lines, so a regenerated file diffs line by line.

Run from the repository root with the names of the entries to (re)generate,
for example `python tests/data/make_cli_golden.py coeffs-csv simulate-xyz`;
every other entry keeps its bytes, and an unknown name is an error.
"""

import argparse
import contextlib
import io
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src")]

from anelor import cli  # noqa: E402

GOLDEN = HERE / "cli_golden.json"

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
    "critical-no-onset": ["critical", "--beta", "7", "--l", "4.3", "--source", "closed_form"],
    "critical-optimize-l-no-onset": ["critical", "--beta", "7", "--optimize-l",
                                     "--source", "closed_form"],
    "critical-optimize-l-gamma-overflow": ["critical", "--optimize-l", "--gamma", "1e308",
                                           "--beta", "6", "--source", "closed_form"],
    "critical-e4-zero": ["critical", "--beta", "6.5", "--l", "7.548244634153276",
                         "--source", "closed_form"],
    "simulate-csv": ["simulate", "--ra", "1500", "--beta", "0.2", "--coords", "both"],
    "simulate-json": ["simulate", "--ra", "1500", "--beta", "0.2", "--coords", "both",
                      "--format", "json"],
    "simulate-abc": ["simulate", "--coords", "abc", "--source", "closed_form", "--ra", "800"],
    "simulate-xyz": ["simulate", "--coords", "xyz", "--ra", "1500", "--beta", "0.2"],
    "simulate-no-lorenz-map": ["simulate", "--beta", "9", "--l", "1", "--ra", "1e7",
                               "--coords", "xyz"],
    "validate-csv": ["validate", "--beta", "0.3", "--n-modes", "1", "2", "4", "8", "16"],
    "validate-json": ["validate", "--beta", "0.3", "--n-modes", "1", "2", "4", "8", "16",
                      "--format", "json"],
    "validate-past-e4-edge": ["validate", "--beta", "7.75", "--n-modes", "2", "8"],
}


def capture(argv) -> dict:
    """Exit code, stdout and stderr lines of one in-process `main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"code": code, "stdout": out.getvalue().split("\n"),
            "stderr": err.getvalue().split("\n")}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="(re)generate named golden entries")
    parser.add_argument("names", nargs="+", choices=list(COMMANDS), metavar="NAME")
    names = parser.parse_args(argv).names
    document = json.loads(GOLDEN.read_text())
    for name in names:
        document[name] = {"argv": COMMANDS[name], **capture(COMMANDS[name])}
    GOLDEN.write_text(json.dumps(document, indent=1) + "\n")


if __name__ == "__main__":
    main()
