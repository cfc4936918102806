"""Run one anelor CLI invocation under the span tracer.

    python perfbench/traced_cli.py SPANS_PATH TASK_ID_JSON ARGV...

Times a fresh `import anelor.cli`, installs the tracer, calls
`anelor.cli.main(ARGV)` and exits with its return code after writing the
spans, leaf totals and import time to SPANS_PATH. `src` must be on PYTHONPATH.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    spans_path, task, argv = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    import anelor.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.task = task
    tracer.install()
    try:
        return anelor.cli.main(argv)
    finally:
        tracer.uninstall()
        dump = tracer.dump()
        dump["import_s"] = import_s
        with open(spans_path, "w") as handle:
            json.dump(dump, handle, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
