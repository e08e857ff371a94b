"""Traced ``blockcluster`` CLI invocation, for the cli_fit workload.

    python3 bench/cli_child.py SPANS_OUT fit --input ... --output ...

Installs the span wrappers, calls ``cli.main(argv)`` through the patched
module attribute, writes the spans as JSON to SPANS_OUT and exits with the
CLI's code.  The parent sets BLAS threading and PYTHONPATH.
"""

import sys

from spans import Tracer
from workloads import MODULES


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.installed(MODULES):
        code = MODULES["cli"].main(argv)
    tracer.dump(out_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
