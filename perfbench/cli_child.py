"""Traced stand-in for `python -m weylchar`, used by the cli-cold and cli-warm
workloads in their traced passes.

Installs the tracer, calls weylchar.cli.main(argv) exactly as the package's
own entry point does, then writes the recorded spans to the file named by
PERFBENCH_SPANS.  Run as:

    PERFBENCH_SPANS=spans.json python3 perfbench/cli_child.py character --algebra G2 --weight 0,1
"""

import json
import os
import sys
import time

import weylchar.cli

from spans import Tracer


def run(argv):
    tracer = Tracer()
    tracer.install()
    main_start = time.time()
    code = weylchar.cli.main(argv)
    tracer.uninstall()
    with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
        json.dump({"main_start": main_start, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
