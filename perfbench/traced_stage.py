"""Run one nullfoliate CLI command with its layers traced.

    python3 perfbench/traced_stage.py SPANS.json -- <nullfoliate CLI arguments>

The command's exit code is passed through; the spans are written to
SPANS.json after the command returns.
"""

import sys

from layers import PACKAGE, targets
from tracer import Tracer, instrument


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        sys.exit("usage: traced_stage.py SPANS.json -- <CLI arguments>")
    from nullfoliate import cli
    tracer = Tracer()
    with instrument(tracer, targets(), PACKAGE):
        code = cli.main(argv[2:])
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
