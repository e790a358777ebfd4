"""One traced cold CLI call: python cold_cli.py SPANS_FILE ARGS...

Imports flatcert.cli, rebinds the traced functions, runs the command with
ARGS, and writes the per-layer totals to SPANS_FILE as JSON when it exits.
The exit code and output are the command's own.
"""

import json
import sys

import flatcert.cli as cli

from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        cli.main(args=sys.argv[2:], prog_name="flatcert")
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.collect(), fh)
