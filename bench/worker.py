"""In-process request server: one child process that imports flatcert.cli
once and answers CLI requests from the benchmark over a pipe.

Usage: python worker.py READ_FD WRITE_FD

Each request is an argument list for ``flatcert.cli.main``; the reply is
``(exit code, stdout, stderr, layer totals or None)``.  A Python traceback
is exit code 1, as it is for the real command.  The message
``("trace", on)`` switches the span recorder on or off.
"""

from __future__ import annotations

import contextlib
import io
import sys
import traceback
from multiprocessing.connection import Connection


def serve(conn_in: Connection, conn_out: Connection) -> None:
    import flatcert.cli as cli

    from tracer import Tracer

    tracer = None
    conn_out.send("ready")
    while True:
        msg = conn_in.recv()
        if msg is None:
            return
        if msg[0] == "trace":
            if msg[1] and tracer is None:
                tracer = Tracer()
                tracer.install()
            elif not msg[1] and tracer is not None:
                tracer.uninstall()
                tracer = None
            conn_out.send("ok")
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(args=list(msg[1]), prog_name="flatcert")
                code = 0
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
            except Exception:  # an uncaught error is a traceback exit of the real command
                traceback.print_exc()
                code = 1
        layers = tracer.collect() if tracer is not None else None
        conn_out.send((code, out.getvalue(), err.getvalue(), layers))


if __name__ == "__main__":
    serve(Connection(int(sys.argv[1]), writable=False), Connection(int(sys.argv[2]), readable=False))
