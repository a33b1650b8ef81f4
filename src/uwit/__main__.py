"""The ``uwit`` command: ``python -m uwit`` and the installed ``uwit`` script.

All of uwit's linear algebra is on 4x4 matrices, where a second OpenBLAS
thread only adds start-up and CPU time, so the command starts OpenBLAS on
one thread unless ``OPENBLAS_NUM_THREADS`` is already set. OpenBLAS reads
the variable once, when numpy loads, so it is set before ``uwit.cli`` is
imported; library callers and in-process ``uwit.cli.main`` calls keep
their own setting."""

import os
import sys


def main():
    """Run the command on ``sys.argv`` and end the process with its exit code.

    Once the command has returned, its files are closed and its standard
    output flushed, so the process ends after flushing standard error,
    without the interpreter's teardown, which with numpy loaded took 13-31
    ms of a 120-290 ms command on 2 cores. An exception escaping the
    command takes Python's usual exit."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    code = cli_main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
