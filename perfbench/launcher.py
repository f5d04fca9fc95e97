"""Run one `heavenly` command with the per-layer tracer installed.

Usage: python perfbench/launcher.py SPANS_OUT COMMAND [ARGS...]

The spans are written to SPANS_OUT when the command ends, also when it
exits through argparse or an uncaught exception; the exit code is the
command's own.
"""

import sys

import tracer

if __name__ == "__main__":
    out, argv = sys.argv[1], sys.argv[2:]
    spans = tracer.Tracer()
    spans.install()
    import heavenly.cli

    try:
        code = heavenly.cli.main(argv)
    finally:
        spans.dump(out)
    sys.exit(code)
