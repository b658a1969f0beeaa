"""Traced stand-in for ``python -m kottler_imcf.cli``.

    python3 perfbench/cli_child.py SPANS_CSV SUBCOMMAND [ARGS...]

Times the package import as one span, installs the timing wrappers, runs
the CLI's ``main`` with the remaining arguments, writes the spans to
SPANS_CSV and exits with the CLI's exit code.
"""

import sys

from tracer import Tracer


def main(argv):
    tracer = Tracer()
    with tracer.span("import.kottler_imcf"):
        import kottler_imcf.cli as cli
    tracer.install()
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv[1:])
    finally:
        tracer.restore()
        tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
