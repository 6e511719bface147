"""Run one weylharm CLI call with the benchmark's tracer installed.

Usage: python perfbench/traced_cli.py OUT OP_ID -- <weylharm arguments>

Behaves like ``python -m weylharm.cli <arguments>`` (same output, same exit
status, same traceback on an unhandled error) and, on every exit path,
writes the per-layer aggregate to OUT.raw.json and the spans to OUT.json
and OUT.bin.
"""

import json
import sys


def main() -> None:
    out, op_id, sep, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py OUT OP_ID -- ARGS...")
    import weylharm.cli as cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op_id = op_id
    try:
        code = cli.main(argv)
    finally:
        with open(out + ".raw.json", "w") as fh:
            json.dump(tracer.raw(), fh)
        tracer.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
