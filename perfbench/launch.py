"""Run one ``statepath`` subcommand with the benchmark's tracer installed.

    python3 perfbench/launch.py --trace-out FILE <subcommand> --config CFG

Times ``import statepath.cli``, wraps every layer from outside the package,
calls ``statepath.cli.main`` with the remaining arguments and writes the
import time, spans and counters to FILE as JSON. The exit code is the
subcommand's.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--trace-out":
        print("usage: launch.py --trace-out FILE <statepath arguments>", file=sys.stderr)
        return 2
    out_path, argv = sys.argv[2], sys.argv[3:]
    import statepath.cli

    import_s = time.perf_counter() - _START
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = statepath.cli.main(argv)
    finally:
        tracer.active = False
        with open(out_path, "w", encoding="utf-8") as out:
            json.dump({"import_s": import_s, **tracer.dump()}, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
