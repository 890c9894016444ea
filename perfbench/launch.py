"""Run the filmcav CLI in this process, as its console script does, and
record when the subcommand function is entered.

    python3 perfbench/launch.py MODE RECORD -- <filmcav arguments>

MODE is ``run`` (the plain CLI), ``setup`` (return right after entering
the subcommand, to time set-up alone) or ``trace`` (the CLI with every layer
wrapped by ``tracer.install``).  RECORD is a JSON file written when the CLI
returns: the ``time.monotonic`` entry time, the exit code and, when
tracing, the spans and counts.  ``filmcav`` must be importable.
"""

import json
import sys
import time


def main() -> int:
    if (len(sys.argv) < 4 or sys.argv[1] not in ("run", "setup", "trace")
            or sys.argv[3] != "--"):
        raise SystemExit("usage: python3 perfbench/launch.py "
                         "run|setup|trace RECORD -- <filmcav arguments>")
    mode, record_path, _, *argv = sys.argv[1:]
    from filmcav import cli

    tracer = None
    if mode == "trace":
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    entered = []

    def entry(fn):
        def subcommand(config):
            entered.append(time.monotonic())
            return 0 if mode == "setup" else fn(config)
        return subcommand

    for command, fn in cli._DISPATCH.items():
        cli._DISPATCH[command] = entry(fn)
    code = cli.main(argv)
    record = {"entered": entered[0] if entered else None, "code": code}
    if tracer is not None:
        record.update(tracer.dump())
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
