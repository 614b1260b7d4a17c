"""Traced child of the cli_session workload: ``failsafekit.cli`` with spans.

Usage: cli_child.py SPANS_JSON OP_ID CLI_ARG...

Installs the call-site wrappers, records when ``failsafekit.cli.main`` is
entered (monotonic clock, comparable with the parent's spawn time), runs
the command and writes its spans to SPANS_JSON, whatever the outcome.  At
its deadline the parent sends SIGTERM, which closes the open spans (so a
hung sampler still shows its time) before the file is written.
"""

import json
import signal
import sys
import time

import failsafekit.cli

import tracing


class DeadlineReached(BaseException):
    pass


def on_term(signum, frame):
    raise DeadlineReached


def main() -> int:
    path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    rec = tracing.Recorder()
    rec.op = op_id
    tracing.install(rec)
    signal.signal(signal.SIGTERM, on_term)
    entered = time.monotonic()
    try:
        return failsafekit.cli.main(argv)
    except DeadlineReached:
        return 128 + signal.SIGTERM
    finally:
        with open(path, "w") as fh:
            json.dump({"spans": rec.spans, "counters": rec.counters, "main_entry": entered}, fh)


if __name__ == "__main__":
    sys.exit(main())
