"""Run the chebbound CLI in-process, traced or speed-sampled.

    python perfbench/cli_child.py trace sweep --n 8 ...
    python perfbench/cli_child.py sample sweep --n 8 ...

Behaves like ``python -m chebbound`` (same stdout, same exit code) and
appends one line to stderr: MARKER followed by a JSON object.

- ``trace``: spans recorded around the package's functions, as
  ``{"spans": [...], "missing": [...]}``.
- ``sample``: a machine-speed reference timed every SAMPLE_EVERY_S while
  the CLI runs, as ``{"main_ns", "ref_ns", "refs"}``: the CLI's own time
  with the samples taken out, their summed time and their count.  The host
  drifts within a sweep, so a reference timed next to the child process
  does not follow it; samples taken inside the run do.
"""

from __future__ import annotations

import json
import signal
import sys
import time

MARKER = "perfbench-child "
SAMPLE_EVERY_S = 0.02
# formatting work like the CLI's per-row emit: float repr and json
_SAMPLE_ROWS = [(-1.0 - i * 1.37e-3, 1.0 / (i + 3)) for i in range(60)]


def reference_format() -> int:
    t0 = time.perf_counter_ns()
    ",".join(f"{a!r},{b!r}" for a, b in _SAMPLE_ROWS)
    json.dumps(_SAMPLE_ROWS)
    return time.perf_counter_ns() - t0


def _sampled(cli, argv) -> tuple[int, dict]:
    refs = []
    signal.signal(signal.SIGALRM, lambda signum, frame: refs.append(reference_format()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t0 = time.perf_counter_ns()
    try:
        code = cli.main(argv)
        sys.stdout.flush()
    finally:
        main_ns = time.perf_counter_ns() - t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
    return code, {"main_ns": main_ns - sum(refs), "ref_ns": sum(refs), "refs": len(refs)}


def _traced(cli, argv) -> tuple[int, dict]:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = cli.main(argv)
    sys.stdout.flush()
    return code, {"spans": tracer.spans, "missing": tracer.missing}


def main() -> int:
    import chebbound.cli

    mode, argv = sys.argv[1], sys.argv[2:]
    code, report = {"trace": _traced, "sample": _sampled}[mode](chebbound.cli, argv)
    sys.stderr.write(MARKER + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
