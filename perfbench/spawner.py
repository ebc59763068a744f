"""Start the benchmark's child processes on request and report how they ran.

    python perfbench/spawner.py      # driven by run.py over stdin/stdout

Each request line is JSON with "argv", "env", "cwd", "stdout", "stderr"
and "timeout_s"; the child's output goes to the two named files.  Each
reply line gives the exit code, the wall time from start to exit and the
child's max RSS.

Why a separate process: Linux carries a parent's RSS high-water mark into
a child at fork and exec, so a child of the benchmark's main process (which
holds numpy, mpmath and parsed outputs) would report at least that much.
This process stays small, so the max RSS of its children is their own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"], cwd=req["cwd"])
            killer = threading.Timer(req["timeout_s"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
