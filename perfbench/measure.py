"""Run one command and record its exit status, wall time and peak resident set size.

Usage: python3 perfbench/measure.py RESULT.json TIMEOUT_S COMMAND [ARG...]

The command inherits this process's standard streams. Its peak RSS is read
from the operating system when it is reaped. Linux counts the resident size a
process has at fork towards the child's peak, so the benchmark starts every
measured command from this small launcher instead of from its own, larger,
process. The command is killed after TIMEOUT_S seconds.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main(argv):
    result_path, timeout_s, *command = argv
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
    signal.alarm(int(float(timeout_s)))
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = time.perf_counter() - start
    signal.alarm(0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump({"exit": proc.returncode, "wall_s": wall_s, "peak_kb": usage.ru_maxrss}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
