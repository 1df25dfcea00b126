"""Run one command and report its exit code, wall time, CPU time and peak RSS.

    python3 perfbench/runner.py FD EXECUTABLE [ARGS...]

The report is one line written to file descriptor FD:
``<exit code> <wall seconds> <cpu seconds> <peak RSS KiB>``.

Linux carries the resident-set high-water mark of the process that spawns a
child into the child's ``ru_maxrss``.  The benchmark harness holds every
output it checks, so children it spawned directly would report its size
instead of their own.  This runner imports almost nothing, so the mark it
passes on is below that of any Python child, and the child's own peak is
what is reported.
"""

import os
import sys
import time


def main() -> int:
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    code = os.waitstatus_to_exitcode(status)
    os.write(fd, f"{code} {wall!r} {cpu!r} {usage.ru_maxrss}\n".encode())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
