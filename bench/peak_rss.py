"""Run one command and fail unless it exits 0 below a peak-RSS bound.

Usage: python3 bench/peak_rss.py MB COMMAND [ARG ...]

The command runs as a child with its standard output discarded.  Its peak
resident set size is read from ``os.wait4``'s resource usage of that child
alone (``ru_maxrss``, KiB on Linux); ``RUSAGE_CHILDREN`` would instead
report the largest of every child this process has waited for.  Prints
``exit RC, peak RSS N MB`` and exits 0 only when the child exited 0 with a
peak below MB megabytes (MiB), else 1.
"""

from __future__ import annotations

import os
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    bound, command = float(argv[0]), argv[1:]
    child = subprocess.Popen(command, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = rc = os.waitstatus_to_exitcode(status)
    mb = usage.ru_maxrss / 1024
    print(f"exit {rc}, peak RSS {mb:.0f} MB")
    return int(not (rc == 0 and mb < bound))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
