"""Run one command; print its exit code, wall time and peak RSS as JSON.

    python3 perfbench/launch.py STDOUT_FILE STDERR_FILE -- COMMAND...

The benchmark starts every CLI call through this small process. On Linux
the peak RSS that wait4 reports for a child is at least the RSS of the
process that spawned it, and the benchmark's own process grows as it
checks outputs. Spawned from here, that floor is this process's own
~10 MB, below any omegalab call, so the figure is the call's own.
"""

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    out_path, err_path, sep, *command = argv
    if sep != "--" or not command:
        print(__doc__, file=sys.stderr)
        return 2
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    json.dump({"code": proc.returncode, "wall_s": wall, "rss_kb": usage.ru_maxrss}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
