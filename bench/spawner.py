"""Runs the benchmark's CLI children and measures each one.

    python3 bench/spawner.py

Reads one JSON request a line on standard input, {"argv", "out", "err",
"timeout"}, runs the command with its standard output and error in the
files `out` and `err`, and writes back one JSON line, {"code", "wall",
"cpu", "rss_kb"}: exit code, seconds from spawn to exit, user + sys CPU
seconds and ru_maxrss, all from os.wait4. Ends at the end of its input.

Linux counts in a child's ru_maxrss the memory of the forked copy of its
parent as it was before exec, so a child forked from run.py, which holds
whole parsed programs, reports the memory of run.py as its own.
Forked from this small process, a child reports at least this process's
memory (about 14 MB), which is below that of any soclang command.
"""

import json
import os
import signal
import subprocess
import sys
import time


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout()


def run(argv, out_path: str, err_path: str, timeout: int) -> dict:
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        signal.alarm(timeout)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except Timeout:
            proc.kill()
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    return {"code": os.waitstatus_to_exitcode(status), "wall": wall,
            "cpu": ru.ru_utime + ru.ru_stime, "rss_kb": ru.ru_maxrss}


def main() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    for line in sys.stdin:
        req = json.loads(line)
        result = run(req["argv"], req["out"], req["err"], req["timeout"])
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
