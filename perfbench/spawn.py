"""Small helper that starts the benchmark's child processes and times them.

    python3 -S perfbench/spawn.py

Reads one JSON request per line on stdin, {"argv", "ready", "timeout"}, runs
argv and answers one JSON line: {"seconds", "returncode", "stdout",
"stderr", "maxrss_kb"}.  "seconds" runs from the spawn to the exit, or, with
"ready", to the child's first line of output, which must be "ready".
"maxrss_kb" is the highest peak resident set of any child so far.

The kernel counts in a child's peak resident set the memory of the process
that spawned it, so the children are spawned from this process, which
imports no numpy and stays small, not from run.py.
"""

import json
import resource
import subprocess
import sys
from time import perf_counter


def run(argv, ready, timeout):
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, stdin=subprocess.DEVNULL)
    first = b""
    if ready:
        first = proc.stdout.readline()
        seconds = perf_counter() - t0
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nkilled after {timeout} s".encode()
    if not ready:
        seconds = perf_counter() - t0
    elif first != b"ready\n":
        out, seconds = first + out, None
    return {"seconds": seconds, "returncode": proc.returncode,
            "stdout": out.decode(), "stderr": err.decode()[-300:],
            "maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["ready"], req["timeout"])),
              flush=True)


if __name__ == "__main__":
    main()
