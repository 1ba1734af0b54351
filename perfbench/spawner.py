"""Launch and time the benchmark's CLI commands from a process that stays small.

After exec, a child's ``ru_maxrss`` starts from the memory of the process
that forked it (Linux keeps the old address space's high-water mark).  The
CLI children are therefore launched from here, not from ``run.py``, whose
oracle tables would otherwise be reported as the children's peak RSS.

Before each command the helper times a fixed piece of pure-Python work,
the reference loop, until at least ``reference_min_s`` seconds of it have
run (one sample at least).  The samples gauge the host's speed at the
moment; ``run.py`` scales the commands' times by them.

Protocol: one JSON request per stdin line, ``{"argv", "cwd", "env",
"stdout", "reference_min_s"}``; one JSON reply per stdout line,
``{"wall_s", "exit_code", "rss_kb", "stderr", "reference_s"}``.  The
command's stdout goes to the file ``stdout``.
"""

import json
import os
import subprocess
import sys
import time

REFERENCE_N = 40_000


def reference_s() -> float:
    """Seconds for a smallest-prime-factor sieve and a modular sum up to REFERENCE_N."""
    start = time.perf_counter()
    spf = list(range(REFERENCE_N))
    for p in range(2, int(REFERENCE_N**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, REFERENCE_N, p):
                if spf[m] == m:
                    spf[m] = p
    total, last = 0, {}
    for k in range(2, REFERENCE_N):
        total += spf[k] * k % 7
        last[k & 1023] = total
    return time.perf_counter() - start


def run(request: dict) -> dict:
    reference = [reference_s()]
    while sum(reference) < request["reference_min_s"]:
        reference.append(reference_s())
    with open(request["stdout"], "wb") as stdout:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdout=stdout, stderr=subprocess.PIPE)
        try:
            stderr = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
    return {"wall_s": wall, "exit_code": proc.returncode, "rss_kb": usage.ru_maxrss,
            "stderr": stderr.decode(errors="replace"), "reference_s": reference}


if __name__ == "__main__":
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
