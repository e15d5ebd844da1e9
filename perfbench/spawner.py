"""Spawns and times processes for run.py, and stays small while doing it.

A spawned child's ru_maxrss also counts the peak resident memory of the
address space it was spawned from (Linux records it at exec), so builds are
started from here rather than from run.py, which holds workloads and reads
output trees. Protocol: one JSON request per stdin line, {"argv": [...],
"env": {...}, "stderr": path}; one JSON reply per stdout line, {"seconds",
"exit_code", "maxrss_kb", "spawner_hwm_kb"}. Exits at the end of stdin.
"""

import json
import os
import sys
import time


def _peak_rss_kb() -> int:
    """This address space's peak resident memory (VmHWM), the part a child inherits."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
             0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
        print(json.dumps({
            "seconds": seconds,
            "exit_code": os.waitstatus_to_exitcode(status),
            "maxrss_kb": usage.ru_maxrss,
            "spawner_hwm_kb": _peak_rss_kb(),
        }), flush=True)


if __name__ == "__main__":
    main()
