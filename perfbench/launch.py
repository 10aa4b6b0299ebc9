"""Run one command and report its wall time, peak RSS and exit code as JSON.

    python3 launch.py STDOUT_FILE STDERR_FILE PROGRAM [ARG ...]

The benchmark starts every measured command through this small process.
Linux carries a process's resident size from before exec into the
``ru_maxrss`` of what it execs, so a command spawned straight from the
benchmark (which holds reference data) would report the benchmark's
footprint. Spawned from here, the carried-over size is this launcher's,
which is below any command that imports numpy.
"""

import json
import os
import sys
import time


def main() -> None:
    stdout_path, stderr_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd = os.open(stdout_path, flags, 0o644)
    err_fd = os.open(stderr_path, flags, 0o644)
    try:
        start = time.perf_counter()
        pid = os.posix_spawnp(
            argv[0],
            argv,
            os.environ,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, out_fd, 1),
                (os.POSIX_SPAWN_DUP2, err_fd, 2),
            ],
        )
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(out_fd)
        os.close(err_fd)
    print(
        json.dumps(
            {
                "wall_s": wall,
                "maxrss_kb": usage.ru_maxrss,
                "exit": os.waitstatus_to_exitcode(status),
            }
        )
    )


if __name__ == "__main__":
    main()
