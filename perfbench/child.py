"""One benchmark child process: a set-up probe or one CLI operation.

    python3 perfbench/child.py setup <cli args...>
    python3 perfbench/child.py op <0|1> <cli args...>

``setup`` imports skewflow, runs ``cli.load_config`` and, when the config has
a grid, ``cli.build_immersion``, then reports the CLOCK_MONOTONIC time at
which it finished; the parent subtracts the time it spawned the process.
``op`` imports skewflow, optionally installs the tracer, and times
``cli.main`` from entry until it returns with its outputs written.  Either
mode prints one JSON object as the last line of stdout and exits with the
CLI's exit code.

The peak RSS is the process's own high-water mark, ``VmHWM``.  ``ru_maxrss``
is not used: the parent starts children with vfork and exec, and Linux
carries the parent's peak into the child's ``ru_maxrss`` at exec.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import skewflow  # noqa: E402,F401  (import cost belongs to set-up, not to wall_s)
from skewflow import cli  # noqa: E402


def setup_probe(argv) -> dict:
    args = cli.build_parser().parse_args(argv)
    config = cli.load_config(args.config, args)
    if "grid" in config:
        cli.build_immersion(config)
    return {"exit": 0, "setup_end": time.clock_gettime(time.CLOCK_MONOTONIC)}


def peak_rss_kb() -> int:
    """High-water resident set size of this process's own address space, in KiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def operation(traced: bool, argv) -> dict:
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.remove()
    result = {
        "exit": code,
        "wall_s": wall,
        "maxrss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        result["layers"] = tracer.stats
    return result


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        result = setup_probe(rest)
    elif mode == "op":
        result = operation(rest[0] == "1", rest[1:])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    print(json.dumps(result))
    return int(result["exit"])


if __name__ == "__main__":
    sys.exit(main())
