"""skewflow benchmark: CLI workloads timed end to end, plus a per-function trace.

    python3 perfbench/run.py --workload torus-flow --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Every operation is one CLI task run through ``skewflow.cli.main`` in a fresh
child process (``child.py``), one after another: a closed loop with one
client.  A pass is one run of a workload's task list.  A run makes a fixed
number of passes: ``--seconds`` divided by the workload's nominal pass time,
so the count does not move with the speed of the code under test.  Each pass
is gated for correctness and compared byte for byte with the first.  After
every child the parent runs ``hostspeed.reference_work``, and every time of
the run is reported at the reference host speed (see ``hostspeed.py``).
``--trace 0`` prints the end-to-end metrics, medians over the run;
``--trace 1`` alternates untraced and traced passes and prints the
per-function metrics of the traced pass of median wall time.  The last line
of stdout is the result object; the lines before it hold the provenance
block and a summary with sample counts, raw times and the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import reference_work, run_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 10  # fewest timed set-up probes per run, after one untimed warm-up
CHILD_TIMEOUT_S = 150
# stripped from the children's environment so BLAS and the CLI use their defaults
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "SKEWFLOW_THREADS",
)
CHILD_ENV = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# seconds one pass and its set-up probe took at the commit that defined the
# benchmark (2-vCPU Xeon at 2.1 GHz); they fix each workload's pass count
NOMINAL_PASS_S = {"torus-flow": 7.5, "torus-verify": 2.7, "curve-flow": 2.4, "frame-algebra": 1.05}


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spawn(args, cwd: Path, speed: list[dict]) -> tuple[dict | None, str, float]:
    """Run child.py, then sample the host speed into ``speed``; return the
    child's result object (None if it printed none), stderr and spawn time."""
    spawned = _monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=cwd, env=CHILD_ENV, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s", spawned
    finally:
        speed.append(reference_work())
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, proc.stderr[-2000:], spawned
    result["exit"] = proc.returncode
    return result, proc.stderr[-2000:], spawned


def _checked(check, out: Path) -> list[str]:
    """Run a gate; a malformed output file counts as a failed gate, not a crash."""
    try:
        return check(out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{out.name}: unreadable output ({type(exc).__name__}: {exc})"]


def _run_pass(tasks, out_root: Path, traced: bool, reference: Path | None, after_op, speed: list[dict]) -> dict:
    from workloads import same_outputs

    result = {"traced": traced, "wall_s": 0.0, "rss_kb": 0, "bytes": 0, "failed": 0, "problems": [], "layers": {}}
    for i, task in enumerate(tasks):
        out = out_root / f"task{i}"
        child, stderr, _ = _spawn(["op", "1" if traced else "0", *task.argv, "--out", str(out)], out_root.parent, speed)
        if child is None or child["exit"] != 0:
            problems = [f"task {i} ({task.argv[0]}) failed: {stderr.strip()[-500:]}"]
        else:
            if after_op is not None:
                after_op(out)
            problems = _checked(task.check, out)
            if reference is not None:
                problems += same_outputs(out, reference / f"task{i}")
            result["wall_s"] += child["wall_s"]
            result["rss_kb"] = max(result["rss_kb"], child["maxrss_kb"])
            result["bytes"] += sum(p.stat().st_size for p in out.iterdir())
            for name, stat in child.get("layers", {}).items():
                prev = result["layers"].get(name, [0, 0.0, 0.0, 0])
                result["layers"][name] = [a + b for a, b in zip(prev, stat)]
        if problems:
            result["failed"] += 1
            result["problems"] += problems
    return result


def _setup_time(tasks, cwd: Path, speed: list[dict]) -> tuple[float | None, str]:
    """Interpreter start, imports, load_config and build_immersion, summed over the pass's tasks."""
    total = 0.0
    for task in tasks:
        child, stderr, spawned = _spawn(["setup", *task.argv], cwd, speed)
        if child is None or child["exit"] != 0:
            return None, f"set-up probe for {task.argv[0]} failed: {stderr.strip()[-500:]}"
        total += child["setup_end"] - spawned
    return total, ""


def _stats(values) -> dict:
    return {"n": len(values), "median": statistics.median(values), "values": values}


def _layer_metrics(traced: dict, scale: float, untraced_wall: float) -> dict:
    """Per-function metrics of one traced pass at reference speed; its self times sum to its traced wall time."""
    metrics = {}
    for name, (calls, self_s, _, _) in traced["layers"].items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s * scale, "s")
    _, _, step_s, nodes = traced["layers"]["flow.step"]
    metrics["flow.step.ns_per_node"] = (1e9 * step_s * scale / nodes if nodes else 0.0, "ns")
    metrics["cli.bytes_written"] = (traced["bytes"], "B")
    metrics["trace.overhead_frac"] = (traced["wall_s"] / untraced_wall - 1.0, "ratio")
    return metrics


def pass_count(name: str, seconds: float, trace: bool) -> int:
    """Passes of a run: as many as fit in ``seconds`` at the nominal pass time; a traced run needs two."""
    return max(2 if trace else 1, round(seconds / NOMINAL_PASS_S[name]))


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, after_op=None) -> dict:
    """A fixed number of passes, each after set-up probes; returns metrics and counts.

    ``after_op(out_dir)`` runs on each operation's outputs before its gate;
    the harness tests use it to corrupt an output.
    """
    from workloads import REFERENCE_PARTS, WORKLOADS

    work = WORK / f"{name}-{os.getpid()}"
    try:
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        tasks, sizes = WORKLOADS[name](seed, inputs, tiny)
        problems, setups = [], []
        speed = [reference_work()]  # host speed, sampled after every child

        def probe():
            setup, problem = _setup_time(tasks, work, speed)
            if problem:
                problems.append(problem)
            return setup

        probe()  # untimed: fills the bytecode and file caches
        passes = []
        count = pass_count(name, seconds, trace)
        probes = max(SETUP_PROBES, count)
        for i in range(count):
            # probes are spread evenly over the run, between the passes
            setups += [probe() for _ in range(probes * (i + 1) // count - probes * i // count)]
            passes.append(_run_pass(tasks, work / f"pass{i}", trace and i % 2 == 1,
                                    work / "pass0" if i else None, after_op, speed))
            if i:
                shutil.rmtree(work / f"pass{i}", ignore_errors=True)
        setups = [s for s in setups if s is not None]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass

    scale = run_scale(speed, REFERENCE_PARTS[name])
    # only passes whose every operation succeeded are timed
    untraced = [p for p in passes if not p["traced"] and not p["failed"]]
    traced = [p for p in passes if p["traced"] and not p["failed"]]
    attempted = len(passes) * len(tasks)
    failed = sum(p["failed"] for p in passes)
    problems += [msg for p in passes for msg in p["problems"]]
    raw = {"wall_s": [p["wall_s"] for p in untraced], "setup_s": setups}
    samples = {
        "wall_s": [t * scale for t in raw["wall_s"]],
        "setup_s": [t * scale for t in raw["setup_s"]],
        "peak_rss_mb": [p["rss_kb"] / 1024.0 for p in untraced],
    }
    end_to_end = {k: (statistics.median(v), END_TO_END_UNITS[k]) for k, v in samples.items() if v}
    per_layer = {}
    if untraced and traced:
        # the traced pass of median wall time gives the per-layer metrics
        chosen = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
        untraced_wall = statistics.median(raw["wall_s"])
        per_layer = _layer_metrics(chosen, scale, untraced_wall)
    summary = {
        "workload": name, "seed": seed, "trace": trace, "tiny": tiny,
        "passes": {"untraced": len(untraced), "traced": len(traced), "tasks_per_pass": len(tasks)},
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "samples": {k: _stats(v) for k, v in samples.items() if v},
        "raw_samples": {k: _stats(v) for k, v in raw.items() if v},
        "host_speed": {
            "parts": REFERENCE_PARTS[name], "scale": scale,
            **{part: _stats([s[part] for s in speed]) for part in speed[0]},
        },
        "problems": problems[:10],
    }
    if per_layer:
        # all traced spans nest inside main(), so their self times sum to the traced wall time
        self_sum = sum(s[1] for s in chosen["layers"].values())
        summary["trace_self_sum_s"] = self_sum * scale
        summary["trace_self_sum_over_untraced_wall"] = self_sum / untraced_wall
    return {
        "correct": not problems and bool(untraced),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "summary": summary,
        "sizes": sizes,
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _caches() -> dict:
    """Data and unified cache sizes of CPU 0 in KiB."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction" and size.endswith("K"):
            caches[f"L{level}_kib"] = int(size[:-1])
    return caches


def provenance(sizes: dict, peak_rss_mb: float | None) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        from skewflow import _kernels

        have_numba = _kernels.HAVE_NUMBA
    except ImportError:
        have_numba = None
    caches = _caches()
    l3_kib = caches.get("L3_kib")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: CHILD_ENV.get(k) for k in THREAD_VARS},
        "thread_note": "thread variables are removed from the children's environment: BLAS runs at its library default and the CLI serially",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "have_numba": have_numba,
        "git_commit": _git_commit(),
        "grid": sizes,
        "caches": caches,
        "peak_rss_below_l3": None if peak_rss_mb is None or l3_kib is None else peak_rss_mb * 1024.0 < l3_kib,
        "bandwidth_note": "peak RSS bounds every working set; it sits below the L3 size, so no memory bandwidth figure is reported; cli.bytes_written is computed from output file sizes",
    }


def _smoke(spec: dict) -> int:
    """Every workload once at tiny size, traced and untraced; the metrics must be exactly those of the spec, with their units."""
    from workloads import WORKLOADS

    wanted = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ok = sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for name in WORKLOADS:
        res = run_workload(name, seed=1, seconds=0, trace=True, tiny=True)
        printed = {k: {"value": v, "unit": u} for k, (v, u) in {**res["end_to_end"], **res["per_layer"]}.items()}
        missing = sorted(k for k, unit in wanted.items() if printed.get(k, {}).get("unit") != unit)
        unlisted = sorted(set(printed) - set(wanted))
        ok = ok and res["correct"] and not missing and not unlisted
        print(json.dumps({"workload": name, "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                          "missing": missing, "unlisted": unlisted, "summary": res["summary"], "metrics": printed}))
    return 0 if ok else 1


def _terminated(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the running child, and the work-directory cleanup
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny size and check that every metric is printed")
    args = parser.parse_args(argv)
    if not (SRC / "skewflow" / "cli.py").is_file():
        print(f"error: no skewflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        return _smoke(spec)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = res["per_layer"] if args.trace else res["end_to_end"]
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    peak = res["end_to_end"].get("peak_rss_mb", (None,))[0]
    print("provenance " + json.dumps(provenance(res["sizes"], peak), sort_keys=True))
    print("summary " + json.dumps(res["summary"], sort_keys=True))
    print(json.dumps({
        "correct": res["correct"] and all(n in metrics for n in names),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names if n in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
