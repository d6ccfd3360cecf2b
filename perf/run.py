"""Run the benchmark: every workload in a fresh interpreter with BLAS pinned.

Contract form, one workload and one mode per call::

    python3 perf/run.py --workload scis --seed 0 --seconds 15 --trace 0

Suite form, every workload, end-to-end runs then traced runs::

    python3 perf/run.py --seed 0 --out perf/out/run.json --traced [--quick]

Each workload runs in its own ``python`` subprocess with
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set
to 1 and ``REPRO_WORKERS`` / ``REPRO_BACKEND`` removed; subprocesses run
one after another, and none uses more than two fork workers.  ``--trace 1``
runs the traced variant only, ``--traced`` both.

The full result (every metric with its unit, sample count and spread, plus
the machine and software it ran on) is written to ``--out``; a table goes
to standard output, and the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and the ``BENCHMARK.json`` metrics (prefixed
``<workload>/`` when more than one workload ran).  Exit codes: 0 clean,
1 a check failed or a workload did not finish, 2 the ``serve`` load
generator lagged too far behind its schedule for the run to be valid.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from catalog import ROOT, WORKLOADS, load_contract

PERF = Path(__file__).resolve().parent
OUT = PERF / "out"
CHILD_TIMEOUT_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REMOVED_ENV = ("REPRO_WORKERS", "REPRO_BACKEND")


def child_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in REMOVED_ENV}
    env.update(PINNED_ENV)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(workload: str, trace: int, args) -> Optional[dict]:
    """One workload in one subprocess; None if it crashed or timed out."""
    result_path = OUT / f"{workload}.trace{trace}.json"
    result_path.unlink(missing_ok=True)
    command = [
        sys.executable, str(PERF / "jobs.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(trace),
        "--result", str(result_path),
    ] + (["--quick"] if args.quick else [])
    # The child's chatter goes to stderr: stdout ends with the result line.
    child = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=2, start_new_session=True
    )
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perf: {workload} did not finish in {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        code = None
    finally:
        # Stop anything the child left running (its fork workers included).
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if code != 0 or not result_path.exists():
        print(f"perf: {workload} (trace {trace}) exited with {code}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def git_head() -> Optional[str]:
    # The ceiling keeps git from reporting an enclosing repository's HEAD
    # when the benchmark runs from a plain copy of the tree.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_guard(results: List[dict]) -> dict:
    """What the numbers depend on besides the code."""
    first = results[0] if results else {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": first.get("numpy"),
        "blas_env": dict(PINNED_ENV),
        "tensor_backend": first.get("backend"),
        "pool_workers": first.get("workers"),
        "git_head": git_head(),
    }


def format_table(workloads: Dict[str, dict]) -> str:
    lines = [f"{'workload':<9} {'metric':<28} {'value':>16} {'unit':<7} {'n':>6}"]
    for name, entry in workloads.items():
        for section in ("e2e", "layers"):
            for metric, item in entry.get(section, {}).items():
                count = item.get("n")
                lines.append(
                    f"{name:<9} {metric:<28} {item['value']:>16.6g} {item['unit']:<7} "
                    f"{'' if count is None else count:>6}"
                )
    return "\n".join(lines)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", "--workloads", dest="workloads", default=",".join(WORKLOADS),
        help="comma-separated workloads (default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 runs the traced variant instead of the end-to-end one")
    parser.add_argument("--traced", action="store_true",
                        help="run the end-to-end and the traced variant")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for the harness tests")
    parser.add_argument("--out", type=Path, default=OUT / "run.json")
    args = parser.parse_args(argv)
    args.workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown or not args.workloads:
        parser.error(f"unknown workloads {unknown}; choose from {', '.join(WORKLOADS)}")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 1
    contract = load_contract()
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(contract["run_seconds"])
    modes = (0, 1) if args.traced else (args.trace,)
    OUT.mkdir(parents=True, exist_ok=True)

    workloads: Dict[str, dict] = {}
    results: List[dict] = []
    for name in args.workloads:
        entry = workloads[name] = {"attempted": 0, "failed": 0}
        for mode in modes:
            result = run_child(name, mode, args)
            if result is None:
                return 1
            results.append(result)
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["e2e" if mode == 0 else "layers"] = result["e2e" if mode == 0 else "layers"]
            if result.get("invalid"):
                entry["invalid"] = result["invalid"]
            if "gen_lag_p99_ms" in result:
                entry["gen_lag_p99_ms"] = result["gen_lag_p99_ms"]

    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "guard": run_guard(results),
        "workloads": workloads,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(format_table(workloads))

    names = {
        0: [m["name"] for m in contract["end_to_end"]],
        1: [m["name"] for m in contract["per_layer"]],
    }
    single = len(args.workloads) == 1
    metrics = {}
    for name, entry in workloads.items():
        for mode in modes:
            section = entry["e2e" if mode == 0 else "layers"]
            for metric in names[mode]:
                key = metric if single else f"{name}/{metric}"
                metrics[key] = {"value": section[metric]["value"], "unit": section[metric]["unit"]}
    attempted = sum(entry["attempted"] for entry in workloads.values())
    failed = sum(entry["failed"] for entry in workloads.values())
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    for name, entry in workloads.items():
        if entry.get("invalid"):
            print(f"perf: {name} run is invalid: {entry['invalid']}", file=sys.stderr)
    if any(entry.get("invalid") for entry in workloads.values()):
        return 2
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
