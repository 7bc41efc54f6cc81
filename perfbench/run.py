"""entspan's benchmark: one workload, measured end to end or traced per layer.

Usage, from the root of a checkout (the directory holding ``src/entspan``):

    python3 perfbench/run.py --workload exact-geq12 --seed 1 --seconds 25 --trace 0

Each run starts fresh processes (``child.py``).  With ``--trace 0`` it starts
SETUPS - 1 processes that only set up, then one that sets up and runs a
closed loop of one client for ``--seconds``, and it prints the end-to-end
metrics.  With ``--trace 1`` one process sets up with spans recorded, runs the
loop untraced for half the time, replays the same ops traced, and it prints
the per-layer metrics.  Every op's output is checked.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from reference import REFERENCE_S, SLOWDOWN_LIMIT, at_reference_speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: A run may take 180 s; children get what is left of this.
RUN_BUDGET_S = 170.0

#: Fresh processes that measure set-up; setup_s is their median.
SETUPS = 5


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown: not a git checkout"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown: {exc}"
    return out.stdout.strip() if out.returncode == 0 else "unknown: git rev-parse failed"


def run_child(root: Path, work: Path, args, deadline: float, extra: list[str]) -> dict:
    result = work / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--work", str(work), "--result", str(result), *extra]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {' '.join(cmd)}")
    data = json.loads(result.read_text())
    result.unlink()
    return data


def end_to_end(main: dict, setups: list[float]) -> dict:
    lat = [at_reference_speed(t, r) for t, r in zip(main["op_seconds"], main["op_reference_s"])]
    return {
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (statistics.quantiles(lat, n=10)[8], "s"),
        "items_per_s": (main["items"] / sum(lat), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (main["peak_rss_mib"], "MiB"),
    }


def as_timed(main: dict, setups_raw: list[float]) -> dict:
    """The host's speed and the times without scaling, beside the result."""
    lat = main["op_seconds"]
    return {
        "host_reference_s": statistics.median(main["op_reference_s"]),
        "pre_import_reference_s": main["pre_import_reference_s"],
        "slowdown": main["slowdown"],
        "op_p50_s": statistics.median(lat),
        "op_p90_s": statistics.quantiles(lat, n=10)[8],
        "items_per_s": main["items"] / main["loop_s"],
        "setup_s": statistics.median(setups_raw),
    }


def report(args, main: dict, metrics: dict, failures: list[str]) -> None:
    """Human-readable lines; the JSON result follows them."""
    failed_ratio = main["failed"] / main["attempted"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {main['attempted']} ops attempted, "
          f"{len(main['op_seconds'])} timed in {main['loop_s']:.2f} s (closed loop, 1 client)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  {'failed_ratio':40s} {failed_ratio:.6g} ratio ({main['failed']} of {main['attempted']})")
    if args.trace:
        print(f"  layer times are per traced op, over {main['traced_ops']} ops, at reference speed "
              f"(host_reference_s {REFERENCE_S})")
    else:
        print(f"  times above are at reference speed (host_reference_s {REFERENCE_S}); setup_s is the median "
              f"of {SETUPS} fresh processes; the figures as timed are in the JSON line before the result")
    for reason in failures:
        print(f"  failure: {reason}")
    if args.trace:
        if main["missing_targets"]:
            print("  missing metrics, target not found: " + ", ".join(main["missing_targets"]))
        for phase in ("loop", "setup"):
            ranking = main["self_time"][phase]
            total = sum(s for _, s in ranking) or 1.0
            print(f"  self time, {phase}: " + ", ".join(f"{n} {100 * s / total:.1f}%" for n, s in ranking[:6]))


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the child.
    sys.exit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_BUDGET_S
    root = Path.cwd()
    if not (root / "src" / "entspan" / "cli.py").is_file():
        print(f"error: {root} holds no src/entspan; run from the root of an entspan checkout", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setups = [] if args.trace else [run_child(root, work, args, deadline, []) for _ in range(SETUPS - 1)]
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        main = run_child(root, work, args, deadline, extra)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    prov = dict(main["provenance"], git_commit=git_commit(root), workload=args.workload, seed=args.seed)
    failures = list(main["failures"])
    if main["slowdown"] > SLOWDOWN_LIMIT:
        failures.append(f"the host-speed probe ran {main['slowdown']:.2f}x slower in the loop than before "
                        f"import entspan.cli (limit {SLOWDOWN_LIMIT}x): the program slowed the whole process, "
                        "which the scaled times would hide")
    if args.trace:
        metrics = main["layers"]
        print(json.dumps({"provenance": prov}, sort_keys=True))
    else:
        setups.append(main)
        metrics = end_to_end(main, [at_reference_speed(s["setup_s"], s["setup_reference_s"]) for s in setups])
        print(json.dumps({"provenance": prov, "as_timed": as_timed(main, [s["setup_s"] for s in setups])},
                         sort_keys=True))
    report(args, main, metrics, failures)
    print(json.dumps({
        "correct": not failures,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
