"""One workload in a fresh process: set up, then a closed loop of CLI calls.

Set-up is ``import entspan.cli`` plus the ``construct`` calls that write the
input bases.  The loop is one client calling ``entspan.cli.main(argv)``
in-process, each call waiting for its verdict, until ``--seconds`` have
passed and at least MIN_OPS ops ran.  Outputs are checked after the
loop, so the checks cost no loop time.  Run by ``run.py``; writes its
measurements as JSON to ``--result``.
"""

import time

_T0 = time.perf_counter()
# reference imports numpy and fractions, which entspan imports too, so
# this import counts as set-up time; the probes below do not
from reference import at_reference_speed, host_reference_s  # noqa: E402

_PRE_IMPORT_S = time.perf_counter() - _T0
#: Host-speed samples taken before entspan is imported, and after set-up.
REFERENCE_SAMPLES = 9
#: The probe before entspan is in the process: the baseline against which
#: the loop's probes show a slowdown of the whole process.
_PRE_IMPORT_REFERENCE_S = sorted(host_reference_s() for _ in range(REFERENCE_SAMPLES))[REFERENCE_SAMPLES // 2]

_T1 = time.perf_counter()
import entspan.cli as cli  # noqa: E402  (the import is part of set-up time)

_IMPORT_S = _PRE_IMPORT_S + time.perf_counter() - _T1

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Ops the timed loop runs at least, so that p90 has ten samples beyond it.
MIN_OPS = 100

#: The loop stops here even when MIN_OPS is not reached, so a run on a
#: slow host still ends within the 180 s a run may take.
LOOP_CAP_S = 100.0

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Op:
    index: int
    basis: int  # index into the run's input bases
    calls: list
    seconds: float = 0.0
    reference_s: float = 0.0  # host_reference_s() just before the op
    exit_codes: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    error: str | None = None


def call_cli(op: Op, outs: list[str]) -> None:
    """Run the op's calls; time them together; keep exit codes and artifacts."""
    op.reference_s = host_reference_s()
    start = time.perf_counter()
    try:
        op.exit_codes = [cli.main([*c.argv, "--out", out]) for c, out in zip(op.calls, outs)]
    except Exception as exc:  # a crash is a failed op, not a failed run
        op.error = f"{type(exc).__name__}: {exc}"
    op.seconds = time.perf_counter() - start
    if op.error is None:
        op.artifacts = [Path(out).read_bytes() for out in outs]


def run_loop(ops: list[Op], outs: list[str], seconds: float, min_ops: int, make_op) -> float:
    """Closed loop until both limits are met; appends to ``ops``; returns its wall time."""
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(ops) >= min_ops) or elapsed >= max(seconds, LOOP_CAP_S):
            return elapsed
        op = make_op(len(ops))
        call_cli(op, outs)
        ops.append(op)


def replay(ops: list[Op], outs: list[str], tracer) -> list[Op]:
    """The same ops again, each recorded under its op index."""
    again = []
    for op in ops:
        tracer.op = op.index
        copy = Op(op.index, op.basis, op.calls)
        call_cli(copy, outs)
        again.append(copy)
    return again


def check(workload, ops: list[Op], basis_docs: list[dict]) -> None:
    for op in ops:
        if op.error is not None:
            continue
        want = [c.exit_code for c in op.calls]
        if op.exit_codes != want:
            op.error = f"exit codes {op.exit_codes}, expected {want}"
            continue
        try:
            op.error = workload.check(basis_docs[op.basis], [json.loads(a) for a in op.artifacts])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            op.error = f"malformed artifact: {type(exc).__name__}: {exc}"


def provenance() -> dict:
    try:
        importlib.import_module("numba")
        numba_imports = True
    except ImportError:
        numba_imports = False
    from entspan import _kernels

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "using_numba": bool(_kernels.USING_NUMBA),
        "blas_threads": {name: os.environ.get(name, "unset") for name in BLAS_THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0, help="0: set up only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = (Path.cwd() / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: entspan was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    start = time.perf_counter()
    basis_paths = []
    for k, argv in enumerate(workload.bases(args.seed)):
        path = str(work / f"basis{k}.json")
        rc = cli.main([*argv, "--out", path])
        if rc != 0:
            print(f"error: set-up call {argv} exited {rc}", file=sys.stderr)
            return 2
        basis_paths.append(path)
    result = {
        "setup_s": _IMPORT_S + time.perf_counter() - start,
        "setup_reference_s": statistics.median(host_reference_s() for _ in range(REFERENCE_SAMPLES)),
    }
    if args.seconds <= 0:
        Path(args.result).write_text(json.dumps(result))
        return 0
    if tracer:
        tracer.uninstall()

    seeds = random.Random(args.seed)
    outs = [str(work / f"out{k}.json") for k in range(len(workload.op(basis_paths[0], 0)))]

    def make_op(index):
        basis = index % len(basis_paths)
        return Op(index, basis, workload.op(basis_paths[basis], seeds.randrange(2**31)))

    ops: list[Op] = []
    if tracer:
        loop_s = run_loop(ops, outs, args.seconds / 2, 1, make_op)
        tracer.install()
        traced = replay(ops, outs, tracer)
        tracer.uninstall()
    else:
        loop_s = run_loop(ops, outs, args.seconds, MIN_OPS, make_op)
        traced = []
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    basis_docs = [json.loads(Path(p).read_text()) for p in basis_paths]
    check(workload, ops + traced, basis_docs)
    first = Op(0, ops[0].basis, ops[0].calls)
    call_cli(first, outs)
    if ops[0].error is None and (first.error is not None or first.artifacts != ops[0].artifacts):
        ops[0].error = "op 0 re-run did not give byte-identical artifacts"

    everything = ops + traced
    result.update(
        attempted=len(everything),
        failed=sum(op.error is not None for op in everything),
        failures=sorted({op.error for op in everything if op.error is not None})[:5],
        op_seconds=[op.seconds for op in ops],
        op_reference_s=[op.reference_s for op in ops],
        items=workload.items_per_op * sum(op.error is None for op in ops),
        loop_s=loop_s,
        pre_import_reference_s=_PRE_IMPORT_REFERENCE_S,
        slowdown=statistics.median(op.reference_s for op in ops) / _PRE_IMPORT_REFERENCE_S,
        peak_rss_mib=peak_rss_mib,
        provenance=provenance(),
    )
    if tracer:
        # every span at reference speed: a loop span by its op's probe, a set-up span by set-up's
        scale = {op.index: at_reference_speed(1.0, op.reference_s) for op in traced}
        scale[tracing.SETUP] = at_reference_speed(1.0, result["setup_reference_s"])
        overhead = sum(at_reference_speed(op.seconds, op.reference_s) for op in traced) / sum(
            at_reference_speed(op.seconds, op.reference_s) for op in ops)
        result["layers"] = tracing.layer_metrics(tracer, len(traced), overhead, scale)
        result["traced_ops"] = len(traced)
        result["missing_targets"] = tracer.missing
        result["self_time"] = {
            "loop": tracing.self_time_ranking(tracer, lambda op: op != tracing.SETUP, scale),
            "setup": tracing.self_time_ranking(tracer, lambda op: op == tracing.SETUP, scale),
        }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
