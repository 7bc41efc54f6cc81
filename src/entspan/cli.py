"""Command-line front end: construct, verify, bounds, report.

Every command is deterministic given its flag set (randomness only ever
flows from --seed), repeats that flag set as its JSON artifact's top-level
``run``, and writes artifacts atomically.  Exit codes: 0 success/consistent,
2 usage or input errors, 3 refuted, 4 inconclusive.  A reader that closes stdout early
loses the summary lines of an artifact written to --out, never the exit code;
when stdout carries the output itself, a cut-short output exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import bounds as bounds_mod
from . import construct as construct_mod
from . import verify as verify_mod
from .construct import basis_from_json_dict
from .errors import EntspanError
from .statemat import to_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REFUTED = 3
EXIT_INCONCLUSIVE = 4

_VERDICT_EXIT = {
    verify_mod.VERDICT_CONSISTENT: EXIT_OK,
    verify_mod.VERDICT_REFUTED: EXIT_REFUTED,
    verify_mod.VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE,
}

_KIND_FLAGS = {
    "geq": construct_mod.KIND_MIN_RANK,
    "flanders": construct_mod.KIND_MAX_RANK,
    "fixed": construct_mod.KIND_FIXED_RANK,
    "antisym": construct_mod.KIND_ANTISYMMETRIC,
    "random": construct_mod.KIND_RANDOM,
}


def _dump_json(obj) -> str:
    """One line of compact JSON with sorted keys; without an indent, json runs its C encoder."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@contextlib.contextmanager
def _exact_ints():
    """Lift Python's 4300-digit limit on int-to-str conversion while an artifact is encoded and written."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10 before 3.10.7 has no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f"tmp{os.urandom(6).hex()}.tmp")
        try:
            # Mode 0666 less the umask, which the kernel applies: the mode a plain open() gives.
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _say(text: str, *, artifact: bool = False) -> None:
    """Write text to stdout now.

    For the summary lines of an artifact already written to --out, a reader that
    has gone away loses them, not the exit code.  When stdout carries the artifact
    itself, that reader cut it short, and the BrokenPipeError goes on to exit 2.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Later writes, and the interpreter's flush at exit, go to devnull instead of raising again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if artifact:
            raise


def _flagset(args, names) -> dict:
    return {name: getattr(args, name) for name in names}


def cmd_construct(args) -> int:
    bounds_mod._normalize(args.da, args.db)  # every kind rejects non-positive dimensions alike
    for flag, readers in (("r", ("geq", "flanders")), ("dim", ("random",))):
        if getattr(args, flag) is not None and args.kind not in readers:
            raise EntspanError(f"construct --kind {args.kind} does not take --{flag}")
    kind = _KIND_FLAGS[args.kind]
    if kind == construct_mod.KIND_MIN_RANK:
        if args.r is None:
            raise EntspanError("construct --kind geq needs --r")
        basis = construct_mod.construct_min_rank_subspace(args.da, args.db, args.r)
        bound = bounds_mod.max_dim_geq(args.da, args.db, args.r)
    elif kind == construct_mod.KIND_MAX_RANK:
        if args.r is None:
            raise EntspanError("construct --kind flanders needs --r")
        basis = construct_mod.construct_max_rank_leq_subspace(args.da, args.db, args.r)
        bound = bounds_mod.flanders_max_leq(args.da, args.db, args.r)
    elif kind == construct_mod.KIND_FIXED_RANK:
        basis = construct_mod.construct_fixed_rank_subspace(args.da, args.db)
        bound = bounds_mod.westwick_range(args.da, args.db, min(args.da, args.db))[0]
    elif kind == construct_mod.KIND_ANTISYMMETRIC:
        if (args.da, args.db) != (3, 3):
            raise EntspanError("the antisymmetric construction is specific to --da 3 --db 3")
        basis = construct_mod.antisymmetric_basis_3x3()
        bound = bounds_mod.westwick_range(3, 3, 2)[2]
    else:
        if args.dim is None:
            raise EntspanError("construct --kind random needs --dim")
        basis = construct_mod.random_subspace(args.da, args.db, args.dim, args.seed)
        bound = None  # --dim is the size asked for, not a bound
    with _exact_ints():
        payload = to_json(basis)
        payload["run"] = _flagset(args, ("da", "db", "r", "kind", "dim", "seed"))
        _write_atomic(args.out, _dump_json(payload))
    _say(f"dim={basis.dimension}" + ("" if bound is None else f" bound={bound}") + f"\nartifact: {args.out}\n")
    return EXIT_OK


def _load_basis(path: str):
    try:
        with open(path) as f:
            data = json.load(f)
    except json.JSONDecodeError as exc:
        raise EntspanError(f"malformed basis file {path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:
        # Also raised by json for an integer literal over 4300 digits.
        raise EntspanError(f"malformed basis file {path}: {exc}") from None
    except RecursionError:
        raise EntspanError(f"malformed basis file {path}: nested too deeply") from None
    return basis_from_json_dict(data)


def cmd_verify(args) -> int:
    if args.require != "geq" and args.mode != "sample":
        raise EntspanError(f"verify --mode {args.mode} checks rank >= r only; --require {args.require} needs --mode sample")
    basis = _load_basis(args.basis)
    r = args.r if args.r is not None else basis.r
    if r is None:
        raise EntspanError("basis carries no rank threshold; pass --r")
    if r < 1:
        raise EntspanError(f"--r must be at least 1, got {r}")
    if args.mode == "sample":
        report = verify_mod.sample_verify_exact(basis, r, args.samples, args.seed, require=args.require)
    elif args.mode == "gfp":
        if args.p is None:
            raise EntspanError("gfp mode needs --p")
        report = verify_mod.gfp_exhaustive_min_rank(basis, args.p, r=r, cap=args.cap)
    elif args.mode == "sigma":
        _, _, report = verify_mod.minimize_sigma_r(
            basis, r, restarts=args.restarts, iters=args.iters, seed=args.seed, tol=args.tol
        )
    else:
        report = verify_mod.structural_verify(basis, r, args.samples, args.seed)
    with _exact_ints():
        payload = verify_mod.report_to_json_dict(report)
        payload["run"] = _flagset(
            args, ("basis", "mode", "r", "samples", "seed", "p", "restarts", "iters", "tol", "require", "cap")
        )
        _write_atomic(args.out, _dump_json(payload))
    bits = [f"mode={report.mode}", f"verdict={report.verdict}"]
    if report.min_rank_observed is not None:
        bits.append(f"min_rank_observed={report.min_rank_observed}")
    if report.max_rank_observed is not None:
        bits.append(f"max_rank_observed={report.max_rank_observed}")
    if report.min_sigma_r is not None:
        bits.append(f"min_sigma_r={report.min_sigma_r:.3e}")
    bits.append(f"n={report.samples_or_points}")
    if "restarts_run" in (report.params or {}):
        bits.append(f"restarts_run={report.params['restarts_run']}")
    if "dimension_bound" in (report.params or {}):
        bits.append("dim={dim}>bound={bound}".format(**report.params["dimension_bound"]))
    _say(" ".join(bits) + f"\nartifact: {args.out}\n")
    return _VERDICT_EXIT[report.verdict]


def cmd_bounds(args) -> int:
    if args.grid:
        rs = range(2, min(bounds_mod._normalize(args.da, args.db)) + 1)
    else:
        if args.r is None:
            raise EntspanError("bounds needs --r or --grid")
        rs = [args.r]
    rows = [bounds_mod.bounds_table(args.da, args.db, r) for r in rs]
    with _exact_ints():
        if args.format == "json":
            text = _dump_json(
                {
                    "run": _flagset(args, ("da", "db", "r", "grid", "format")),
                    "rows": to_json(rows),
                }
            )
        else:
            text = bounds_mod.bounds_table_text(rows) + "\n"
    if args.out:
        _write_atomic(args.out, text)
        _say(f"artifact: {args.out}\n")
    else:
        _say(text, artifact=True)
    return EXIT_OK


def cmd_report(args) -> int:
    if args.kind == "mixed":
        if args.d is None or args.p is None:
            raise EntspanError("report --kind mixed needs --d and --p")
        rep = bounds_mod.mixed_state_report(args.d, args.p)
        payload = to_json(rep)
        line = (
            f"d={rep.d} p={rep.p} r={rep.r} dim={rep.dim} entropy_bits={rep.entropy_bits:.4f} "
            f"schmidt_measure_lb={rep.schmidt_measure_lb}"
        )
    else:
        if args.da is None or args.db is None or args.k is None:
            raise EntspanError("report --kind random needs --da, --db and --k")
        rep = bounds_mod.random_comparison(args.da, args.db, args.k)
        payload = to_json(rep)
        line = (
            f"da={rep.dA} db={rep.dB} k={rep.k} exact_dim={rep.exact_dim} "
            f"asymptotic={rep.asymptotic:.1f} threshold_k={rep.threshold_k:.4f}"
        )
    payload["run"] = _flagset(args, ("kind", "d", "p", "da", "db", "k"))
    if args.out:
        _write_atomic(args.out, _dump_json(payload))
        _say(f"{line}\nartifact: {args.out}\n")
    else:
        _say(_dump_json(payload) if args.format == "json" else line + "\n", artifact=True)
    return EXIT_OK


@functools.cache  # parse_args keeps no state in the parser, and building it costs about 2 ms a call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entspan",
        description="Construct, verify and bound matrix subspaces with constrained Schmidt rank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a subspace basis and write it as JSON")
    c.add_argument("--da", type=int, required=True)
    c.add_argument("--db", type=int, required=True)
    c.add_argument("--r", type=int, default=None)
    c.add_argument("--kind", choices=sorted(_KIND_FLAGS), default="geq")
    c.add_argument("--dim", type=int, default=None, help="dimension for --kind random")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default="basis.json")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="run a verification mode against a basis file")
    v.add_argument("--basis", required=True)
    v.add_argument("--mode", choices=("sample", "gfp", "sigma", "structural"), required=True)
    v.add_argument("--r", type=int, default=None)
    v.add_argument("--samples", type=int, default=1000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--p", type=int, default=None)
    v.add_argument("--cap", type=int, default=verify_mod.GFP_ENUMERATION_CAP)
    v.add_argument("--restarts", type=int, default=64)
    v.add_argument("--iters", type=int, default=500)
    v.add_argument("--tol", type=float, default=verify_mod.SIGMA_TOL)
    v.add_argument("--require", choices=("geq", "leq", "eq"), default="geq")
    v.add_argument("--out", default="report.json")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bounds", help="print the bound table for one r or the whole grid")
    b.add_argument("--da", type=int, required=True)
    b.add_argument("--db", type=int, required=True)
    b.add_argument("--r", type=int, default=None)
    b.add_argument("--grid", action="store_true")
    b.add_argument("--format", choices=("text", "json"), default="text")
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bounds)

    p = sub.add_parser("report", help="mixed-state projector report or random-subspace comparison")
    p.add_argument("--kind", choices=("mixed", "random"), required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--da", type=int, default=None)
    p.add_argument("--db", type=int, default=None)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # random.Random(-s) seeds with |s|, so a negative seed would silently repeat seed s's stream.
        if getattr(args, "seed", 0) < 0:
            raise EntspanError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except EntspanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
