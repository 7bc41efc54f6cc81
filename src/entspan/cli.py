"""Command-line front end: construct, verify, bounds, report.

Every command is deterministic given its flag set (randomness only ever
flows from --seed).  ``_emit`` writes every command's artifact, its JSON
payload with that flag set, less --out and --format, as the top-level ``run``;
``_READS`` lists the None-default flags that each kind or mode reads.  Exit
codes: 0 success/consistent, 2 usage or input errors, 3 refuted, 4 inconclusive.
A reader that closes stdout early loses the text form of an artifact written
to --out, never the exit code; when stdout carries the output itself, a
cut-short output exits 2.
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

#: Per command, the flag naming its kind or mode, and the None-default flags each kind or mode reads:
#: it needs each of them and takes none of the others in its command's rows.
_READS = {
    "construct": ("kind", {"antisym": (), "fixed": (), "flanders": ("r",), "geq": ("r",), "random": ("dim",)}),
    "report": ("kind", {"mixed": ("d", "p"), "random": ("da", "db", "k")}),
    "verify": ("mode", {"sample": (), "gfp": ("p",), "sigma": (), "structural": ()}),
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
    """Write text to a new file beside path, then rename it over path; an OSError names path, not that file."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
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
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _say(text: str, *, artifact: bool = False) -> None:
    """Write text to stdout now.

    For the text form of an artifact already written to --out, a reader that
    has gone away loses it, not the exit code.  When stdout carries the artifact
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


def _check_reads(args) -> None:
    """Refuse a None-default flag that the kind or mode does not read, and require each one that it does."""
    choice, table = _READS[args.command]
    value = getattr(args, choice)
    for flag in dict.fromkeys(f for reads in table.values() for f in reads):
        given = getattr(args, flag) is not None
        if given != (flag in table[value]):
            raise EntspanError(f"{args.command} --{choice} {value} {'does not take' if given else 'needs'} --{flag}")


def _emit(args, obj, text: str, encode=to_json) -> None:
    """Write the command's artifact, ``encode(obj)`` with the run's flags as its ``run``, and show ``text``.

    ``text`` is the command's text form: its summary line or table.  With --out the artifact
    goes to that file, and stdout shows ``text`` and the path.  Without it (bounds and report),
    stdout shows the artifact under --format json and ``text`` otherwise.
    """
    with _exact_ints():
        payload = encode(obj)
        # --out names the artifact, and --format only picks what stdout shows.
        payload["run"] = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out", "format")}
        # construct and verify have no --format and always write: an --out of '' fails there as an i/o error.
        if args.out or "format" not in args:
            _write_atomic(args.out, _dump_json(payload))
            _say(f"{text}\nartifact: {args.out}\n")
        else:
            _say(_dump_json(payload) if args.format == "json" else text + "\n", artifact=True)


def cmd_construct(args) -> int:
    da, db, r = args.da, args.db, args.r
    bounds_mod._normalize(da, db)  # every kind rejects non-positive dimensions alike
    _check_reads(args)
    if args.kind == "geq":
        basis, bound = construct_mod.construct_min_rank_subspace(da, db, r), bounds_mod.max_dim_geq(da, db, r)
    elif args.kind == "flanders":
        basis, bound = construct_mod.construct_max_rank_leq_subspace(da, db, r), bounds_mod.flanders_max_leq(da, db, r)
    elif args.kind == "fixed":
        basis = construct_mod.construct_fixed_rank_subspace(da, db)
        bound = bounds_mod.westwick_range(da, db, min(da, db))[0]
    elif args.kind == "antisym":
        if (da, db) != (3, 3):
            raise EntspanError("the antisymmetric construction is specific to --da 3 --db 3")
        basis, bound = construct_mod.antisymmetric_basis_3x3(), bounds_mod.westwick_range(3, 3, 2)[2]
    else:
        basis = construct_mod.random_subspace(da, db, args.dim, args.seed)
        bound = None  # --dim is the size asked for, not a bound
    _emit(args, basis, f"dim={basis.dimension}" + ("" if bound is None else f" bound={bound}"))
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


def _dir_entry(path: str) -> str:
    """The directory entry a path names: its directory resolved, its last component kept as given."""
    return os.path.join(os.path.realpath(os.path.dirname(os.path.abspath(path))), os.path.basename(path))


def cmd_verify(args) -> int:
    # The report would replace the basis it was made from; the next verify on that file would then fail.
    # ``_write_atomic`` replaces the entry ``--out`` names, so an ``--out`` that links to the basis is harmless.
    if _dir_entry(args.out) in (_dir_entry(args.basis), os.path.realpath(args.basis)):
        raise EntspanError(f"verify --out {args.out} names the --basis file; write the report elsewhere")
    if args.require != "geq" and args.mode != "sample":
        raise EntspanError(f"verify --mode {args.mode} checks rank >= r only; --require {args.require} needs --mode sample")
    _check_reads(args)
    basis = _load_basis(args.basis)
    r = args.r if args.r is not None else basis.r
    if r is None:
        raise EntspanError("basis carries no rank threshold; pass --r")
    if r < 1:
        raise EntspanError(f"--r must be at least 1, got {r}")
    if args.mode == "sample":
        report = verify_mod.sample_verify_exact(basis, r, args.samples, args.seed, require=args.require)
    elif args.mode == "gfp":
        report = verify_mod.gfp_exhaustive_min_rank(basis, args.p, r=r, cap=args.cap)
    elif args.mode == "sigma":
        _, _, report = verify_mod.minimize_sigma_r(
            basis, r, restarts=args.restarts, iters=args.iters, seed=args.seed, tol=args.tol
        )
    else:
        report = verify_mod.structural_verify(basis, r, args.samples, args.seed)
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
    _emit(args, report, " ".join(bits), verify_mod.report_to_json_dict)
    return _VERDICT_EXIT[report.verdict]


def cmd_bounds(args) -> int:
    if args.grid:
        rs = range(2, min(bounds_mod._normalize(args.da, args.db)) + 1)
        if not rs:
            raise EntspanError(f"bounds --grid covers r = 2..min(dA, dB), empty for --da {args.da} --db {args.db}; use --r 1")
    else:
        if args.r is None:
            raise EntspanError("bounds needs --r or --grid")
        rs = [args.r]
    rows = [bounds_mod.bounds_table(args.da, args.db, r) for r in rs]
    with _exact_ints():  # the table of a huge --da or --db holds ints past str()'s default digit limit
        text = bounds_mod.bounds_table_text(rows)
    _emit(args, {"rows": rows}, text)
    return EXIT_OK


def cmd_report(args) -> int:
    _check_reads(args)
    if args.kind == "mixed":
        rep = bounds_mod.mixed_state_report(args.d, args.p)
        line = (
            f"d={rep.d} p={rep.p} r={rep.r} dim={rep.dim} entropy_bits={rep.entropy_bits:.4f} "
            f"schmidt_measure_lb={rep.schmidt_measure_lb}"
        )
    else:
        rep = bounds_mod.random_comparison(args.da, args.db, args.k)
        line = (
            f"da={rep.dA} db={rep.dB} k={rep.k} exact_dim={rep.exact_dim} "
            f"asymptotic={rep.asymptotic:.1f} threshold_k={rep.threshold_k:.4f}"
        )
    _emit(args, rep, line)
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
    c.add_argument("--kind", choices=tuple(_READS["construct"][1]), default="geq")
    c.add_argument("--dim", type=int, default=None, help="dimension for --kind random")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default="basis.json")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="run a verification mode against a basis file")
    v.add_argument("--basis", required=True)
    v.add_argument("--mode", choices=tuple(_READS["verify"][1]), required=True)
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
    p.add_argument("--kind", choices=tuple(_READS["report"][1]), required=True)
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
