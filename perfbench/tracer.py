"""Spans around entspan's layers, recorded only in a traced run.

A target is patched at the name its caller resolves at call time: the
module attribute a caller reads (``entspan.verify.rank_exact``,
``entspan.construct.combine``, ``entspan._kernels.sigma_descent``), so every
call through that name opens a span.  Spans nest; a layer's self time is its
span's duration minus the time its child spans cover.  A target that no
longer exists is listed in ``Tracer.missing`` and its metrics are left out.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _combine_cells(args, kwargs, result):
    matrices = args[0]
    return {"cells": len(matrices) * matrices[0].rows * matrices[0].cols}


def _artifact_bytes(args, kwargs, result):
    return {"bytes": len(args[1].encode())}


def _restarts_requested(args, kwargs, result):
    return {"requested": kwargs["restarts"] if "restarts" in kwargs else args[2]}


def _points(args, kwargs, result):
    return {"points": int(result[2])}


#: (span name, module, attribute, counter).  The span name is the metric
#: prefix: layer (the entspan module whose code runs) and function.
TARGETS = (
    ("cli.main", "entspan.cli", "main", None),
    ("cli.decode_basis", "entspan.cli", "_load_basis", None),
    ("cli.encode_report", "entspan.verify", "report_to_json_dict", None),
    ("cli.encode_report", "entspan.cli", "_dump_json", None),
    ("cli.write_artifact", "entspan.cli", "_write_atomic", _artifact_bytes),
    ("construct.build", "entspan.construct", "construct_min_rank_subspace", None),
    ("construct.build", "entspan.construct", "random_subspace", None),
    ("construct.stack_rank", "entspan.construct", "basis_stack_rank", None),
    ("construct.self_check", "entspan.construct", "_self_check_rank_floor", None),
    ("tns.default_tns", "entspan.construct", "default_tns", None),
    ("statemat.combine", "entspan.construct", "combine", _combine_cells),
    ("statemat.rank_exact", "entspan.verify", "rank_exact", None),
    ("statemat.minor_value", "entspan.verify", "minor_value", None),
    ("statemat.schmidt_rank_numeric", "entspan.verify", "schmidt_rank_numeric", None),
    ("verify.sample_verify_exact", "entspan.verify", "sample_verify_exact", None),
    ("verify.structural_certificate", "entspan.verify", "structural_certificate", None),
    ("verify.gfp_exhaustive", "entspan.verify", "gfp_exhaustive_min_rank", None),
    ("verify.minimize_sigma_r", "entspan.verify", "minimize_sigma_r", _restarts_requested),
    ("kernels.gfp_scan", "entspan._kernels", "gfp_min_rank_scan", _points),
    ("kernels.sigma_descent", "entspan._kernels", "sigma_descent", None),
)

SETUP = -1  # op id of spans recorded while the input bases are built


class Tracer:
    def __init__(self):
        # (op, name, parent index, start, end, counts)
        self.spans: list = []
        self.op = SETUP
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list = []

    def install(self) -> None:
        self.missing = []
        for name, module, attr, counter in TARGETS:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                mod = None
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self._wrap(name, original, counter))
            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (self.op, name, parent, start, end, None)
            if counter is not None:
                spans[index] = spans[index][:5] + (counter(args, kwargs, result),)
            return result

        return traced

    def covered(self) -> set[str]:
        """Span names whose every target was found."""
        lost = {name for name, module, attr, _ in TARGETS if f"{module}.{attr}" in self.missing}
        return {name for name, *_ in TARGETS} - lost

    def totals(self, in_phase, scale: dict) -> dict:
        """Per span name: calls, self and total seconds, summed counts.

        A span's seconds are multiplied by ``scale`` of its op, which brings
        them to reference speed.
        """
        child = [0.0] * len(self.spans)
        for op, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for index, (op, name, _, start, end, counts) in enumerate(self.spans):
            if not in_phase(op):
                continue
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += (end - start) * scale[op]
            agg["self_s"] += (end - start - child[index]) * scale[op]
            for key, value in (counts or {}).items():
                agg[key] += value
        return out


#: Per-layer metrics of the timed loop, each divided by the traced op count:
#: (metric, span, quantity, unit).
LOOP_METRICS = (
    ("statemat.combine.self_s", "statemat.combine", "self_s", "s/op"),
    ("statemat.combine.calls", "statemat.combine", "calls", "calls/op"),
    ("statemat.combine.cells", "statemat.combine", "cells", "cells/op"),
    ("statemat.rank_exact.self_s", "statemat.rank_exact", "self_s", "s/op"),
    ("statemat.rank_exact.calls", "statemat.rank_exact", "calls", "calls/op"),
    ("statemat.minor_value.self_s", "statemat.minor_value", "self_s", "s/op"),
    ("statemat.schmidt_rank_numeric.calls", "statemat.schmidt_rank_numeric", "calls", "calls/op"),
    ("cli.main.self_s", "cli.main", "self_s", "s/op"),
    ("cli.decode_basis.self_s", "cli.decode_basis", "self_s", "s/op"),
    ("cli.decode_basis.calls", "cli.decode_basis", "calls", "calls/op"),
    ("cli.encode_report.self_s", "cli.encode_report", "self_s", "s/op"),
    ("cli.write_artifact.self_s", "cli.write_artifact", "self_s", "s/op"),
    ("cli.artifact_bytes", "cli.write_artifact", "bytes", "B/op"),
    ("verify.sample_verify_exact.self_s", "verify.sample_verify_exact", "self_s", "s/op"),
    ("verify.structural_certificate.self_s", "verify.structural_certificate", "self_s", "s/op"),
    ("verify.gfp_exhaustive.self_s", "verify.gfp_exhaustive", "self_s", "s/op"),
    ("verify.minimize_sigma_r.self_s", "verify.minimize_sigma_r", "self_s", "s/op"),
    # one kernel call runs one restart, so kernel calls count restarts run
    ("verify.restarts_run", "kernels.sigma_descent", "calls", "restarts/op"),
    ("kernels.gfp_scan.self_s", "kernels.gfp_scan", "self_s", "s/op"),
    ("kernels.gfp_scan.points", "kernels.gfp_scan", "points", "points/op"),
    ("kernels.sigma_descent.self_s", "kernels.sigma_descent", "self_s", "s/op"),
    ("kernels.sigma_descent.calls", "kernels.sigma_descent", "calls", "calls/op"),
)

#: Per-layer metrics of building the input bases, summed over them.
SETUP_METRICS = (
    ("tns.default_tns.self_s", "tns.default_tns", "self_s", "s"),
    ("construct.build.self_s", "construct.build", "self_s", "s"),
    ("construct.stack_rank.self_s", "construct.stack_rank", "self_s", "s"),
    ("construct.self_check.self_s", "construct.self_check", "self_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, overhead_ratio: float, scale: dict) -> dict:
    """Every per-layer metric whose spans were all recorded, as {name: (value, unit)}."""
    covered = tracer.covered()
    loop = tracer.totals(lambda op: op != SETUP, scale)
    setup = tracer.totals(lambda op: op == SETUP, scale)
    out = {}
    for metric, span, quantity, unit in LOOP_METRICS:
        if span in covered:
            out[metric] = (loop[span][quantity] / ops, unit)
    for metric, span, quantity, unit in SETUP_METRICS:
        if span in covered:
            out[metric] = (setup[span][quantity], unit)
    if "kernels.gfp_scan" in covered:
        scan = loop["kernels.gfp_scan"]
        out["kernels.gfp_scan.points_per_s"] = (_ratio(scan["points"], scan["total_s"]), "1/s")
    if {"kernels.sigma_descent", "verify.minimize_sigma_r"} <= covered:
        run, requested = loop["kernels.sigma_descent"]["calls"], loop["verify.minimize_sigma_r"]["requested"]
        out["verify.restarts_run_ratio"] = (_ratio(run, requested), "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def self_time_ranking(tracer: Tracer, in_phase, scale: dict) -> list[tuple[str, float]]:
    """Span names by self seconds, largest first."""
    totals = tracer.totals(in_phase, scale)
    return sorted(((name, agg["self_s"]) for name, agg in totals.items()), key=lambda t: -t[1])
