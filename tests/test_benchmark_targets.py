"""The names the benchmark reaches into entspan by must exist.

``perfbench/tracer.py`` patches each ``TARGETS`` entry by module and
attribute and silently drops a missing one from its metrics, and
``perfbench/child.py`` records ``entspan._kernels.USING_NUMBA``; the
tracer also reads ``minimize_sigma_r``'s restart count by position.  A refactor
that moves one of these names fails here in about a second instead of only
in the slow ``perfbench/tests``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    targets = _tracer_targets()
    assert targets
    missing = [f"{module}.{attr}" for _, module, attr, _ in targets if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_backend_constant_resolves():
    from entspan import _kernels

    assert _kernels.USING_NUMBA is False


def test_restarts_is_third_positional_parameter():
    # The tracer's restart counter reads a positional ``restarts`` as args[2];
    # moving it would skew verify.restarts_run_ratio without failing a run.
    from entspan.verify import minimize_sigma_r

    params = list(inspect.signature(minimize_sigma_r).parameters.values())
    assert params[2].name == "restarts"
    assert params[2].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
