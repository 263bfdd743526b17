"""Outside-in tracing of ldpkit for the benchmark's traced runs.

The tracer wraps public functions of the package from the outside: it
replaces the function object at every module attribute that holds it,
so call sites that bound the name with `from .x import f` are traced as
well as the defining module.  Each call records one span (name, start,
end, parent span, work count); spans stay in memory and are folded
into per-layer metrics after the round.  A layer is the ldpkit module
that defines the function; its self time is the time spent in its spans
minus the time of their child spans.

Artifact writers (`save_*`) are deliberately not wrapped: their time is
part of the CLI's self time, which is where the artifact cost shows.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _rows(result) -> int:
    return result.shape[0] if result.ndim == 2 else 1


def _steps(result) -> int:
    return result.grid.steps


# (module, function, work count taken from the return value or None).
# The count is what the per-layer metrics below sum up.
WRAPPED = (
    ("cli", "main", None),
    ("ldpverify", "estimate_event", None),
    ("ldpverify", "sample_stationary", None),
    ("ldpverify", "ldp_slope", None),
    ("noise", "sample_noise", None),
    ("noise", "gaussian_block", lambda r: r.size),
    ("models", "drift", _rows),
    ("integrate", "em_step_sde", _steps),
    ("integrate", "integrate_skeleton", _steps),
    ("pullback", "pullback_stationary", None),
    ("pullback", "pullback_skeleton", None),
    ("action", "value_and_gradient", None),
    ("mam", "quasipotential", lambda r: (sum(r.iterations), r.converged)),
)

# name -> unit, in the order BENCHMARK.json lists the per-layer metrics
PER_LAYER = {
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "ldpverify.sample_stationary.s": "s",
    "ldpverify.self_s": "s",
    "ldpverify.sample_steps": "count",
    "ldpverify.sample_steps_per_s": "1/s",
    "noise.gaussian_block.calls": "count",
    "noise.gaussian_block.s": "s",
    "noise.words": "count",
    "noise.words_per_s": "1/s",
    "models.drift.calls": "count",
    "models.drift.rows": "count",
    "models.drift.s": "s",
    "integrate.em_step_sde.steps": "count",
    "integrate.em_step_sde.us_per_step": "us",
    "integrate.integrate_skeleton.steps": "count",
    "integrate.integrate_skeleton.us_per_step": "us",
    "pullback.steps_integrated": "count",
    "pullback.useful_step_ratio": "ratio",
    "pullback.self_s": "s",
    "action.value_and_gradient.calls": "count",
    "action.value_and_gradient.us_per_call": "us",
    "mam.iterations": "count",
    "mam.self_s": "s",
    "mam.converged_share": "ratio",
    "trace.overhead_s": "s",
}


class CoverageError(RuntimeError):
    """A wrapped function is gone, or a layer a workload uses recorded nothing."""


class Tracer:
    """Span recorder for ldpkit calls; install() before a round, uninstall() after."""

    def __init__(self):
        # one span: [name, start, end, parent index or -1, work count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn, count):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if count is not None:
                span[4] = count(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every wrapped function at each ldpkit module that binds it."""
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "ldpkit" or n.startswith("ldpkit."))]
        for module_name, func_name, count in WRAPPED:
            home = importlib.import_module(f"ldpkit.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                raise CoverageError(f"ldpkit.{module_name}.{func_name} no longer exists")
            traced = self._wrap(f"{module_name}.{func_name}", original, count)
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], artifact_bytes: int) -> dict[str, float]:
    """Fold one traced round's spans into the per-layer metrics (no overhead)."""
    n = len(spans)
    child_time = [0.0] * n
    child_steps = [0] * n
    child_max_steps = [0] * n
    child_rows = [0] * n
    for s in spans:
        parent = s[3]
        if parent < 0:
            continue
        child_time[parent] += s[2] - s[1]
        if s[0] in ("integrate.em_step_sde", "integrate.integrate_skeleton") and s[4]:
            child_steps[parent] += s[4]
            child_max_steps[parent] = max(child_max_steps[parent], s[4])
        elif s[0] == "models.drift" and s[4]:
            child_rows[parent] += s[4]

    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    sample_steps = steps_integrated = useful_steps = 0
    iterations = converged = 0
    for i, (name, start, end, _, count) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child_time[i]
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if name == "mam.quasipotential":
            if count is not None:
                iterations += count[0]
                converged += bool(count[1])
        elif count:
            work[name] = work.get(name, 0) + count
        if name == "ldpverify.sample_stationary":
            sample_steps += child_rows[i]
        elif layer == "pullback":
            steps_integrated += child_steps[i]
            useful_steps += child_max_steps[i]

    sample_s = total_s.get("ldpverify.sample_stationary", 0.0)
    block_s = total_s.get("noise.gaussian_block", 0.0)
    em_steps = work.get("integrate.em_step_sde", 0)
    heun_steps = work.get("integrate.integrate_skeleton", 0)
    vg_calls = calls.get("action.value_and_gradient", 0)
    return {
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.artifact_bytes": artifact_bytes,
        "ldpverify.sample_stationary.s": sample_s,
        "ldpverify.self_s": self_s.get("ldpverify", 0.0),
        "ldpverify.sample_steps": sample_steps,
        "ldpverify.sample_steps_per_s": _ratio(sample_steps, sample_s),
        "noise.gaussian_block.calls": calls.get("noise.gaussian_block", 0),
        "noise.gaussian_block.s": block_s,
        "noise.words": work.get("noise.gaussian_block", 0),
        "noise.words_per_s": _ratio(work.get("noise.gaussian_block", 0), block_s),
        "models.drift.calls": calls.get("models.drift", 0),
        "models.drift.rows": work.get("models.drift", 0),
        "models.drift.s": total_s.get("models.drift", 0.0),
        "integrate.em_step_sde.steps": em_steps,
        "integrate.em_step_sde.us_per_step":
            1e6 * _ratio(total_s.get("integrate.em_step_sde", 0.0), em_steps),
        "integrate.integrate_skeleton.steps": heun_steps,
        "integrate.integrate_skeleton.us_per_step":
            1e6 * _ratio(total_s.get("integrate.integrate_skeleton", 0.0), heun_steps),
        "pullback.steps_integrated": steps_integrated,
        "pullback.useful_step_ratio": _ratio(useful_steps, steps_integrated),
        "pullback.self_s": self_s.get("pullback", 0.0),
        "action.value_and_gradient.calls": vg_calls,
        "action.value_and_gradient.us_per_call":
            1e6 * _ratio(total_s.get("action.value_and_gradient", 0.0), vg_calls),
        "mam.iterations": iterations,
        "mam.self_s": self_s.get("mam", 0.0),
        "mam.converged_share": _ratio(converged, calls.get("mam.quasipotential", 0)),
    }


def check_coverage(metrics: dict[str, float], layers) -> None:
    """Every per-layer metric of a layer the workload exercises must be nonzero."""
    silent = sorted(name for name, value in metrics.items()
                    if name.split(".", 1)[0] in layers and not value)
    if silent:
        raise CoverageError(
            f"traced run recorded nothing for {silent}; a wrapped function was "
            "probably renamed or is no longer called through a traced name"
        )
