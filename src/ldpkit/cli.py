"""Command line driver: config file in, CSV/JSON artifacts out.

Every experiment is described by one YAML file with a `version: 1`
field; unknown keys are rejected at every level so a typo cannot
silently change an experiment.  Each run writes its artifacts plus an
echo of the effective config into the output directory; re-running the
echo reproduces the artifacts bit for bit.

Exit codes: 0 success, 2 validation problems (bad config, bad files),
3 numerical failures (blow-up, non-convergence, stalled descent), with
a one-line JSON reason on stderr.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys

import numpy as np
import yaml

from . import ldpverify, mam, pullback
from .action import action as compute_action
from .action import load_control, save_control
from .errors import (
    DivergenceError,
    InputError,
    InsufficientDataError,
    NonConvergenceError,
    NonInvertibleDiffusionError,
    OptimizationStalledError,
    ToolkitError,
)
from .grids import TimeGrid, from_dt
from .integrate import em_step_sde, integrate_skeleton, load_path, save_path, write_json
from .models import make_model, model_names
from .noise import sample_noise

COMMANDS = ("simulate", "pullback", "skeleton", "action", "mam", "qpot",
            "verify-ldp", "models")

_NUMERICAL_ERRORS = (DivergenceError, NonConvergenceError,
                     OptimizationStalledError, NonInvertibleDiffusionError,
                     InsufficientDataError)
_U64_MAX = (1 << 64) - 1


def _check_keys(block: dict, allowed, context: str) -> None:
    if not isinstance(block, dict):
        raise InputError(f"{context}: expected a mapping, got {type(block).__name__}")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise InputError(f"{context}: unknown key(s) {unknown}")


def _need(block: dict, key: str, context: str):
    if key not in block:
        raise InputError(f"{context}: missing required key '{key}'")
    return block[key]


def _as_number(value, context: str, positive=False, nonnegative=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{context}: expected a number, got {value!r}")
    v = float(value)
    if positive and v <= 0:
        raise InputError(f"{context}: must be positive, got {v}")
    if nonnegative and v < 0:
        raise InputError(f"{context}: must be non-negative, got {v}")
    return v


def _as_int(value, context: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{context}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InputError(f"{context}: must be at least {minimum}, got {value}")
    return value


def _as_seed(value, context: str) -> int:
    v = _as_int(value, context, minimum=0)
    if v > _U64_MAX:
        raise InputError(f"{context}: must fit in 64 unsigned bits, got {v}")
    return v


def _as_state_list(value, context: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or not value:
        raise InputError(f"{context}: expected a non-empty list of numbers")
    return np.array([_as_number(v, context) for v in value])


def _parse_grid(block, context: str) -> TimeGrid:
    _check_keys(block, ("t_start", "t_end", "dt"), context)
    t0 = _as_number(_need(block, "t_start", context), f"{context}.t_start")
    t1 = _as_number(_need(block, "t_end", context), f"{context}.t_end")
    dt = _as_number(_need(block, "dt", context), f"{context}.dt", positive=True)
    if t1 <= t0:
        raise InputError(f"{context}: t_end must exceed t_start")
    return from_dt(t0, t1, dt)


def _parse_model(block, context: str = "model"):
    _check_keys(block, ("name", "params"), context)
    name = _need(block, "name", context)
    params = block.get("params") or {}
    if not isinstance(params, dict):
        raise InputError(f"{context}.params: expected a mapping")
    return make_model(name, params)


def _positive_list(value, context: str, minimum: int = 2):
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or len(value) < minimum:
        raise InputError(f"{context}: expected a list of {minimum} or more positive numbers")
    return [_as_number(v, context, positive=True) for v in value]


def _parse_event(block, context: str = "event") -> ldpverify.Event:
    _check_keys(block, ("kind", "threshold", "index", "lo", "hi"), context)
    kind = _need(block, "kind", context)
    if kind == "norm_ge":
        return ldpverify.Event.norm_ge(
            _as_number(_need(block, "threshold", context), f"{context}.threshold",
                       nonnegative=True))
    if kind == "coord_ge":
        return ldpverify.Event.coord_ge(
            _as_int(_need(block, "index", context), f"{context}.index", minimum=0),
            _as_number(_need(block, "threshold", context), f"{context}.threshold"))
    if kind == "box":
        return ldpverify.Event.box(
            _as_state_list(_need(block, "lo", context), f"{context}.lo"),
            _as_state_list(_need(block, "hi", context), f"{context}.hi"))
    raise InputError(f"{context}.kind: expected norm_ge, coord_ge or box, got {kind!r}")


def _outputs(config: dict, context: str, defaults: dict) -> dict:
    block = config.get("outputs") or {}
    _check_keys(block, defaults, f"{context}.outputs")
    named = dict(defaults)
    for key, value in block.items():
        if not isinstance(value, str) or not value:
            raise InputError(f"{context}.outputs.{key}: expected a file name")
        named[key] = value
    return named


def _seed_from(config: dict, override, context: str) -> int:
    if override is not None:
        return override
    return _as_seed(_need(config, "seed", context), f"{context}.seed")


def _require_converged(diag, tol: float) -> None:
    # artifacts are already on disk for inspection at this point
    if not diag.converged:
        raise NonConvergenceError(
            f"final pullback gap {diag.gaps[-1]:.3e} is not below tol = {tol:g}; "
            "diagnostics were written",
            gaps=diag.gaps,
        )


# per-command top-level schemas; "version", "model" and "outputs" are shared
_SCHEMAS = {
    "simulate": ("version", "model", "seed", "eps", "x0", "grid", "outputs"),
    "pullback": ("version", "model", "seed", "eps", "view", "horizons", "tol",
                 "outputs"),
    "skeleton": ("version", "model", "control", "x0", "grid", "view", "horizons",
                 "tol", "outputs"),
    "action": ("version", "model", "path", "outputs"),
    "mam": ("version", "model", "target", "T", "steps", "init", "outputs"),
    "qpot": ("version", "model", "target", "T_schedule", "steps_per_unit", "tol",
             "outputs"),
    "verify-ldp": ("version", "model", "seed", "eps_list", "event", "n_samples",
                   "dt", "horizons", "tol", "reference", "outputs"),
}


def _run_simulate(config, seed_override, out_dir):
    model = _parse_model(_need(config, "model", "simulate"))
    eps = _as_number(_need(config, "eps", "simulate"), "simulate.eps", nonnegative=True)
    grid = _parse_grid(_need(config, "grid", "simulate"), "simulate.grid")
    seed = _seed_from(config, seed_override, "simulate")
    x0_raw = _need(config, "x0", "simulate")
    x0 = model.pullback_init if x0_raw == "rest" else _as_state_list(x0_raw, "simulate.x0")
    names = _outputs(config, "simulate", {"path": "simulate_path.csv"})
    noise = sample_noise(grid, model.modes, seed)
    path = em_step_sde(model, x0, grid, noise, eps)
    save_path(path, os.path.join(out_dir, names["path"]))
    return seed


def _run_pullback(config, seed_override, out_dir):
    model = _parse_model(_need(config, "model", "pullback"))
    eps = _as_number(_need(config, "eps", "pullback"), "pullback.eps", nonnegative=True)
    view = _parse_grid(_need(config, "view", "pullback"), "pullback.view")
    seed = _seed_from(config, seed_override, "pullback")
    horizons = _positive_list(config.get("horizons"), "pullback.horizons")
    tol = _as_number(config.get("tol", 1e-4), "pullback.tol", positive=True)
    names = _outputs(config, "pullback", {"path": "pullback_path.csv",
                                          "diagnostics": "pullback_diagnostics.json"})
    path, diag = pullback.pullback_stationary(model, eps, seed, view,
                                              horizons=horizons, tol=tol)
    save_path(path, os.path.join(out_dir, names["path"]))
    write_json(diag.to_dict(), os.path.join(out_dir, names["diagnostics"]))
    _require_converged(diag, tol)
    return seed


def _run_skeleton(config, seed_override, out_dir):
    model = _parse_model(_need(config, "model", "skeleton"))
    control = None
    if config.get("control") is not None:
        if not isinstance(config["control"], str):
            raise InputError("skeleton.control: expected a control CSV path")
        control = load_control(config["control"])
    names = _outputs(config, "skeleton", {"path": "skeleton_path.csv",
                                          "diagnostics": "skeleton_diagnostics.json"})
    if config.get("view") is not None:
        # attractor mode: pullback ladder of the controlled equation
        if config.get("grid") is not None or config.get("x0") is not None:
            raise InputError("skeleton: give either view (pullback) or grid+x0, not both")
        view = _parse_grid(config["view"], "skeleton.view")
        horizons = _positive_list(config.get("horizons"), "skeleton.horizons")
        tol = _as_number(config.get("tol", 1e-4), "skeleton.tol", positive=True)
        path, diag = pullback.pullback_skeleton(model, control, view,
                                                horizons=horizons, tol=tol)
        write_json(diag.to_dict(), os.path.join(out_dir, names["diagnostics"]))
        save_path(path, os.path.join(out_dir, names["path"]))
        _require_converged(diag, tol)
        return None
    else:
        grid = _parse_grid(_need(config, "grid", "skeleton"), "skeleton.grid")
        x0_raw = _need(config, "x0", "skeleton")
        x0 = model.pullback_init if x0_raw == "rest" else _as_state_list(x0_raw, "skeleton.x0")
        path = integrate_skeleton(model, x0, grid, control)
    save_path(path, os.path.join(out_dir, names["path"]))
    return None


def _run_action(config, seed_override, out_dir):
    model = _parse_model(_need(config, "model", "action"))
    src = _need(config, "path", "action")
    if not isinstance(src, str):
        raise InputError("action.path: expected a trajectory CSV path")
    path = load_path(src)
    names = _outputs(config, "action", {"report": "action_report.json",
                                        "control": "action_control.csv"})
    report = compute_action(model, path)
    write_json(report.to_dict(), os.path.join(out_dir, names["report"]))
    save_control(report.control, os.path.join(out_dir, names["control"]))
    return None


def _run_mam(config, seed_override, out_dir):
    model = _parse_model(_need(config, "model", "mam"))
    target = _as_state_list(_need(config, "target", "mam"), "mam.target")
    T = _as_number(_need(config, "T", "mam"), "mam.T", positive=True)
    steps = _as_int(_need(config, "steps", "mam"), "mam.steps", minimum=2)
    init = config.get("init", "linear")
    if init not in ("linear", "reversed-flow"):
        raise InputError(f"mam.init: expected linear or reversed-flow, got {init!r}")
    names = _outputs(config, "mam", {"path": "mam_path.csv",
                                     "report": "mam_report.json"})
    path, value, iterations, met_gtol = mam.solve_horizon(model, target, T, steps, init=init)
    defect = compute_action(model, path).defect
    save_path(path, os.path.join(out_dir, names["path"]))
    write_json({"value": value, "T": T, "steps": steps, "iterations": iterations,
                "met_gtol": met_gtol, "defect": defect},
               os.path.join(out_dir, names["report"]))
    if not met_gtol or defect > 1e-3:  # qpot's default tol; exit 0, like an unconverged qpot
        print(json.dumps({"warning": f"mam stopped after {iterations} steps, met_gtol "
                                     f"{met_gtol}, defect {defect:.3g}"}), file=sys.stderr)
    return None


def _run_qpot(config, seed_override, out_dir):
    model = _parse_model(_need(config, "model", "qpot"))
    target = _as_state_list(_need(config, "target", "qpot"), "qpot.target")
    schedule = _positive_list(config.get("T_schedule"), "qpot.T_schedule", minimum=1)
    spu = _as_number(config.get("steps_per_unit", 50), "qpot.steps_per_unit",
                     positive=True)
    tol = _as_number(config.get("tol", 1e-3), "qpot.tol", positive=True)
    names = _outputs(config, "qpot", {"result": "qpot_result.json",
                                      "path": "qpot_path.csv"})
    result = mam.quasipotential(model, target, T_schedule=schedule,
                                steps_per_unit=spu, tol=tol)
    write_json(result.to_dict(), os.path.join(out_dir, names["result"]))
    save_path(result.path, os.path.join(out_dir, names["path"]))
    return None


def _run_verify_ldp(config, seed_override, out_dir):
    model = _parse_model(_need(config, "model", "verify-ldp"))
    event = _parse_event(_need(config, "event", "verify-ldp"))
    seed = _seed_from(config, seed_override, "verify-ldp")
    eps_list = _positive_list(config.get("eps_list"), "verify-ldp.eps_list", minimum=1)
    n_samples = _as_int(_need(config, "n_samples", "verify-ldp"),
                        "verify-ldp.n_samples", minimum=1)
    dt = config.get("dt")
    if dt is not None:
        dt = _as_number(dt, "verify-ldp.dt", positive=True)
    horizons = _positive_list(config.get("horizons"), "verify-ldp.horizons")
    tol = _as_number(config.get("tol", 1e-3), "verify-ldp.tol", positive=True)
    names = _outputs(config, "verify-ldp", {"estimates": "ldp_estimates.csv",
                                            "fit": "ldp_fit.json"})
    estimates = ldpverify.estimate_event(model, event, eps_list=eps_list,
                                         n_samples=n_samples, seed=seed,
                                         dt=dt, horizons=horizons, tol=tol)
    ldpverify.save_estimates(estimates, os.path.join(out_dir, names["estimates"]))
    if config.get("reference") is not None:
        reference = _as_number(config["reference"], "verify-ldp.reference")
        fit = ldpverify.ldp_slope(estimates, reference)
        write_json(fit.to_dict(), os.path.join(out_dir, names["fit"]))
    return seed


_RUNNERS = {
    "simulate": _run_simulate,
    "pullback": _run_pullback,
    "skeleton": _run_skeleton,
    "action": _run_action,
    "mam": _run_mam,
    "qpot": _run_qpot,
    "verify-ldp": _run_verify_ldp,
}


def _run_models() -> int:
    rows = []
    for name in model_names():
        m = make_model(name, {})
        c = m.constants
        rows.append({
            "name": name,
            "dim": m.dim,
            "modes": m.modes,
            "constants": {"lambda": c.lam, "C0": c.c0, "C1": c.c1,
                          "beta0": c.beta0, "D0": c.d0},
            "eps0": m.eps0,
            "default_eps": m.default_eps,
            "default_dt": m.default_dt,
            "autonomous": m.autonomous,
        })
    print(json.dumps(rows, indent=2))
    return 0


def _load_config(path: str) -> dict:
    with open(path) as fh:
        config = yaml.safe_load(fh)
    if not isinstance(config, dict):
        raise InputError(f"{path}: config must be a mapping")
    if config.get("version") != 1:
        raise InputError(f"{path}: expected 'version: 1', got {config.get('version')!r}")
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ldpkit",
        description="Stationary solutions, path costs and rare-event checks "
                    "for a family of dissipative SDE models.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="YAML experiment description")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the config seed")
    parser.add_argument("--out", default=".", help="artifact directory")
    args = parser.parse_args(argv)

    try:
        if args.command == "models":
            return _run_models()
        if args.config is None:
            raise InputError(f"command '{args.command}' requires --config")
        seed_override = None if args.seed is None else _as_seed(args.seed, "--seed")
        config = _load_config(args.config)
        _check_keys(config, _SCHEMAS[args.command], args.command)
        os.makedirs(args.out, exist_ok=True)
        effective_seed = _RUNNERS[args.command](config, seed_override, args.out)
        echo = copy.deepcopy(config)
        if effective_seed is not None:
            echo["seed"] = int(effective_seed)
        with open(os.path.join(args.out, f"{args.command.replace('-', '_')}_config.yaml"),
                  "w") as fh:
            yaml.safe_dump(echo, fh, sort_keys=False)
        return 0
    except (ToolkitError, yaml.YAMLError, OSError) as err:
        print(json.dumps({"error": type(err).__name__, "message": str(err)}),
              file=sys.stderr)
        # numerical failures exit 3; validation, config and I/O errors exit 2
        return 3 if isinstance(err, _NUMERICAL_ERRORS) else 2


if __name__ == "__main__":
    sys.exit(main())
