"""Command line driver: config file in, CSV/JSON artifacts out.

Every experiment is described by one YAML file with a `version: 1`
field; unknown keys are rejected at every level so a typo cannot
silently change an experiment.  Each run writes its artifacts plus an
echo of the effective config into the output directory; re-running the
echo reproduces the artifacts bit for bit.

Each command is one `_COMMANDS` entry, made by `@_command`: its config
keys with parser and default, its artifact names, and a run body that
looks the library functions up when it runs.  One function, `_parse_block`,
applies a key table to every mapping of a config: the command itself,
`model`, `grid`/`view`, `event` (one table per kind) and `outputs`.

The parsers check YAML types only, by the shared rules of `grids`
(`_as_int`, `_as_real`), which the model catalogue and the library use
too; every number must be finite.  Ranges (dt > 0, horizons increasing,
eps under the ceiling, seeds in 64 bits, ...) are checked by the library
function that uses the value, before it starts work, so a config and a
library call get one answer.

Exit codes: 0 success, 2 validation problems (bad config, bad files),
3 numerical failures (blow-up, non-convergence, stalled descent), with
a one-line JSON reason on stderr.  Each error class carries its code as
`exit_code` (see `errors`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

import yaml

from . import ldpverify, mam, pullback
from .action import action as compute_action
from .action import load_control, save_control
from .errors import InputError, NonConvergenceError, ToolkitError
from .grids import _as_int, _as_real, from_dt
from .integrate import em_step_sde, integrate_skeleton, load_path, save_path, write_json
from .models import make_model, model_names
from .noise import sample_noise

_REQUIRED = object()  # the default of a key that every config must give


def _parse_block(keys: dict, block, context: str) -> dict:
    """The mapping `block` parsed by its key table, key -> (parser, default).

    Unknown keys are refused, a missing _REQUIRED key is reported and the
    other defaults are applied.
    """
    block = _as_mapping(block, context)
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise InputError(f"{context}: unknown key(s) {unknown}")
    parsed = {}
    for key, (parse, default) in keys.items():
        value = block.get(key, default)
        if value is _REQUIRED:
            raise InputError(f"{context}: missing required key '{key}'")
        # an optional key that is left out or null stays None
        optional_none = value is None and default is None
        parsed[key] = None if optional_none else parse(value, f"{context}.{key}")
    return parsed


# Parsers: (config value, context for messages) -> parsed value.  They
# convert YAML types only; the library function that uses a value checks its range.

def _as_mapping(value, context: str) -> dict:  # null is an empty mapping
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise InputError(f"{context}: expected a mapping, got {type(value).__name__}")
    return value


def _as_numbers(value, context: str) -> list:
    if not isinstance(value, (list, tuple)) or not value:
        raise InputError(f"{context}: expected a non-empty list of numbers")
    return [_as_real(v, context) for v in value]


def _as_name(value, context: str) -> str:
    if not isinstance(value, str) or not value:
        raise InputError(f"{context}: expected a file name")
    return value


def _parse_x0(value, context: str):
    return value if value == "rest" else _as_numbers(value, context)


def _as_is(value, context: str):  # for a value the library checks itself
    return value


def _block(keys: dict, build: Callable) -> Callable:
    """Parser of a nested mapping: build(**the block parsed by `keys`)."""
    return lambda block, context: build(**_parse_block(keys, block, context))


_NUMBER = (_as_real, _REQUIRED)
_parse_grid = _block({"t_start": _NUMBER, "t_end": _NUMBER, "dt": _NUMBER}, from_dt)
_parse_model = _block({"name": (_as_is, _REQUIRED), "params": (_as_mapping, None)}, make_model)
# event kind -> its keys besides `kind`; the kind names an Event constructor
_EVENT_KEYS = {
    "norm_ge": {"threshold": _NUMBER},
    "coord_ge": {"index": (_as_int, _REQUIRED), "threshold": _NUMBER},
    "box": {"lo": (_as_numbers, _REQUIRED), "hi": (_as_numbers, _REQUIRED)},
}


def _parse_event(block, context: str) -> ldpverify.Event:
    kind = _as_mapping(block, context).get("kind")
    if kind not in _EVENT_KEYS:
        raise InputError(f"{context}.kind: expected norm_ge, coord_ge or box, got {kind!r}")
    fields = _parse_block({"kind": (_as_is, _REQUIRED), **_EVENT_KEYS[kind]}, block, context)
    return getattr(ldpverify.Event, fields.pop("kind"))(**fields)


# (parser, default) pairs shared by several commands
_MODEL = (_parse_model, _REQUIRED)
_SEED = (_as_int, _REQUIRED)
_HORIZONS = (_as_numbers, None)


class _Command(NamedTuple):
    keys: dict     # config key -> (parser, default); _REQUIRED marks a mandatory key
    run: Callable  # run(parsed config, artifact paths): calls the library, writes artifacts


_COMMANDS: dict[str, _Command] = {}


def _command(name: str, outputs: dict, **keys):
    """Register the decorated run body as command `name`; `outputs` maps each
    artifact to its default file name, which the config's `outputs` block may override."""
    names = _block({key: (_as_name, default) for key, default in outputs.items()}, dict)

    def register(run):
        _COMMANDS[name] = _Command({"version": (_as_is, None), **keys,
                                    "outputs": (names, {})}, run)
        return run
    return register


def _x0(c: SimpleNamespace):
    return c.model.pullback_init if isinstance(c.x0, str) else c.x0


def _save_ladder(path, diag, files: dict, tol: float) -> None:
    save_path(path, files["path"])
    write_json(diag.to_dict(), files["diagnostics"])
    if not diag.converged:
        raise NonConvergenceError(
            f"final pullback gap {diag.gaps[-1]:.3e} is not below tol = {tol:g}; "
            "diagnostics were written",
            gaps=diag.gaps,
        )


@_command("simulate", {"path": "simulate_path.csv"},
          model=_MODEL, eps=_NUMBER, grid=(_parse_grid, _REQUIRED), seed=_SEED,
          x0=(_parse_x0, _REQUIRED))
def _simulate(c, files):
    noise = sample_noise(c.grid, c.model.modes, c.seed)
    save_path(em_step_sde(c.model, _x0(c), c.grid, noise, c.eps), files["path"])


@_command("pullback", {"path": "pullback_path.csv",
                       "diagnostics": "pullback_diagnostics.json"},
          model=_MODEL, eps=_NUMBER, view=(_parse_grid, _REQUIRED), seed=_SEED,
          horizons=_HORIZONS, tol=(_as_real, 1e-4))
def _pullback(c, files):
    path, diag = pullback.pullback_stationary(c.model, c.eps, c.seed, c.view,
                                              horizons=c.horizons, tol=c.tol)
    _save_ladder(path, diag, files, c.tol)


@_command("skeleton", {"path": "skeleton_path.csv",
                       "diagnostics": "skeleton_diagnostics.json"},
          model=_MODEL, control=(_as_name, None), x0=(_parse_x0, None),
          grid=(_parse_grid, None), view=(_parse_grid, None), horizons=_HORIZONS,
          tol=(_as_real, 1e-4))
def _skeleton(c, files):
    control = None if c.control is None else load_control(c.control)
    if c.view is not None:
        # attractor mode: pullback ladder of the controlled equation
        if c.grid is not None or c.x0 is not None:
            raise InputError("skeleton: give either view (pullback) or grid+x0, not both")
        path, diag = pullback.pullback_skeleton(c.model, control, c.view,
                                                horizons=c.horizons, tol=c.tol)
        _save_ladder(path, diag, files, c.tol)
        return
    if c.grid is None or c.x0 is None or c.given & {"horizons", "tol"}:
        raise InputError("skeleton: without a view (pullback), give grid and x0 "
                         "and no horizons or tol")
    save_path(integrate_skeleton(c.model, _x0(c), c.grid, control), files["path"])


@_command("action", {"report": "action_report.json", "control": "action_control.csv"},
          model=_MODEL, path=(_as_name, _REQUIRED))
def _action(c, files):
    report = compute_action(c.model, load_path(c.path))
    write_json(report.to_dict(), files["report"])
    save_control(report.control, files["control"])


@_command("mam", {"path": "mam_path.csv", "report": "mam_report.json"},
          model=_MODEL, target=(_as_numbers, _REQUIRED), T=_NUMBER,
          steps=(_as_int, _REQUIRED), init=(_as_is, "linear"))
def _mam(c, files):
    path, value, iterations, met_gtol = mam.solve_horizon(c.model, c.target, c.T, c.steps,
                                                          init=c.init)
    defect = compute_action(c.model, path).defect
    save_path(path, files["path"])
    write_json({"value": value, "T": c.T, "steps": c.steps, "iterations": iterations,
                "met_gtol": met_gtol, "defect": defect}, files["report"])
    if not met_gtol or defect > 1e-3:  # qpot's default tol; exit 0, like an unconverged qpot
        print(json.dumps({"warning": f"mam stopped after {iterations} steps, met_gtol "
                                     f"{met_gtol}, defect {defect:.3g}"}), file=sys.stderr)


@_command("qpot", {"result": "qpot_result.json", "path": "qpot_path.csv"},
          model=_MODEL, target=(_as_numbers, _REQUIRED), T_schedule=(_as_numbers, None),
          steps_per_unit=(_as_real, 50), tol=(_as_real, 1e-3))
def _qpot(c, files):
    result = mam.quasipotential(c.model, c.target, T_schedule=c.T_schedule,
                                steps_per_unit=c.steps_per_unit, tol=c.tol)
    write_json(result.to_dict(), files["result"])
    save_path(result.path, files["path"])


@_command("verify-ldp", {"estimates": "ldp_estimates.csv", "fit": "ldp_fit.json"},
          model=_MODEL, event=(_parse_event, _REQUIRED), seed=_SEED,
          eps_list=(_as_numbers, None), n_samples=(_as_int, _REQUIRED),
          dt=(_as_real, None), horizons=_HORIZONS, tol=(_as_real, 1e-3),
          reference=(_as_real, None))
def _verify_ldp(c, files):
    # the slope fit needs 3 distinct eps (the default schedule has 4)
    if c.reference is not None and c.eps_list is not None and len(set(c.eps_list)) < 3:
        raise InputError("verify-ldp.eps_list: a fit against reference needs at least "
                         f"3 distinct eps values, got {c.eps_list}")
    estimates = ldpverify.estimate_event(c.model, c.event, eps_list=c.eps_list,
                                         n_samples=c.n_samples, seed=c.seed,
                                         dt=c.dt, horizons=c.horizons, tol=c.tol)
    ldpverify.save_estimates(estimates, files["estimates"])
    if c.reference is not None:
        write_json(ldpverify.ldp_slope(estimates, c.reference).to_dict(), files["fit"])


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
    if _as_int(config.get("version"), f"{path}: version") != 1:
        raise InputError(f"{path}: expected 'version: 1', got {config['version']!r}")
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ldpkit",
        description="Stationary solutions, path costs and rare-event checks "
                    "for a family of dissipative SDE models.",
    )
    parser.add_argument("command", choices=[*_COMMANDS, "models"])
    parser.add_argument("--config", help="YAML experiment description")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the config seed (simulate, pullback, verify-ldp)")
    parser.add_argument("--out", default=".", help="artifact directory")
    args = parser.parse_args(argv)

    try:
        if args.command == "models":
            for flag, value in (("--config", args.config), ("--seed", args.seed)):
                if value is not None:
                    raise InputError(f"{flag}: command 'models' takes no {flag[2:]}")
            return _run_models()
        if args.config is None:
            raise InputError(f"command '{args.command}' requires --config")
        config = _load_config(args.config)
        if args.seed is not None:
            if "seed" not in _COMMANDS[args.command].keys:
                raise InputError(f"--seed: command '{args.command}' takes no seed")
            config["seed"] = args.seed  # lands in the echo
        parsed = _parse_block(_COMMANDS[args.command].keys, config, args.command)
        files = {key: os.path.join(args.out, name) for key, name in parsed["outputs"].items()}
        echo = os.path.join(args.out, f"{args.command.replace('-', '_')}_config.yaml")
        targets = {os.path.normpath(f) for f in [*files.values(), echo]}
        if len(targets) <= len(files):  # one file would overwrite another
            raise InputError(f"{args.command}.outputs: each artifact and the config echo "
                             f"{os.path.basename(echo)} need their own file, got "
                             f"{parsed['outputs']}")
        os.makedirs(args.out, exist_ok=True)
        _COMMANDS[args.command].run(SimpleNamespace(given=set(config), **parsed), files)
        with open(echo, "w") as fh:
            yaml.safe_dump(config, fh, sort_keys=False)
        return 0
    except (ToolkitError, yaml.YAMLError, OSError) as err:
        print(json.dumps({"error": type(err).__name__, "message": str(err)}),
              file=sys.stderr)
        # each error class carries its code (errors); YAML and I/O errors exit 2
        return err.exit_code if isinstance(err, ToolkitError) else 2


if __name__ == "__main__":
    sys.exit(main())
