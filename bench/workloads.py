"""The benchmark's workloads: operation lists made from a seed, and output checks.

Each workload is a fixed list of CLI operations (command + YAML config)
generated from the workload seed, plus an output check per operation
against an oracle.  A check raises `CheckFailed` when the output is
wrong, which counts the operation as failed, or `Unconverged` when the
output is consistent but the solver reports it missed its target, which
counts the operation as not passed without making the run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# |p_hat - p| may reach this many binomial standard deviations
P_HAT_SDS = 5.0
# criterion 05 tolerance on the decay-law intercept, relative to the cost
INTERCEPT_RTOL = 0.15
# criterion 03 tolerance on a transition cost
COST_RTOL = 0.02
PERIOD_DEFECT_MAX = 1e-3
PLANAR_LAMBDA = 0.3


class CheckFailed(Exception):
    """The operation's output disagrees with its oracle."""


class Unconverged(Exception):
    """The output is consistent, but the solver reports it did not converge."""


@dataclass(frozen=True)
class Op:
    name: str
    command: str
    config: dict
    check: Callable[[Path], None]


@dataclass(frozen=True)
class Workload:
    # models built by the CLI, as (name, params); set-up time covers making them
    models: Callable[[dict], list[tuple[str, dict]]]
    # ldpkit layers whose per-layer metrics must be nonzero when traced
    layers: tuple[str, ...]
    ops: Callable[[random.Random, dict], list[Op]]


# "full" is what the benchmark measures; "tiny" keeps the smoke test short
SIZES = {
    "full": {"ldp_samples": 1952, "burgers": {}, "ladder_seeds": 3, "targets": 2},
    "tiny": {"ldp_samples": 976, "burgers": {"grid": 19, "K": 8}, "ladder_seeds": 1,
             "targets": 1},
}


def _burgers_dim(size: dict) -> int:
    return size["burgers"].get("grid", 64)


def _burgers_block(size: dict) -> dict:
    block = {"name": "burgers1d"}
    if size["burgers"]:
        block["params"] = dict(size["burgers"])
    return block


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _check_decay_law(out: Path) -> None:
    with open(out / "ldp_estimates.csv") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CheckFailed("ldp_estimates.csv has no rows")
    for row in rows:
        eps, n, p_hat = float(row["eps"]), int(row["n"]), float(row["p_hat"])
        p = math.exp(-PLANAR_LAMBDA / eps)
        sd = math.sqrt(p * (1.0 - p) / n)
        if abs(p_hat - p) > P_HAT_SDS * sd:
            raise CheckFailed(
                f"eps {eps:g}: p_hat {p_hat:.5g} is more than {P_HAT_SDS:g} binomial "
                f"sd ({sd:.3g}) from exact exp(-0.3/eps) = {p:.5g}")
    intercept = _read_json(out / "ldp_fit.json")["intercept"]
    if abs(intercept + PLANAR_LAMBDA) > INTERCEPT_RTOL * PLANAR_LAMBDA:
        raise CheckFailed(f"fit intercept {intercept:.5g} is not within "
                          f"{INTERCEPT_RTOL:.0%} of -{PLANAR_LAMBDA}")


def _ldp_planar(rng: random.Random, size: dict) -> list[Op]:
    config = {
        "version": 1,
        "model": {"name": "linear2d-a1"},
        "seed": rng.getrandbits(32),
        "eps_list": [0.4, 0.2, 0.1],
        "event": {"kind": "norm_ge", "threshold": 1.0},
        "n_samples": size["ldp_samples"],
        "dt": 0.005,
        "reference": PLANAR_LAMBDA,
    }
    return [Op("verify-ldp/linear2d-a1", "verify-ldp", config, _check_decay_law)]


def _check_ladder(diag: dict) -> None:
    gaps = diag["gaps"]
    if not diag["converged"]:
        raise CheckFailed(f"ladder did not converge, gaps {gaps}")
    if any(b >= a for a, b in zip(gaps, gaps[1:])):
        raise CheckFailed(f"ladder gaps are not strictly decreasing: {gaps}")
    if diag["fitted_rate"] is None or diag["fitted_rate"] >= 0:
        raise CheckFailed(f"fitted contraction rate {diag['fitted_rate']} is not negative")


def _check_pullback(out: Path) -> None:
    _check_ladder(_read_json(out / "pullback_diagnostics.json"))


def _check_orbit(out: Path) -> None:
    _check_ladder(_read_json(out / "skeleton_diagnostics.json"))
    states = np.loadtxt(out / "skeleton_path.csv", delimiter=",", skiprows=1,
                        ndmin=2)[:, 1:]
    # the view [0, 2] holds two periods of the 1-periodic orbit
    half = (len(states) - 1) // 2
    defect = float(np.max(np.abs(states[half:] - states[:-half])))
    if not defect < PERIOD_DEFECT_MAX:
        raise CheckFailed(f"period defect {defect:.3e} is not below {PERIOD_DEFECT_MAX:g}")


def _pullback_ladder(rng: random.Random, size: dict) -> list[Op]:
    h = 1.0 / (_burgers_dim(size) + 1)
    dt = h * h / 4.0  # burgers1d's default dt
    ops = []
    for k in range(size["ladder_seeds"]):
        config = {
            "version": 1,
            "model": _burgers_block(size),
            "seed": rng.getrandbits(32),
            "eps": 0.05,  # burgers1d's default eps
            "view": {"t_start": -0.2, "t_end": 0.0, "dt": dt},
        }
        ops.append(Op(f"pullback/burgers1d/{k}", "pullback", config, _check_pullback))
    skeleton = {
        "version": 1,
        "model": {"name": "periodic1d"},
        "view": {"t_start": 0.0, "t_end": 2.0, "dt": 0.001},
        "horizons": [2.5, 5.0, 7.5],
    }
    ops.append(Op("skeleton/periodic1d", "skeleton", skeleton, _check_orbit))
    return ops


def _check_cost(exact: float):
    def check(out: Path) -> None:
        result = _read_json(out / "qpot_result.json")
        if not result["converged"]:
            raise CheckFailed(f"continuation did not converge: {result['warning']}")
        value = result["converged_value"]
        if abs(value - exact) > COST_RTOL * exact:
            raise CheckFailed(f"cost {value:.6g} is not within {COST_RTOL:.0%} "
                              f"of the closed form {exact:.6g}")
    return check


def _check_converged(out: Path) -> None:
    result = _read_json(out / "qpot_result.json")
    if not result["converged"]:
        raise Unconverged(f"converged=False, iterations {result['iterations']}: "
                          f"{result['warning']}")


def _qpot(model: dict, target: list[float]) -> dict:
    return {"version": 1, "model": model, "target": target}


def _qpot_continuation(rng: random.Random, size: dict) -> list[Op]:
    ops = []
    for k in range(size["targets"]):
        x = rng.choice((-1.0, 1.0)) * rng.uniform(0.8, 1.2)
        # dx = -x dt + sqrt(eps) dB: the transition cost from rest is x^2
        ops.append(Op(f"qpot/ou/{k}", "qpot", _qpot({"name": "ou"}, [x]),
                      _check_cost(x * x)))
    for name in ("linear2d-a1", "linear2d-a2"):
        for k in range(size["targets"]):
            r, theta = rng.uniform(0.8, 1.2), rng.uniform(0.0, 2.0 * math.pi)
            target = [r * math.cos(theta), r * math.sin(theta)]
            # both planar variants share the cost lambda |x|^2
            exact = PLANAR_LAMBDA * (target[0] ** 2 + target[1] ** 2)
            ops.append(Op(f"qpot/{name}/{k}", "qpot", _qpot({"name": name}, target),
                          _check_cost(exact)))
    # the flagship model's 0.3 e_1 row; L-BFGS hits its cap at every horizon
    target = [0.3] + [0.0] * (_burgers_dim(size) - 1)
    ops.append(Op("qpot/burgers1d/0.3e1", "qpot", _qpot(_burgers_block(size), target),
                  _check_converged))
    return ops


WORKLOADS = {
    "ldp-planar": Workload(
        models=lambda size: [("linear2d-a1", {})],
        layers=("cli", "ldpverify", "noise", "models"),
        ops=_ldp_planar,
    ),
    "pullback-ladder": Workload(
        models=lambda size: [("burgers1d", dict(size["burgers"])), ("periodic1d", {})],
        layers=("cli", "noise", "models", "integrate", "pullback"),
        ops=_pullback_ladder,
    ),
    "qpot-continuation": Workload(
        models=lambda size: [("ou", {}), ("linear2d-a1", {}), ("linear2d-a2", {}),
                             ("burgers1d", dict(size["burgers"]))],
        layers=("cli", "models", "action", "mam"),
        ops=_qpot_continuation,
    ),
}
