import copy
import hashlib
import json

import numpy as np
import pytest
import yaml

from ldpkit import Path, ToolkitError, from_dt, load_path, make_model, save_path
from ldpkit.cli import _COMMANDS, _EVENT_KEYS, _parse_block, main
from ldpkit.mam import _MAX_ITER


def write_config(tmp_path, name, body):
    f = tmp_path / name
    f.write_text(yaml.safe_dump(body))
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_json(err):
    return json.loads(err.strip().split("\n")[-1])


SIM = {
    "version": 1,
    "model": {"name": "ou"},
    "eps": 0.1,
    "seed": 4,
    "x0": "rest",
    "grid": {"t_start": 0.0, "t_end": 0.5, "dt": 0.01},
}


def test_models_listing(capsys):
    code, out, _ = run(capsys, "models")
    assert code == 0
    rows = json.loads(out)
    assert [r["name"] for r in rows] == [
        "ou", "periodic1d", "linear2d-a1", "linear2d-a2", "hopf-radial",
        "burgers1d",
    ]
    ou_row = rows[0]
    assert ou_row["dim"] == 1
    assert set(ou_row["constants"]) == {"lambda", "C0", "C1", "beta0", "D0"}


def test_simulate_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.yaml", SIM)
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "simulate", "--config", cfg, "--out", str(out_dir))
    assert code == 0, err
    path = load_path(out_dir / "simulate_path.csv")
    assert path.grid.steps == 50
    echo = yaml.safe_load((out_dir / "simulate_config.yaml").read_text())
    assert echo == SIM


# one small config per command; action's path is filled in by the test
ECHO_CASES = {
    "simulate": SIM,
    "pullback": {"version": 1, "model": {"name": "ou"}, "eps": 0.1, "seed": 1,
                 "view": {"t_start": -0.5, "t_end": 0.0, "dt": 0.01}},
    "skeleton": {"version": 1, "model": {"name": "periodic1d"},
                 "view": {"t_start": 0.0, "t_end": 1.0, "dt": 0.01}},
    "action": {"version": 1, "model": {"name": "ou"}, "path": None},
    "mam": {"version": 1, "model": {"name": "ou"}, "target": [1.0], "T": 2.0, "steps": 20},
    "qpot": {"version": 1, "model": {"name": "ou"}, "target": [1.0],
             "T_schedule": [1.0, 2.0]},
    "verify-ldp": {"version": 1, "model": {"name": "ou"}, "seed": 3,
                   "event": {"kind": "norm_ge", "threshold": 0.4},
                   "eps_list": [0.4, 0.3, 0.2], "n_samples": 50, "dt": 0.01,
                   "reference": 0.16},
}


@pytest.mark.parametrize("command", list(ECHO_CASES))
def test_echo_reproduces_run_bit_for_bit(tmp_path, capsys, command):
    config = dict(ECHO_CASES[command])
    if command == "action":
        trajectory = tmp_path / "trajectory.csv"
        save_path(Path(from_dt(0.0, 0.2, 0.01), np.linspace(0.0, 1.0, 21)[:, None]),
                  trajectory)
        config["path"] = str(trajectory)
    a, b = tmp_path / "a", tmp_path / "b"
    code, _, err = run(capsys, command, "--config", write_config(tmp_path, "c.yaml", config),
                       "--out", str(a))
    assert code == 0, err
    echo = a / f"{command.replace('-', '_')}_config.yaml"
    assert run(capsys, command, "--config", str(echo), "--out", str(b))[0] == 0
    written = sorted(p.name for p in a.iterdir())
    assert written == sorted(p.name for p in b.iterdir()) and len(written) >= 2
    for name in written:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_seed_override_lands_in_echo(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.yaml", SIM)
    out_dir = tmp_path / "o"
    code, _, _ = run(capsys, "simulate", "--config", cfg, "--out", str(out_dir),
                     "--seed", "99")
    assert code == 0
    echo = yaml.safe_load((out_dir / "simulate_config.yaml").read_text())
    assert echo["seed"] == 99
    different = tmp_path / "o2"
    run(capsys, "simulate", "--config", cfg, "--out", str(different))
    assert (out_dir / "simulate_path.csv").read_bytes() != (
        different / "simulate_path.csv"
    ).read_bytes()


def test_unknown_keys_rejected(tmp_path, capsys):
    bad = dict(SIM)
    bad["epsilon"] = 0.2
    cfg = write_config(tmp_path, "bad.yaml", bad)
    code, _, err = run(capsys, "simulate", "--config", cfg, "--out", str(tmp_path))
    assert code == 2
    msg = stderr_json(err)
    assert msg["error"] == "InputError"
    assert "epsilon" in msg["message"]


def test_nested_unknown_keys_rejected(tmp_path, capsys):
    bad = {
        "version": 1,
        "model": {"name": "ou", "extra": 1},
        "eps": 0.1,
        "seed": 0,
        "x0": "rest",
        "grid": {"t_start": 0.0, "t_end": 0.5, "dt": 0.01},
    }
    cfg = write_config(tmp_path, "bad.yaml", bad)
    code, _, err = run(capsys, "simulate", "--config", cfg, "--out", str(tmp_path))
    assert code == 2
    assert "model" in stderr_json(err)["message"]


def test_version_required(tmp_path, capsys):
    # version is an integer key like any other: a boolean, float or string 1 is refused
    for version in (2, True, 1.0, "1", None):
        bad = {**SIM, "version": version}
        if version is None:
            del bad["version"]
        cfg = write_config(tmp_path, "bad.yaml", bad)
        code, _, err = run(capsys, "simulate", "--config", cfg, "--out", str(tmp_path))
        assert code == 2, version
        assert "version" in stderr_json(err)["message"]


def test_missing_config_file(tmp_path, capsys):
    code, _, err = run(capsys, "simulate", "--config", str(tmp_path / "nope.yaml"),
                       "--out", str(tmp_path))
    assert code == 2
    assert stderr_json(err)["error"] == "FileNotFoundError"


@pytest.mark.parametrize("flag, value", [("--config", "models.yaml"), ("--seed", "0")])
def test_models_refuses_config_and_seed(capsys, flag, value):
    code, out, err = run(capsys, "models", flag, value)
    assert code == 2
    assert out == ""
    assert stderr_json(err) == {"error": "InputError",
                                "message": f"{flag}: command 'models' takes no {flag[2:]}"}


def test_config_flag_required(capsys):
    code, _, err = run(capsys, "simulate")
    assert code == 2
    assert "--config" in stderr_json(err)["message"]


def test_numerical_failure_exit_code(tmp_path, capsys):
    # eps above the model ceiling is a config error (2); a non-converging
    # pullback ladder is a numerical error (3)
    cfg = write_config(tmp_path, "pb.yaml", {
        "version": 1,
        "model": {"name": "ou"},
        "eps": 0.9,
        "seed": 0,
        "view": {"t_start": -1.0, "t_end": 0.0, "dt": 0.01},
    })
    code, _, err = run(capsys, "pullback", "--config", cfg, "--out", str(tmp_path))
    assert code == 2
    cfg2 = write_config(tmp_path, "pb2.yaml", {
        "version": 1,
        "model": {"name": "ou"},
        "eps": 0.5,
        "seed": 0,
        "view": {"t_start": -1.0, "t_end": 0.0, "dt": 0.01},
        "horizons": [1.02, 1.04],
        "tol": 1e-12,
    })
    code2, _, err2 = run(capsys, "pullback", "--config", cfg2, "--out", str(tmp_path))
    assert code2 == 3
    assert stderr_json(err2)["error"] == "NonConvergenceError"


def test_pullback_and_outputs_renaming(tmp_path, capsys):
    cfg = write_config(tmp_path, "pb.yaml", {
        "version": 1,
        "model": {"name": "ou"},
        "eps": 0.1,
        "seed": 1,
        "view": {"t_start": -0.5, "t_end": 0.0, "dt": 0.01},
        "outputs": {"path": "traj.csv", "diagnostics": "diag.json"},
    })
    out_dir = tmp_path / "o"
    code, _, err = run(capsys, "pullback", "--config", cfg, "--out", str(out_dir))
    assert code == 0, err
    assert (out_dir / "traj.csv").exists()
    diag = json.loads((out_dir / "diag.json").read_text())
    assert diag["converged"] is True


def test_skeleton_forward_and_ladder_modes(tmp_path, capsys):
    fwd = write_config(tmp_path, "fwd.yaml", {
        "version": 1,
        "model": {"name": "ou"},
        "x0": [1.0],
        "grid": {"t_start": 0.0, "t_end": 1.0, "dt": 0.01},
    })
    out_dir = tmp_path / "fwd"
    code, _, err = run(capsys, "skeleton", "--config", fwd, "--out", str(out_dir))
    assert code == 0, err
    path = load_path(out_dir / "skeleton_path.csv")
    assert path.states[-1, 0] == pytest.approx(np.exp(-1.0), rel=1e-4)
    assert not (out_dir / "skeleton_diagnostics.json").exists()

    ladder = write_config(tmp_path, "lad.yaml", {
        "version": 1,
        "model": {"name": "periodic1d"},
        "view": {"t_start": 0.0, "t_end": 1.0, "dt": 0.001},
    })
    out_dir2 = tmp_path / "lad"
    code2, _, err2 = run(capsys, "skeleton", "--config", ladder, "--out", str(out_dir2))
    assert code2 == 0, err2
    assert (out_dir2 / "skeleton_diagnostics.json").exists()

    both = write_config(tmp_path, "both.yaml", {
        "version": 1,
        "model": {"name": "ou"},
        "x0": [1.0],
        "grid": {"t_start": 0.0, "t_end": 1.0, "dt": 0.01},
        "view": {"t_start": 0.0, "t_end": 1.0, "dt": 0.01},
    })
    code3, _, err3 = run(capsys, "skeleton", "--config", both, "--out", str(tmp_path))
    assert code3 == 2
    assert "not both" in stderr_json(err3)["message"]


def test_action_command_roundtrip(tmp_path, capsys):
    sim = write_config(tmp_path, "sim.yaml", SIM)
    out_dir = tmp_path / "o"
    run(capsys, "simulate", "--config", sim, "--out", str(out_dir))
    act = write_config(tmp_path, "act.yaml", {
        "version": 1,
        "model": {"name": "ou"},
        "path": str(out_dir / "simulate_path.csv"),
    })
    code, _, err = run(capsys, "action", "--config", act, "--out", str(out_dir))
    assert code == 0, err
    report = json.loads((out_dir / "action_report.json").read_text())
    assert report["value"] > 0
    control = (out_dir / "action_control.csv").read_bytes()
    assert control.startswith(b"time,v1\n0,") and control.count(b"\n") == 51
    assert hashlib.sha256(control).hexdigest() == (
        "080ec437f8bac61ac909b993dc5dc368aef5378dccec61fdc51ee68774594185")


def test_mam_and_qpot_commands(tmp_path, capsys):
    mam_cfg = write_config(tmp_path, "mam.yaml", {
        "version": 1,
        "model": {"name": "ou"},
        "target": [1.0],
        "T": 4.0,
        "steps": 100,
    })
    out_dir = tmp_path / "m"
    code, _, err = run(capsys, "mam", "--config", mam_cfg, "--out", str(out_dir))
    assert code == 0, err
    report = json.loads((out_dir / "mam_report.json").read_text())
    assert report["value"] == pytest.approx(1.0 / (1.0 - np.exp(-8.0)), rel=1e-3)
    assert report["met_gtol"] is True and report["defect"] == 0.0
    assert err == ""

    qpot_cfg = write_config(tmp_path, "qpot.yaml", {
        "version": 1,
        "model": {"name": "ou"},
        "target": [1.0],
        "T_schedule": [2.0, 4.0, 6.0],
        "tol": 1e-3,
    })
    out_dir2 = tmp_path / "q"
    code2, _, err2 = run(capsys, "qpot", "--config", qpot_cfg, "--out", str(out_dir2))
    assert code2 == 0, err2
    result = json.loads((out_dir2 / "qpot_result.json").read_text())
    assert result["converged"] is True
    assert result["converged_value"] == pytest.approx(1.0, rel=5e-3)
    assert result["defect"] == 0.0
    assert (out_dir2 / "qpot_path.csv").exists()


def test_mam_report_carries_the_solver_verdict(tmp_path, capsys):
    # 0.3 at the first grid point of burgers1d lies outside the 16-mode
    # noise span: the solver hits its cap at a near-zero value on a path
    # that no control produces
    cfg = {"version": 1, "model": {"name": "burgers1d"}, "T": 0.81, "steps": 41,
           "target": [0.3] + [0.0] * 63}
    out_dir = tmp_path / "capped"
    code, _, err = run(capsys, "mam", "--config", write_config(tmp_path, "c.yaml", cfg),
                       "--out", str(out_dir))
    assert code == 0
    report = json.loads((out_dir / "mam_report.json").read_text())
    assert report["iterations"] == _MAX_ITER and report["met_gtol"] is False
    assert report["defect"] > 1e3
    assert "defect" in stderr_json(err)["warning"]
    # 0.3 times the first noise mode is reachable and solved without a warning
    cfg["target"] = (0.3 * make_model("burgers1d").mode_matrix[:, 0]).tolist()
    out_dir = tmp_path / "solved"
    code, _, err = run(capsys, "mam", "--config", write_config(tmp_path, "s.yaml", cfg),
                       "--out", str(out_dir))
    assert code == 0 and err == ""
    report = json.loads((out_dir / "mam_report.json").read_text())
    assert report["met_gtol"] is True and report["defect"] < 1e-3


def test_unsupported_models_exit_as_config_errors(tmp_path, capsys):
    # hopf-radial has no rest state at 0, where minimum-action paths start
    qpot = write_config(tmp_path, "q.yaml", {
        "version": 1,
        "model": {"name": "hopf-radial"},
        "target": [1.2],
    })
    code, _, err = run(capsys, "qpot", "--config", qpot, "--out", str(tmp_path))
    assert code == 2
    assert stderr_json(err)["error"] == "ConfigurationError"
    # dt above burgers1d's explicit stability ceiling h^2/2
    sim = write_config(tmp_path, "s.yaml", dict(
        SIM, model={"name": "burgers1d"},
        grid={"t_start": 0.0, "t_end": 0.01, "dt": 0.001}))
    code2, _, err2 = run(capsys, "simulate", "--config", sim, "--out", str(tmp_path))
    assert code2 == 2
    assert stderr_json(err2)["error"] == "ConfigurationError"


def test_verify_ldp_command(tmp_path, capsys):
    cfg = write_config(tmp_path, "v.yaml", {
        "version": 1,
        "model": {"name": "ou"},
        "seed": 3,
        "event": {"kind": "norm_ge", "threshold": 0.4},
        "eps_list": [0.4, 0.3, 0.2],
        "n_samples": 400,
        "dt": 0.01,
        "reference": 0.16,
    })
    out_dir = tmp_path / "v"
    code, _, err = run(capsys, "verify-ldp", "--config", cfg, "--out", str(out_dir))
    assert code == 0, err
    lines = (out_dir / "ldp_estimates.csv").read_text().strip().split("\n")
    assert len(lines) == 4
    fit = json.loads((out_dir / "ldp_fit.json").read_text())
    assert fit["n_points"] == 3
    assert fit["reference"] == 0.16
    echo = yaml.safe_load((out_dir / "verify_ldp_config.yaml").read_text())
    assert echo["seed"] == 3


def test_bad_event_kind(tmp_path, capsys):
    cfg = write_config(tmp_path, "v.yaml", {
        "version": 1,
        "model": {"name": "ou"},
        "seed": 3,
        "event": {"kind": "norm_le", "threshold": 0.4},
        "n_samples": 10,
    })
    code, _, err = run(capsys, "verify-ldp", "--config", cfg, "--out", str(tmp_path))
    assert code == 2
    assert "norm_ge" in stderr_json(err)["message"]


FORWARD = {"version": 1, "model": {"name": "ou"}, "x0": [1.0],
           "grid": {"t_start": 0.0, "t_end": 1.0, "dt": 0.01}}
SMALL_BURGERS = {"t_start": 0.0, "t_end": 0.01, "dt": 0.001}  # under h^2/2 at grid 20
LDP = dict(ECHO_CASES["verify-ldp"], reference=None)
# tol 1e-300 makes any sampling run end in a NonConvergenceError (exit 3), so
# a config mistake noticed only after sampling would show as exit 3
LATE = dict(LDP, tol=1e-300)

CONFIG_MISTAKES = [
    # --seed only where a seed is used
    pytest.param("qpot", ECHO_CASES["qpot"], ["--seed", "5"], 2, "InputError", id="qpot-seed"),
    pytest.param("mam", ECHO_CASES["mam"], ["--seed", "5"], 2, "InputError", id="mam-seed"),
    pytest.param("skeleton", FORWARD, ["--seed", "5"], 2, "InputError", id="skeleton-seed"),
    # blocks that must be mappings when given
    pytest.param("simulate", dict(SIM, model={"name": "ou", "params": []}), [], 2,
                 "InputError", id="params-list"),
    pytest.param("simulate", dict(SIM, outputs=0), [], 2, "InputError", id="outputs-zero"),
    # outputs where one file would overwrite another, refused before the run
    pytest.param("pullback", dict(ECHO_CASES["pullback"],
                                  outputs={"path": "same.csv", "diagnostics": "same.csv"}),
                 [], 2, "InputError", id="outputs-one-file"),
    pytest.param("pullback", dict(ECHO_CASES["pullback"],
                                  outputs={"path": "same.csv", "diagnostics": "./same.csv"}),
                 [], 2, "InputError", id="outputs-one-file-spelled-twice"),
    pytest.param("pullback", dict(ECHO_CASES["pullback"],
                                  outputs={"path": "pullback_config.yaml"}),
                 [], 2, "InputError", id="outputs-on-config-echo"),
    # two horizons that snap outward onto one grid are refused, not scored gap 0
    pytest.param("pullback", dict(ECHO_CASES["pullback"], horizons=[5.001, 5.002]), [], 2,
                 "InputError", id="pullback-collapsing-ladder"),
    # forward skeleton takes no ladder keys
    pytest.param("skeleton", dict(FORWARD, horizons=[2.0, 4.0]), [], 2, "InputError",
                 id="forward-horizons"),
    pytest.param("skeleton", dict(FORWARD, tol=1e-3), [], 2, "InputError", id="forward-tol"),
    # model blocks that make_model cannot build
    pytest.param("simulate", dict(SIM, model={"name": ["ou"]}), [], 2, "InputError",
                 id="model-name-list"),
    pytest.param("simulate", dict(SIM, model={"name": "ou", "params": {"a": "x"}}), [], 2,
                 "InputError", id="model-param-string"),
    # a quoted number is a string, and a number is no diffusion name
    pytest.param("simulate", dict(SIM, model={"name": "ou", "params": {"a": "1.5"}}), [], 2,
                 "InputError", id="model-param-numeric-string"),
    pytest.param("simulate", dict(SIM, model={"name": "burgers1d",
                                              "params": {"grid": 20, "K": 4, "diffusion": 5}},
                                  grid=SMALL_BURGERS), [], 2, "InputError",
                 id="burgers-diffusion-number"),
    pytest.param("simulate", dict(SIM, model={"name": "burgers1d",
                                              "params": {"grid": 20.9, "K": 4}},
                                  grid=SMALL_BURGERS), [], 2, "InputError",
                 id="burgers-fractional-grid"),
    pytest.param("simulate", dict(SIM, model={"name": "burgers1d",
                                              "params": {"grid": 20, "K": 4.5}},
                                  grid=SMALL_BURGERS), [], 2, "InputError",
                 id="burgers-fractional-K"),
    # a grid size is an integer, as n_samples is: 20.0 is refused, not read as 20
    pytest.param("simulate", dict(SIM, model={"name": "burgers1d",
                                              "params": {"grid": 20.0, "K": 4}},
                                  grid=SMALL_BURGERS), [], 2, "InputError",
                 id="burgers-float-grid"),
    # a YAML boolean is no model number: true is not read as 1
    pytest.param("simulate", dict(SIM, model={"name": "ou", "params": {"a": True}}), [], 2,
                 "InputError", id="model-param-boolean"),
    pytest.param("simulate", dict(SIM, model={"name": "burgers1d",
                                              "params": {"grid": 20, "K": True}},
                                  grid=SMALL_BURGERS), [], 2, "InputError",
                 id="burgers-boolean-K"),
    # a window 4e-5 steps off the dt lattice is refused, not stretched to fit
    pytest.param("simulate", dict(SIM, grid={"t_start": 0.0, "t_end": 0.5000004, "dt": 0.01}),
                 [], 2, "InputError", id="grid-off-lattice"),
    # eps above the model's ceiling, as pullback already refuses it
    pytest.param("simulate", dict(SIM, eps=0.9), [], 2, "ConfigurationError",
                 id="simulate-eps-ceiling"),
    # verify-ldp mistakes found before sampling
    pytest.param("verify-ldp", dict(LDP, eps_list=[0.4, 0.4, 0.2], reference=0.16), [], 2,
                 "InputError", id="reference-two-distinct-eps"),
    pytest.param("verify-ldp", dict(LATE, event={"kind": "coord_ge", "index": 1,
                                                 "threshold": 0.5}), [], 2, "InputError",
                 id="coord-index-out-of-range"),
    pytest.param("verify-ldp", dict(LATE, event={"kind": "box", "lo": [0.0, 0.0],
                                                 "hi": [1.0, 1.0]}), [], 2, "InputError",
                 id="box-corner-shape"),
    pytest.param("verify-ldp", dict(LATE, eps_list=[0.4, 0.9]), [], 2, "ConfigurationError",
                 id="later-eps-above-ceiling"),
    # an integer past the float range is no finite number either
    pytest.param("simulate", dict(SIM, eps=10**400), [], 2, "InputError", id="eps-past-float"),
    pytest.param("simulate", dict(SIM, model={"name": "ou", "params": {"a": 10**400}}), [], 2,
                 "InputError", id="model-param-past-float"),
    # each event kind takes its own keys only
    pytest.param("verify-ldp", dict(LATE, event={"kind": "norm_ge", "threshold": 0.4,
                                                 "index": 0}), [], 2, "InputError",
                 id="norm-ge-with-index"),
    pytest.param("verify-ldp", dict(LATE, event={"kind": "norm_ge", "threshold": 0.4,
                                                 "lo": [0.0]}), [], 2, "InputError",
                 id="norm-ge-with-lo"),
    pytest.param("verify-ldp", dict(LATE, event={"kind": "coord_ge", "index": 0,
                                                 "threshold": 0.4, "hi": [1.0]}), [], 2,
                 "InputError", id="coord-ge-with-hi"),
    # range checks the library makes, one or more per command; LATE shows they come
    # before sampling
    pytest.param("simulate", dict(SIM, grid={"t_start": 0.0, "t_end": 0.5, "dt": 0.0}), [], 2,
                 "InputError", id="grid-dt-zero"),
    pytest.param("simulate", dict(SIM, grid={"t_start": 0.5, "t_end": 0.0, "dt": 0.01}), [], 2,
                 "InputError", id="grid-reversed"),
    pytest.param("simulate", dict(SIM, seed=-1), [], 2, "InputError", id="seed-negative"),
    pytest.param("simulate", dict(SIM, seed=1 << 64), [], 2, "InputError", id="seed-65-bits"),
    pytest.param("simulate", SIM, ["--seed", "-1"], 2, "InputError", id="seed-flag-negative"),
    pytest.param("pullback", dict(ECHO_CASES["pullback"], tol=0.0), [], 2, "InputError",
                 id="pullback-tol-zero"),
    pytest.param("pullback", dict(ECHO_CASES["pullback"], horizons=[5.0]), [], 2, "InputError",
                 id="pullback-one-horizon"),
    pytest.param("skeleton", dict(ECHO_CASES["skeleton"], tol=-1e-4), [], 2, "InputError",
                 id="skeleton-tol-negative"),
    pytest.param("skeleton", dict(ECHO_CASES["skeleton"], horizons=[4.0, 2.0]), [], 2,
                 "InputError", id="skeleton-horizons-decreasing"),
    pytest.param("mam", dict(ECHO_CASES["mam"], T=0.0), [], 2, "InputError", id="mam-T-zero"),
    pytest.param("mam", dict(ECHO_CASES["mam"], steps=1), [], 2, "InputError", id="mam-one-step"),
    pytest.param("qpot", dict(ECHO_CASES["qpot"], T_schedule=[2.0, 1.0]), [], 2, "InputError",
                 id="qpot-schedule-decreasing"),
    pytest.param("qpot", dict(ECHO_CASES["qpot"], steps_per_unit=0), [], 2, "InputError",
                 id="qpot-steps-per-unit-zero"),
    pytest.param("qpot", dict(ECHO_CASES["qpot"], tol=0.0), [], 2, "InputError",
                 id="qpot-tol-zero"),
    pytest.param("verify-ldp", dict(LATE, eps_list=[0.4, 0.0, 0.1]), [], 2, "InputError",
                 id="verify-ldp-eps-zero"),
    pytest.param("verify-ldp", dict(LATE, tol=0.0), [], 2, "InputError",
                 id="verify-ldp-tol-zero"),
    pytest.param("verify-ldp", dict(LATE, n_samples=0), [], 2, "InputError",
                 id="verify-ldp-no-samples"),
    pytest.param("verify-ldp", dict(LATE, dt=0.0), [], 2, "InputError", id="verify-ldp-dt-zero"),
    pytest.param("verify-ldp", dict(LATE, horizons=[2.0, 2.0]), [], 2, "InputError",
                 id="verify-ldp-horizons-equal"),
    pytest.param("verify-ldp", dict(LATE, horizons=[1.0, 2.0, 4.0]), [], 2, "InputError",
                 id="verify-ldp-three-horizons"),
    pytest.param("verify-ldp", dict(LATE, event={"kind": "coord_ge", "index": -1,
                                                 "threshold": 0.4}), [], 2, "InputError",
                 id="coord-index-negative"),
    # a numerical failure stays exit 3
    pytest.param("verify-ldp", LATE, [], 3, "NonConvergenceError", id="sampling-gap"),
]


@pytest.mark.parametrize("command,config,flags,code,error", CONFIG_MISTAKES)
def test_config_mistakes_exit_with_their_class(tmp_path, capsys, command, config, flags,
                                                code, error):
    cfg = write_config(tmp_path, "c.yaml", config)
    got, _, err = run(capsys, command, "--config", cfg, "--out", str(tmp_path / "o"), *flags)
    assert (got, stderr_json(err)["error"]) == (code, error), err


# every key of every command with a valid value, as one or more configs per command;
# skeleton's two modes and the three event kinds need one config each
FULL = {
    "simulate": [dict(SIM, model={"name": "ou", "params": {"a": 1.0}}, x0=[0.5])],
    "pullback": [dict(ECHO_CASES["pullback"], model={"name": "ou", "params": {"a": 1.0}},
                      horizons=[5.0, 10.0], tol=1e-4)],
    "skeleton": [
        dict(FORWARD, model={"name": "linear2d-a2", "params": {"lambda": 0.3, "beta": 2.0}},
             x0=[1.0, 0.0], control="control.csv"),
        dict(ECHO_CASES["skeleton"], horizons=[1.0, 2.0], tol=1e-4, control="control.csv"),
    ],
    "action": [{"version": 1, "model": {"name": "hopf-radial", "params": {"c": 1.0}},
                "path": "path.csv"}],
    "mam": [dict(ECHO_CASES["mam"], model={"name": "burgers1d",
                                           "params": {"grid": 8, "K": 4, "d0": 1.0}},
                 target=[0.1] * 8, init="linear")],
    "qpot": [dict(ECHO_CASES["qpot"], model={"name": "linear2d-a1", "params": {"lambda": 0.3}},
                  target=[1.0, 0.0], steps_per_unit=50, tol=1e-3)],
    "verify-ldp": [
        dict(LDP, model={"name": "ou", "params": {"a": 1.0}}, horizons=[10.0, 20.0], tol=1e-3,
             reference=0.16),
        dict(LDP, model={"name": "linear2d-a2"}, event={"kind": "coord_ge", "index": 1,
                                                         "threshold": 0.5}),
        dict(LDP, model={"name": "linear2d-a1"}, event={"kind": "box", "lo": [0.5, -1.0],
                                                         "hi": [1.0, 1.0]}),
    ],
}


def numeric_leaves(node, where=()):
    """Key paths of every number in a config, list items included."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from numeric_leaves(value, (*where, key))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield where


def test_full_configs_give_every_key_and_parse():
    assert list(FULL) == list(_COMMANDS)
    for command, configs in FULL.items():
        given = set().union(*configs)
        assert given == set(_COMMANDS[command].keys) - {"outputs"}, command
        for config in configs:
            _parse_block(_COMMANDS[command].keys, config, command)  # raises if invalid
    assert [c["event"]["kind"] for c in FULL["verify-ldp"]] == list(_EVENT_KEYS)


NON_FINITE = [
    pytest.param(command, i, where, id=f"{command}-{i}-" + ".".join(map(str, where)))
    for command in _COMMANDS
    for i, config in enumerate(FULL[command])
    for where in numeric_leaves(config)
]


@pytest.mark.parametrize("command,index,where", NON_FINITE)
def test_non_finite_numbers_exit_2(tmp_path, capsys, command, index, where):
    for value in (float("nan"), float("inf"), float("-inf")):
        config = copy.deepcopy(FULL[command][index])
        node = config
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        cfg = write_config(tmp_path, "c.yaml", config)
        code, _, err = run(capsys, command, "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2 and len(err.splitlines()) == 1, (value, err)
        assert stderr_json(err)["error"] in ("InputError", "ConfigurationError"), (value, err)


NUMERICAL = {"DivergenceError", "NonConvergenceError", "NonInvertibleDiffusionError",
             "OptimizationStalledError", "InsufficientDataError"}


def _error_classes(cls=ToolkitError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


def test_every_error_class_exits_with_its_code(tmp_path, capsys, monkeypatch):
    # numerical failures exit 3, every other ToolkitError exits 2
    classes = list(_error_classes())
    assert NUMERICAL | {"ToolkitError", "InputError", "ConfigurationError"} == {
        cls.__name__ for cls in classes}
    cfg = write_config(tmp_path, "sim.yaml", SIM)
    for cls in classes:
        def run_body(parsed, files, cls=cls):
            raise cls("raised by the run body")

        monkeypatch.setitem(_COMMANDS, "simulate", _COMMANDS["simulate"]._replace(run=run_body))
        code, _, err = run(capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == (3 if cls.__name__ in NUMERICAL else 2), cls.__name__
        assert stderr_json(err) == {"error": cls.__name__, "message": "raised by the run body"}
