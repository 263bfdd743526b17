import json
import types

import pytest
import yaml

import ldpkit

# prints, as JSON, which of ldpkit's two scipy modules the process has loaded
_REPORT = ("\nimport json, sys\n"
           "print(json.dumps([m for m in ('scipy.special', 'scipy.linalg') if m in sys.modules]))")


def test_export_list_is_the_public_api():
    # every exported name resolves, and every public non-module attribute is exported,
    # so a deleted function cannot leave a stale export behind
    assert len(set(ldpkit.__all__)) == len(ldpkit.__all__)
    for name in ldpkit.__all__:
        assert hasattr(ldpkit, name), name
    public = {name for name, value in vars(ldpkit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(ldpkit.__all__) == public


def test_import_catalogue_and_models_command_load_no_scipy_module(fresh_python):
    # scipy.special (the noise transform) and scipy.linalg (the Gauss-Newton solve) are
    # imported when first called, so the package, the CLI and the catalogue need neither
    code = ("import ldpkit\n"
            "from ldpkit import cli\n"
            "from ldpkit.models import make_model, model_names\n"
            "models = [make_model(name) for name in model_names()]\n"
            "assert cli.main(['models']) == 0")
    assert json.loads(fresh_python(code + _REPORT)) == []


_PULLBACK = {"model": {"name": "ou"}, "eps": 0.1, "seed": 1,
             "view": {"t_start": -0.5, "t_end": 0.0, "dt": 0.01}}


@pytest.mark.parametrize("command, config, code, loaded", [
    ("qpot", {"model": {"name": "ou"}, "target": [1.0], "T_schedule": [1.0, 2.0]}, 0,
     ["scipy.linalg"]),
    ("pullback", _PULLBACK, 0, ["scipy.special"]),
    ("verify-ldp", {"model": {"name": "ou"}, "seed": 3,
                    "event": {"kind": "norm_ge", "threshold": 0.4},
                    "eps_list": [0.4, 0.3, 0.2], "n_samples": 50, "dt": 0.01}, 0,
     ["scipy.special"]),
    ("skeleton", {"model": {"name": "periodic1d"},
                  "view": {"t_start": 0.0, "t_end": 1.0, "dt": 0.01}}, 0, []),
    ("pullback", {**_PULLBACK, "eps": -0.1}, 2, []),  # refused before any draw
], ids=["qpot", "pullback", "verify-ldp", "skeleton", "refused"])
def test_a_command_loads_only_the_scipy_module_it_calls(tmp_path, fresh_python, command,
                                                       config, code, loaded):
    (tmp_path / "c.yaml").write_text(yaml.safe_dump({"version": 1, **config}))
    run = (f"from ldpkit import cli\n"
           f"assert cli.main([{command!r}, '--config', 'c.yaml', '--out', 'out']) == {code}")
    assert json.loads(fresh_python(run + _REPORT, cwd=tmp_path)) == loaded
