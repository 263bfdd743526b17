"""Frozen-seed numbers do not depend on the BLAS kernel, its thread count or numpy's SIMD level.

Run as a script, this file prints one JSON line: the digests of the
frozen-seed families (sampling, stepping, a pullback ladder, a skeleton,
the decay-law fit) and the digest of a probe gemm.  The test runs it in
child processes under other OpenBLAS core types and thread counts and
with numpy's dispatched SIMD paths switched off, and compares each
child's digests with its own.

    PYTHONPATH=src python tests/test_cross_kernel.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ldpkit
from ldpkit import (TimeGrid, em_step_sde, integrate_skeleton, ldp_slope, make_estimate,
                    make_model, pullback_stationary, sample_noise, sample_stationary)

# each child's settings; the rest of its environment is the test process's own
ENVIRONMENTS = [
    *({"OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": threads}
      for core in ("Haswell", "Sandybridge") for threads in ("1", "2")),
    # every SIMD target numpy dispatches to above its x86-64-v2 baseline; with
    # X86_V3 and X86_V4 alone, the AVX512_ICL and AVX512_SPR targets stay on
    {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
]
_SET = ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS", "NPY_DISABLE_CPU_FEATURES")


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def digests() -> dict:
    a2 = make_model("linear2d-a2")
    small = make_model("burgers1d", {"grid": 19, "K": 8})
    dt = small.default_dt
    grid = TimeGrid(-300 * dt, 0.0, 300)
    x0 = np.sin(np.linspace(0.0, 3.0, small.dim))
    table = np.cos(np.arange(grid.steps * small.modes)).reshape(grid.steps, small.modes)
    block = np.array([x0, -0.5 * x0, small.pullback_init])
    view = TimeGrid(-40 * dt, 0.0, 40)
    path, diag = pullback_stationary(small, 0.05, 2, view, horizons=[0.3, 0.6, 1.2])
    ests = [make_estimate(eps, "t", 1000, hits)
            for eps, hits in ((0.4, 300), (0.2, 90), (0.1, 12), (0.05, 2))]
    return {
        # m = 3 at dt 0.01, and one fine step per burn-in step at dt 0.02
        "sample linear2d-a2": _sha(sample_stationary(a2, 0.2, 64, seed=5, dt=0.01,
                                                     horizons=[5.0, 10.0], tol=1.0)),
        "sample linear2d-a2 fine": _sha(sample_stationary(a2, 0.2, 64, seed=5, dt=0.02,
                                                          horizons=[5.0, 10.0], tol=1.0)),
        "sample burgers1d": _sha(sample_stationary(small, 0.05, 4, seed=3,
                                                   horizons=[0.3, 0.6], tol=1.0)),
        # a burn-in of coarse steps (3 dt) in the fused kernel
        "sample burgers1d coarse": _sha(sample_stationary(small, 0.05, 4, seed=3, dt=dt / 2,
                                                          horizons=[0.3, 0.6], tol=1.0)),
        "em burgers1d": _sha(em_step_sde(small, x0, grid, sample_noise(grid, small.modes, 1),
                                         0.05).states),
        # the fused step's b(u) sums u*u over the rows of a padded buffer
        "em burgers1d block": _sha(em_step_sde(small, block, grid,
                                               sample_noise(grid, small.modes, 2), 0.05).states),
        "pullback burgers1d": _sha(path.states) + repr(diag.to_dict()),
        "skeleton burgers1d": _sha(integrate_skeleton(small, x0, grid, table).states),
        "ldp_slope": repr(ldp_slope(ests, 0.3).to_dict()),
    }


def probe_gemm() -> str:
    """Digest of a gemm whose rounding shows FMA against non-FMA kernels."""
    u = np.random.default_rng(0).uniform(-2.0, 2.0, size=(4096, 2))
    return _sha(u @ np.array([[-0.3, -2.0], [2.0, -0.3]]).T)


def test_digests_do_not_depend_on_blas_kernel_threads_or_simd():
    base = {k: v for k, v in os.environ.items() if k not in _SET}
    src = str(Path(ldpkit.__file__).resolve().parents[1])
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    children = [subprocess.Popen([sys.executable, __file__], env={**base, **env},
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                for env in ENVIRONMENTS]
    reports = []
    for env, child in zip(ENVIRONMENTS, children):
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, f"{env}: {err}"
        reports.append(json.loads(out.splitlines()[-1]))
    expected = digests()
    for env, report in zip(ENVIRONMENTS, reports):
        moved = sorted(k for k in expected if report["digests"][k] != expected[k])
        assert not moved, f"under {env}: {moved} differ from this process's"
    gemms = {r["gemm"] for env, r in zip(ENVIRONMENTS, reports) if "OPENBLAS_CORETYPE" in env}
    if len(gemms) == 1:
        pytest.skip("OPENBLAS_CORETYPE left a probe gemm unchanged, so the BLAS kernels "
                    "were not told apart")


if __name__ == "__main__":
    print(json.dumps({"digests": digests(), "gemm": probe_gemm()}))
