"""Shared fixtures: model instances are immutable, so build each once per session."""
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ldpkit import HypothesisConstants, ModelSpec, make_model, noise


@pytest.fixture(scope="session")
def ou():
    return make_model("ou")


@pytest.fixture(scope="session")
def periodic():
    return make_model("periodic1d")


@pytest.fixture(scope="session")
def lin_a1():
    return make_model("linear2d-a1")


@pytest.fixture(scope="session")
def lin_a2():
    return make_model("linear2d-a2")


@pytest.fixture(scope="session")
def hopf():
    return make_model("hopf-radial")


@pytest.fixture(scope="session")
def burgers():
    return make_model("burgers1d")


@pytest.fixture(scope="session")
def non_normal():
    """A linear 3x3 model R (-D + N) R^T, N strictly upper triangular: Hurwitz with
    eigenvalues -D, non-normal, on rotated modes of unequal weights."""
    rng = np.random.default_rng(8)
    R = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    D = np.array([0.5, 0.8, 1.5])
    M = R @ (np.triu(rng.uniform(-2.0, 2.0, (3, 3)), 1) - np.diag(D)) @ R.T
    modes = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    return ModelSpec(
        name="linear3d", dim=3, linear=lambda u: u @ M.T, drift_jacT=lambda u, t, y: y @ M,
        constants=HypothesisConstants(lam=D.min(), c0=0.0, c1=1.0, beta0=0.0, d0=1.0),
        state_box=(-2.0, 2.0), relax_rate=D.min(), mode_matrix=modes,
        mode_weights=np.array([1.0, 0.7, 1.3]))


@pytest.fixture(scope="session")
def all_models(ou, periodic, lin_a1, lin_a2, hopf, burgers):
    return [ou, periodic, lin_a1, lin_a2, hopf, burgers]


def _gradient_flow_model(weights, a, d0):
    """dX = -b(X)^2 a W X dt + sqrt(eps) b(X) dB with b(u) = d0 / (1 + |u|^2) and W =
    diag(weights), or a linear -a X when weights is None, which is -b^2 grad U for
    U = a((1 + |x|^2)^3 - 1) / (6 d0^2) in one dimension."""
    def factor(u):
        return d0 / (1.0 + np.sum(np.asarray(u) ** 2, axis=-1))

    def grad_factor(u):
        u = np.asarray(u, dtype=np.float64)
        return (-2.0 / d0) * factor(u)[..., None] ** 2 * u

    if weights is None:
        dim, linear, nonlinear = 1, lambda u: -a * np.asarray(u), None
        jacT = lambda u, t, y: -a * np.asarray(y)
    else:
        w = a * np.asarray(weights, dtype=np.float64)
        dim, linear = len(w), lambda u: np.zeros_like(np.asarray(u, dtype=np.float64))

        def nonlinear(u):
            return -factor(u)[..., None] ** 2 * w * u

        def jacT(u, t, y):
            # d/du_j of -b^2 w_i u_i is -2 b (db/du_j) w_i u_i - b^2 w_i delta_ij
            b = factor(u)[..., None]
            wuy = np.sum(w * u * y, axis=-1)[..., None]
            return 4.0 * b**3 / d0 * u * wuy - b**2 * w * y

    return ModelSpec(
        name="gradient-flow", dim=dim, linear=linear, nonlinear=nonlinear, drift_jacT=jacT,
        constants=HypothesisConstants(lam=a, c0=0.0, c1=1.0, beta0=d0, d0=d0),
        state_box=(-1.0, 1.0), relax_rate=a if weights is None else a * d0**2 * min(weights),
        diffusion_factor=factor, grad_diffusion_factor=grad_factor)


@pytest.fixture(scope="session")
def gradient_flow():
    """The multiplicative-noise oracle family: gradient_flow(weights, a, d0) is a ModelSpec."""
    return _gradient_flow_model


class _SlowTiles:
    """Noise tiles counted as they start and made to take 2 ms each, on a fresh pool
    of one thread: a pool thread cannot fill a whole piece while the caller steps one."""

    def __init__(self, monkeypatch):
        self.filled = 0
        real = noise.ndtri

        def slow(u, out):
            self.filled += 1
            time.sleep(0.002)
            return real(u, out=out)

        monkeypatch.setattr(noise, "_WORKERS", 2)
        monkeypatch.setattr(noise, "_pool", (None, None))
        monkeypatch.setattr(noise, "ndtri", slow)
        self.pool = noise._executor()

    def pool_idles_at_once(self) -> bool:
        """Whether a task put on the pool now runs within half a second."""
        t0 = time.perf_counter()
        self.pool.submit(lambda: None).result(timeout=30)
        return time.perf_counter() - t0 < 0.5


@pytest.fixture
def slow_tiles(monkeypatch):
    tiles = _SlowTiles(monkeypatch)
    yield tiles
    tiles.pool.shutdown()


@pytest.fixture(scope="session")
def fresh_python():
    """run(code, cwd=None): the last line `code` prints when a fresh interpreter of this
    Python runs it with ldpkit's source directory first on its path."""
    src = str(Path(noise.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(code: str, cwd=None) -> str:
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    return run
