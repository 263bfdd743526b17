"""Model catalogue: dissipative drift + factored noise on a state space H.

Every model describes the Ito equation

    dX = (A X + F(X) + g(t)) dt + sqrt(eps) * B(X) dW,

where A is linear, F is the nonlinearity, g a deterministic forcing, and
the noise W is a sum over K modes e_k with per-mode weights c_k.  All
shipped diffusions act as a scalar factor times the identity on the mode
span, B(u) h = b(u) * sum_k h_k c_k e_k, which is what makes control
recovery (action module) a per-mode division.

The state space carries a weighted inner product <u, v>_H = mass * u.v
(mass = grid spacing for the discretized PDE, 1 otherwise) and a
dissipation norm ||.||_V.  The constants attached to each model are the
ones the contraction and energy estimates are phrased in:

    <A(u-v) + F(u) - F(v), u-v>_H <= -lam ||u-v||_V^2
                                     + c0 ||u-v||_H^2 ||u||_V^2,
    <A u + F(u), u>_H <= -lam ||u||_V^2        (models with equilibrium 0),
    |B(u) - B(v)|  <= beta0 ||u-v||_H,   |B(u)| <= d0   (operator norms).

check_hypothesis samples these inequalities on each model's declared
state domain and reports the worst margins.

All model callables broadcast over leading batch axes; the state always
occupies the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError
from .grids import _as_int, _as_real, record_dict


@dataclass(frozen=True)
class HypothesisConstants:
    """Constants of the dissipativity and noise-boundedness inequalities."""

    lam: float      # dissipation rate in front of ||.||_V^2
    c0: float       # interaction coefficient of the pair inequality
    c1: float       # comparison constant: ||u||_V^2 >= c1 ||u||_H^2
    beta0: float    # Lipschitz constant of u -> B(u)
    d0: float       # uniform operator bound on B


def _unit_factor(u):
    return np.ones(np.asarray(u).shape[:-1])


def _zero_gradient(u):
    return np.zeros_like(np.asarray(u, dtype=np.float64))


def _euclid_sq(u):
    return np.sum(np.asarray(u) ** 2, axis=-1)


@dataclass(frozen=True)
class ModelSpec:
    """One concrete model instance; built through make_model.

    Defaults give the common case (F = 0, g = 0, b = 1, identity modes, rest
    state 0); `autonomous` and `unit_diffusion` are derived, never set.
    """

    name: str
    dim: int
    linear: Callable            # u -> A u
    drift_jacT: Callable        # (u, t, y) -> (d drift/d u)^T y
    constants: HypothesisConstants
    state_box: tuple            # (lo, hi): the test domain is [lo, hi]^dim
    relax_rate: float           # contraction scale used for horizon schedules
    nonlinear: Optional[Callable] = None  # u -> F(u); None when F = 0
    forcing: Optional[Callable] = None    # t -> g(t), shape t.shape + (dim,); None when g = 0
    diffusion_factor: Callable = _unit_factor        # u -> b(u), shape u.shape[:-1]
    grad_diffusion_factor: Callable = _zero_gradient  # u -> grad b(u), shape u.shape
    mode_matrix: Optional[np.ndarray] = None   # (dim, K), columns H-orthonormal; None is I
    mode_weights: Optional[np.ndarray] = None  # (K,) positive weights c_k; None is all 1
    vnorm_sq: Callable = _euclid_sq  # u -> ||u||_V^2, shape u.shape[:-1]
    mass: float = 1.0           # H inner product weight
    zero_equilibrium: bool = True  # drift vanishes at 0 and 0 is the rest state
    eps0: float = 0.5           # admissible noise strengths are eps <= eps0
    default_eps: float = 0.1
    default_dt: float = 1e-3
    pullback_init: Optional[np.ndarray] = None  # start state for pullback integrations; None is 0
    max_stable_dt: Optional[float] = None  # explicit-step stability ceiling, None if unconstrained
    # (model, x, times, dt, drive, path) -> None: em_advance fused for the terms named in its
    # .terms, (linear, nonlinear, diffusion_factor); None is the generic em_advance
    em_kernel: Optional[Callable] = None

    def __post_init__(self):
        if self.mode_matrix is None:
            object.__setattr__(self, "mode_matrix", np.eye(self.dim))
        if self.mode_weights is None:
            object.__setattr__(self, "mode_weights", np.ones(self.modes))
        if self.pullback_init is None:
            object.__setattr__(self, "pullback_init", np.zeros(self.dim))

    @property
    def modes(self) -> int:
        return self.mode_matrix.shape[1]

    @property
    def autonomous(self) -> bool:
        """g identically zero."""
        return self.forcing is None

    @property
    def unit_diffusion(self) -> bool:
        """b identically 1: the spec keeps the default factor."""
        return self.diffusion_factor is _unit_factor

    def sample_state(self, rng: np.random.Generator) -> np.ndarray:
        """One state drawn uniformly from the test domain [lo, hi]^dim."""
        lo, hi = self.state_box
        return rng.uniform(lo, hi, size=self.dim)


# ---------------------------------------------------------------------------
# norms and shared operations

def h_norm_sq(model: ModelSpec, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    return model.mass * np.sum(u * u, axis=-1)


def h_norm(model: ModelSpec, u: np.ndarray) -> np.ndarray:
    return np.sqrt(h_norm_sq(model, u))


def h_inner(model: ModelSpec, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return model.mass * np.sum(np.asarray(u) * np.asarray(v), axis=-1)


def _check_state(model: ModelSpec, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.shape[-1:] != (model.dim,):
        raise InputError(
            f"state for '{model.name}' must have last axis {model.dim}, got shape {u.shape}"
        )
    return u


def _field(model: ModelSpec, u: np.ndarray) -> np.ndarray:
    """A u + F(u); a None nonlinear term is skipped."""
    f = model.linear(u)
    return f if model.nonlinear is None else f + model.nonlinear(u)


def drift(model: ModelSpec, u: np.ndarray, t) -> np.ndarray:
    """Full drift A u + F(u) + g(t); g is not evaluated for autonomous models."""
    f = _field(model, _check_state(model, u))
    return f if model.autonomous else f + model.forcing(t)


# ---------------------------------------------------------------------------
# model factories

def _make_ou(a: float = 1.0) -> ModelSpec:
    """Scalar linear model dx = -a x dt + sqrt(eps) dB."""
    if a <= 0:
        raise InputError(f"ou needs a > 0, got {a}")
    return ModelSpec(
        name="ou",
        dim=1,
        linear=lambda u: -a * u,
        drift_jacT=lambda u, t, y: -a * y,
        constants=HypothesisConstants(lam=a, c0=0.0, c1=1.0, beta0=0.0, d0=1.0),
        state_box=(-2.0, 2.0),
        relax_rate=a,
    )


def _make_periodic1d() -> ModelSpec:
    """Scalar forced model dx = -5x dt + (sin x + 0.3 sin 2 pi t) dt + sqrt(eps) dB.

    The forcing is 1-periodic, so the pullback limit is a periodic orbit
    (deterministically) or a small fluctuation around it (under noise).
    """
    return ModelSpec(
        name="periodic1d",
        dim=1,
        linear=lambda u: -5.0 * u,
        drift_jacT=lambda u, t, y: (-5.0 + np.cos(u)) * y,
        # sin is 1-Lipschitz, so the pair between -5 and sin leaves rate 4.
        constants=HypothesisConstants(lam=4.0, c0=0.0, c1=1.0, beta0=0.0, d0=1.0),
        state_box=(-2.0, 2.0),
        relax_rate=4.0,
        nonlinear=np.sin,
        forcing=lambda t: 0.3 * np.sin(2.0 * np.pi * np.asarray(t, dtype=np.float64))[..., None],
        default_eps=0.01,
    )


def _make_linear2d(variant: str, lam: float = 0.3, beta: float = 2.0) -> ModelSpec:
    """Planar linear models sharing one invariant measure.

    Variant a1 is the symmetric contraction -lam I; variant a2 adds the
    rotation beta J.  Both have isotropic Gaussian statistics with
    per-coordinate variance eps/(2 lam), but different path costs.
    """
    if lam <= 0:
        raise InputError(f"linear2d needs lambda > 0, got {lam}")
    if variant == "a1":
        mat = -lam * np.eye(2)
        # u0*(-lam) + u1*0 is -lam*u0 exactly
        linear = lambda u: -lam * u
    elif variant == "a2":
        mat = np.array([[-lam, -beta], [beta, -lam]])

        def linear(u):
            """(-lam u0 - beta u1, -lam u1 + beta u0), in this order for any row count."""
            u = np.asarray(u, dtype=np.float64)
            out = -lam * u
            out[..., 0] -= beta * u[..., 1]
            out[..., 1] += beta * u[..., 0]
            return out
    else:  # pragma: no cover - registry controls the variant string
        raise InputError(f"unknown linear2d variant {variant!r}")
    return ModelSpec(
        name=f"linear2d-{variant}",
        dim=2,
        linear=linear,
        drift_jacT=lambda u, t, y: y @ mat,
        constants=HypothesisConstants(lam=lam, c0=0.0, c1=1.0, beta0=0.0, d0=1.0),
        state_box=(-2.0, 2.0),
        relax_rate=lam,
    )


def _make_hopf_radial(c: float = 1.0) -> ModelSpec:
    """Radial normal form dr = (3/2 - r^2) r dt + sqrt(eps) c r dB.

    The drift has the unstable rest point 0 and the attracting radius
    sqrt(3/2); the noise is linear-multiplicative.  This model exists for
    its closed-form stationary solution and sits outside the
    zero-equilibrium inequality on purpose: its non-trivial stationary
    radius is the object of interest.  Pair dissipativity holds on the
    working annulus [1.4, 2.0] used for sampling.
    """
    if c <= 0:
        raise InputError(f"hopf-radial needs c > 0, got {c}")
    return ModelSpec(
        name="hopf-radial",
        dim=1,
        linear=lambda u: np.zeros_like(np.asarray(u, dtype=np.float64)),
        drift_jacT=lambda u, t, y: (1.5 - 3.0 * u * u) * y,
        constants=HypothesisConstants(lam=0.4, c0=0.0, c1=1.0, beta0=c, d0=2.0 * c),
        state_box=(1.4, 2.0),
        # linearization rate at the attracting radius: |3/2 - 3 r*^2| = 3
        relax_rate=3.0,
        nonlinear=lambda u: (1.5 - u * u) * u,
        diffusion_factor=lambda u: np.asarray(u, dtype=np.float64)[..., 0],
        grad_diffusion_factor=lambda u: np.ones_like(np.asarray(u, dtype=np.float64)),
        mode_weights=np.array([c]),
        zero_equilibrium=False,
        pullback_init=np.ones(1),
    )


def _dirichlet_lap(u, h: float) -> np.ndarray:
    """(u[j+1] - 2 u[j] + u[j-1]) / h^2 along the last axis, zero past both ends."""
    u = np.asarray(u, dtype=np.float64)
    out = -2.0 * u
    out[..., :-1] += u[..., 1:]
    out[..., 1:] += u[..., :-1]
    out /= h * h
    return out


def _dirichlet_dx(u, h: float) -> np.ndarray:
    """(u[j+1] - u[j-1]) / 2h along the last axis, zero past both ends.

    Fills in place what zeros + u[j+1] - u[j-1] gives: u[j+1] + 0.0 turns a
    -0.0 into 0.0 just as the zeros did, so values and zero signs are the same.
    """
    u = np.asarray(u, dtype=np.float64)
    out = np.empty_like(u)
    np.add(u[..., 1:], 0.0, out=out[..., :-1])
    out[..., -1] = 0.0
    np.subtract(out[..., 1:], u[..., :-1], out=out[..., 1:])
    out /= 2.0 * h
    return out


def _make_burgers1d(n: int = 64, kmax: int = 16, d0: float = 1.0,
                    diffusion: str = "multiplicative") -> ModelSpec:
    """Viscous conservation-law model on (0, 1) with Dirichlet ends.

        du = u_xx dt + (1/2)(u^2)_x dt + sqrt(eps) B(u) dW

    discretized at n interior points (config key `grid`).  The advection
    term uses the energy-conserving split (1/3)(u D u + D u^2) with the
    centered difference D, which keeps <F(u), u>_H = 0 exactly at the
    discrete level.  Noise lives on the first kmax sine modes (config key
    `K`) with weights k^{-2}; the shipped multiplicative factor
    b(u) = d0 / (1 + ||u||_H^2) is bounded and Lipschitz, the "additive"
    variant is b = 1.
    """
    if n < 4:
        raise InputError(f"burgers1d needs at least 4 interior points, got {n}")
    if kmax < 1 or kmax > n:
        raise InputError(f"burgers1d mode count must lie in [1, {n}], got {kmax}")
    if d0 <= 0:
        raise InputError(f"burgers1d needs d0 > 0, got {d0}")
    if not (isinstance(diffusion, str) and diffusion in ("multiplicative", "additive")):
        raise InputError(f"model 'burgers1d' parameter 'diffusion' must be 'multiplicative' "
                         f"or 'additive', got {diffusion!r}")
    h = 1.0 / (n + 1)
    x = h * np.arange(1, n + 1)

    def lap(u):
        return _dirichlet_lap(u, h)

    def dx(u):
        return _dirichlet_dx(u, h)

    def nonlinear(u):
        u = np.asarray(u, dtype=np.float64)
        pair = np.empty((2, *u.shape))
        pair[0] = u
        np.multiply(u, u, out=pair[1])
        du, duu = dx(pair)
        return (u * du + duu) / 3.0

    def jacT(u, t, y):
        u = np.asarray(u, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return lap(y) + (dx(u) * y - dx(u * y) - 2.0 * u * dx(y)) / 3.0

    multiplicative = diffusion == "multiplicative"
    if multiplicative:
        def factor(u):
            u = np.asarray(u, dtype=np.float64)
            return d0 / (1.0 + h * np.add.reduce(u * u, axis=-1))

        def grad_factor(u):
            u = np.asarray(u, dtype=np.float64)
            b = factor(u)
            return (-2.0 * h / d0) * b[..., None] ** 2 * u

        beta0 = d0
    else:
        factor, grad_factor, beta0 = _unit_factor, _zero_gradient, 0.0

    def em_kernel(model, x, times, dt, drive, path=None):
        """em_advance on these terms, one fused pass per step, bit for bit.

        Every element gets em_advance's operations in its order, on buffers and
        views made once per call, where most passes run over one flat array:
        - The state's rows sit between -0.0 ends.  x + -0.0 is x for every x, so
          lap's neighbour sums over the flat rows are the generic ones, which
          skip the missing neighbour.
        - pad holds u + 0.0 and u*u between +0.0 ends, so one flat subtraction
          ahead - behind gives D of both: with a minuend that is not -0.0,
          subtracting y + 0.0 is subtracting y.  u*u also gives b(u).
        """
        rows, blocks = x.size // n, drive.shape[1]
        # the scalar operands as 0-d arrays: a ufunc takes them faster than Python floats,
        # with the same operation on every element
        two_h, h_sq, step, h_, one, d0_, zero, three, minus_two = (
            np.array(c, dtype=np.float64) for c in (2.0 * h, h * h, dt, h, 1.0, d0, 0.0, 3.0, -2.0))
        state = np.full((rows, n + 2), -0.0)
        inner = state[:, 1:-1]
        u = inner.reshape(x.shape)  # the state in x's shape, as em_advance steps it
        u[...] = x
        pad = np.zeros((2, rows, n + 2))
        u_plus0, sq = pad  # u + 0.0 turns -0.0 into +0.0
        sq_inner = sq[:, 1:-1]
        diff = np.zeros((2, rows, n + 2))  # its first and last entries are never written
        du, duu = diff  # du becomes F(u)
        f = np.empty((rows, n + 2))
        f_inner = f[:, 1:-1]
        # flat views, ends and row seams included; what lands on an end is never read
        right, left = state.ravel()[1:], state.ravel()[:-1]
        ahead, behind = pad.ravel()[2:], pad.ravel()[:-2]
        diff_mid = diff.ravel()[1:-1]
        f_lo, f_hi = f.ravel()[:-1], f.ravel()[1:]
        kick = np.full((rows, n + 2), -0.0)  # b(u) d between -0.0 ends
        kick_rows = kick.reshape(-1, blocks, n + 2)[..., 1:-1]
        state_rows = state.reshape(-1, blocks, n + 2)[..., 1:-1]
        b = np.empty(rows)
        b_rows = b.reshape(-1, blocks, 1)
        # `out` goes positionally: parsing it as a keyword is most of what a ufunc call
        # on rows this short costs beyond its work
        with np.errstate(over="ignore", invalid="ignore"):
            for i, d in enumerate(drive):
                np.multiply(state, state, sq)
                if multiplicative:  # d0 / (1 + h |u|^2)
                    np.add.reduce(sq_inner, -1, None, b)
                    np.multiply(b, h_, b)
                    np.add(b, one, b)
                    np.divide(d0_, b, b)
                    np.multiply(b_rows, d, kick_rows)
                np.add(state, zero, u_plus0)
                np.subtract(ahead, behind, diff_mid)
                np.divide(diff, two_h, diff)
                np.multiply(du, state, du)
                np.add(du, duu, du)
                np.divide(du, three, du)
                np.multiply(state, minus_two, f)
                np.add(f_lo, right, f_lo)
                np.add(f_hi, left, f_hi)
                np.divide(f, h_sq, f)
                np.add(f, du, f)
                np.multiply(f, step, f)
                np.add(inner, f_inner, inner)
                if multiplicative:
                    np.add(state, kick, state)
                else:
                    np.add(state_rows, d, state_rows)
                if path is not None:
                    path[i] = u
        x[...] = u

    em_kernel.terms = (lap, nonlinear, factor)

    def vnorm_sq(u):
        u = np.asarray(u, dtype=np.float64)
        inner = np.sum(np.diff(u, axis=-1) ** 2, axis=-1)
        return (inner + u[..., 0] ** 2 + u[..., -1] ** 2) / h

    ks = np.arange(1, kmax + 1)
    c1 = (4.0 / (h * h)) * np.sin(np.pi * h / 2.0) ** 2
    return ModelSpec(
        name="burgers1d",
        dim=n,
        linear=lap,
        drift_jacT=jacT,
        # lam = 1/2 leaves room for the advection cross terms; c0 = 1/9 is
        # the discrete-safe interaction constant (the continuum integration
        # by parts that would give 1/16 is not exact for the split form).
        constants=HypothesisConstants(lam=0.5, c0=1.0 / 9.0, c1=c1, beta0=beta0, d0=d0),
        state_box=(-1.0, 1.0),
        relax_rate=c1,
        nonlinear=nonlinear,
        diffusion_factor=factor,
        grad_diffusion_factor=grad_factor,
        # exactly H-orthonormal on the interior grid: h * sum_j e_k e_l = delta_kl
        mode_matrix=np.sqrt(2.0) * np.sin(np.pi * np.outer(x, ks)),
        mode_weights=ks.astype(np.float64) ** -2.0,
        vnorm_sq=vnorm_sq,
        mass=h,
        eps0=0.1,
        default_eps=0.05,
        default_dt=h * h / 4.0,
        max_stable_dt=h * h / 2.0,
        em_kernel=em_kernel,
    )


# ---------------------------------------------------------------------------
# registry

# name -> (factory, config-facing parameter names -> (factory kwarg, grids checker, or
# None for a name the factory checks against its choices))
_REGISTRY = {
    "ou": (_make_ou, {"a": ("a", _as_real)}),
    "periodic1d": (_make_periodic1d, {}),
    "linear2d-a1": (lambda **kw: _make_linear2d("a1", **kw), {"lambda": ("lam", _as_real)}),
    "linear2d-a2": (lambda **kw: _make_linear2d("a2", **kw),
                    {"lambda": ("lam", _as_real), "beta": ("beta", _as_real)}),
    "hopf-radial": (_make_hopf_radial, {"c": ("c", _as_real)}),
    "burgers1d": (
        _make_burgers1d,
        {"grid": ("n", _as_int), "K": ("kmax", _as_int), "d0": ("d0", _as_real),
         "diffusion": ("diffusion", None)},
    ),
}


def model_names() -> list[str]:
    return list(_REGISTRY)


def make_model(name: str, params: Optional[dict] = None) -> ModelSpec:
    """Build a catalogue model, applying config-style parameter overrides."""
    if not isinstance(name, str) or name not in _REGISTRY:
        raise InputError(
            f"unknown model {name!r}; available: {', '.join(_REGISTRY)}"
        )
    factory, allowed = _REGISTRY[name]
    params = dict(params or {})
    unknown = set(params) - set(allowed)
    if unknown:
        raise InputError(
            f"model {name!r} does not take parameter(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed) or 'none'}"
        )
    kwargs = {}
    for key, value in params.items():
        kwarg, check = allowed[key]
        context = f"model {name!r} parameter {key!r}"
        kwargs[kwarg] = value if check is None else check(value, context)
    return factory(**kwargs)


# ---------------------------------------------------------------------------
# hypothesis check

@dataclass(frozen=True)
class HypothesisReport:
    """Worst sampled margins of the structural inequalities (<= 0 passes)."""

    model: str
    n_samples: int
    tol: float
    pair_margin: float          # two-solution dissipativity inequality
    self_margin: Optional[float]  # zero-equilibrium inequality, None if n/a
    lipschitz_margin: float     # |B(u)-B(v)| - beta0 ||u-v||_H
    bound_margin: float         # |B(u)| - d0
    passed: bool

    to_dict = record_dict


def check_hypothesis(model: ModelSpec, n_samples: int = 200, seed: int = 0,
                     tol: float = 1e-8) -> HypothesisReport:
    """Sample the structural inequalities on the model's state domain.

    Margins are the left-hand sides moved to one side, so any value above
    tol is a violation.  The zero-equilibrium inequality is only
    meaningful for models whose rest state is 0 and is skipped otherwise.
    """
    n_samples = _as_int(n_samples, "n_samples")
    if n_samples < 1:
        raise InputError("n_samples must be positive")
    seed = _as_int(seed, "seed")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    tol = _as_real(tol, "tol")
    if tol < 0:
        raise InputError(f"tol must be non-negative, got {tol}")
    rng = np.random.default_rng(seed)
    cst = model.constants
    c_max = float(np.max(model.mode_weights))
    pair = -np.inf
    self_m = -np.inf if model.zero_equilibrium else None
    lip = -np.inf
    bound = -np.inf
    for _ in range(n_samples):
        u = model.sample_state(rng)
        v = model.sample_state(rng)
        w = u - v
        du = _field(model, u)
        dv = _field(model, v)
        pair = max(
            pair,
            float(
                h_inner(model, du - dv, w)
                + cst.lam * model.vnorm_sq(w)
                - cst.c0 * h_norm_sq(model, w) * model.vnorm_sq(u)
            ),
        )
        if self_m is not None:
            self_m = max(
                self_m,
                float(h_inner(model, du, u) + cst.lam * model.vnorm_sq(u)),
            )
        bu = float(model.diffusion_factor(u))
        bv = float(model.diffusion_factor(v))
        lip = max(lip, abs(bu - bv) * c_max - cst.beta0 * float(h_norm(model, w)))
        bound = max(bound, abs(bu) * c_max - cst.d0)
    passed = pair <= tol and lip <= tol and bound <= tol
    if self_m is not None:
        passed = passed and self_m <= tol
    return HypothesisReport(
        model=model.name,
        n_samples=n_samples,
        tol=tol,
        pair_margin=pair,
        self_margin=self_m,
        lipschitz_margin=lip,
        bound_margin=bound,
        passed=passed,
    )
