"""Problem constructors: path-dependent portfolio, goodwill advertising, affine test.

Each constructor certifies the declared coefficient constants on a stated
audit radius and wires batched drift / noise / cost callables into a
ProblemSpec. The no-delay portfolio closed form, the solver's external
reference, is the portfolio parameters' own `oracle`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Kernel,
    LiftedState,
    ProblemSpec,
    SegmentGrid,
    ValidationError,
)

# ---------------------------------------------------------------------------
# kernel presets


def _profile_zero(nodes: np.ndarray, d: float) -> np.ndarray:
    return np.zeros_like(nodes)


def _profile_affine_ramp(nodes: np.ndarray, d: float) -> np.ndarray:
    return (nodes + d) / d


KERNEL_PROFILES = {
    "zero": _profile_zero,
    "affine_ramp": _profile_affine_ramp,
}


def build_kernel(spec: dict, grid: SegmentGrid, n: int) -> Kernel:
    """Build a kernel from a JSON-style spec: a preset profile or a table.

    Preset form: {"preset": name, "scale": s, "embed": [[...]]} where embed
    is the (h, n) placement matrix (defaults to a single row of ones).
    Table form: {"table": [...]} with shape (m+1, h, n).
    A preset kernel carries its own tabulation, so it resamples exactly.
    """
    if "table" in spec:
        return Kernel(grid, np.asarray(spec["table"], dtype=float))
    name = spec["preset"]
    if name not in KERNEL_PROFILES:
        raise ValidationError(f"unknown kernel preset {name!r}")
    scale = float(spec.get("scale", 1.0))
    embed = np.asarray(spec.get("embed", [[1.0] * n]), dtype=float)
    if embed.ndim != 2 or embed.shape[1] != n:
        raise ValidationError(f"kernel embed must be (h, {n}), got {embed.shape}")
    profile = KERNEL_PROFILES[name]

    def tabulate(g: SegmentGrid) -> Kernel:
        return Kernel(g, scale * profile(g.nodes, g.d)[:, None, None] * embed[None, :, :],
                      preset=tabulate)

    return tabulate(grid)


# ---------------------------------------------------------------------------
# coefficient maps


@dataclass(frozen=True)
class ClampedAffine:
    """Globally Lipschitz scalar map v -> clip(base + slope * v, lo, hi).

    A slope-0 map is its constant clip(base, lo, hi): base, lo and hi all
    hold that value.
    """

    base: float
    slope: float = 0.0
    lo: float = -np.inf
    hi: float = np.inf

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not (math.isfinite(self.base) and math.isfinite(self.slope)):
            raise ValidationError(f"coefficient map needs a finite base and slope, "
                                  f"got {self.base}, {self.slope}")
        if not (self.lo <= self.hi and self.lo < np.inf and self.hi > -np.inf):
            raise ValidationError(f"clamp interval [{self.lo}, {self.hi}] holds no real number")
        if self.slope == 0.0:
            value = float(np.clip(self.base, self.lo, self.hi))
            for name in ("base", "lo", "hi"):
                object.__setattr__(self, name, value)
        elif not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValidationError("a sloped coefficient map must be clamped on both sides")

    def __call__(self, v):
        if self.slope == 0.0:
            return self.base
        # np.clip without its Python wrapper, bound first so that ties keep the value
        return np.minimum(self.hi, np.maximum(self.lo, self.base + self.slope
                                              * np.asarray(v, dtype=float)))

    @property
    def abs_max(self) -> float:
        return max(abs(self.lo), abs(self.hi))

    @property
    def lipschitz(self) -> float:
        return abs(self.slope)

    @classmethod
    def from_dict(cls, d) -> "ClampedAffine":
        if "const" in d:
            return cls(float(d["const"]))
        return cls(base=float(d["base"]), slope=float(d.get("slope", 0.0)),
                   lo=float(d["lo"]), hi=float(d["hi"]))


def power_utility(z, gamma: float, z_floor: float):
    """Power utility z^gamma / gamma, extended linearly below z_floor.

    The extension keeps the map concave and globally of linear growth, which
    the raw power lacks near zero.
    """
    z = np.asarray(z, dtype=float)
    gf = z_floor ** gamma / gamma
    slope = z_floor ** (gamma - 1.0)
    # the power sees max(z, z_floor) and only the entries below the floor
    # take the line, so each entry evaluates one branch and none overflows
    # in a branch it does not keep; asarray makes a 0-d result assignable
    out = np.asarray(np.maximum(z, z_floor) ** gamma / gamma)
    below = z < z_floor
    out[below] = gf + slope * (z[below] - z_floor)
    return out


def control_grid(lo: float, hi: float, count: int) -> np.ndarray:
    return np.linspace(lo, hi, count)[:, None]


# ---------------------------------------------------------------------------
# Merton-type portfolio with path-dependent stock coefficients


@dataclass(frozen=True)
class MertonParams:
    """Portfolio problem datum: bond rate, stock coefficient maps, utility."""

    r: float = 0.01
    mu: ClampedAffine = field(default_factory=lambda: ClampedAffine(0.07))
    nu: ClampedAffine = field(default_factory=lambda: ClampedAffine(0.3))
    gamma: float = 0.5
    rho: float = 0.1
    d: float = 0.1
    kernel_drift: dict = field(default_factory=lambda: {"preset": "zero"})
    kernel_noise: dict = field(default_factory=lambda: {"preset": "zero"})
    z0: float = 1.0
    s0: float = 1.0
    s1: float = 1.0
    z_floor: float = 0.05
    n_controls: int = 11

    def __post_init__(self):
        if not self.r >= 0:
            raise ValidationError(f"bond rate must be nonnegative, got {self.r}")
        if not 0 < self.gamma < 1:
            raise ValidationError(f"utility exponent must lie in (0,1), got {self.gamma}")
        if not self.nu.lo > 0:
            raise ValidationError("volatility map must be bounded below by a positive value")
        if not self.z_floor > 0:
            raise ValidationError("utility floor must be positive")

    def oracle(self) -> tuple[float, float]:
        """The no-delay closed form: the value at z0 and the optimal constant
        fraction u*, with kernels off.

        For a constant fraction u the wealth is geometric Brownian motion, the
        expected utility grows at rate beta(u) = gamma (r + (mu - r) u)
        - gamma (1 - gamma) nu^2 u^2 / 2, and the best constant fraction is
        optimal overall, so the value is z0^gamma/gamma / (rho - beta(u*)).
        """
        if self.mu.slope or self.nu.slope:
            raise ValidationError("merton-check compares against the constant-coefficient "
                                  "closed form; use const mu and nu presets with zero kernels")
        r, mu, nu, gamma, rho = self.r, self.mu.base, self.nu.base, self.gamma, self.rho

        def beta(u: float) -> float:
            return gamma * (r + (mu - r) * u) - 0.5 * gamma * (1 - gamma) * nu ** 2 * u ** 2

        u_star = min(max((mu - r) / ((1 - gamma) * nu ** 2), 0.0), 1.0)
        beta_star = beta(u_star)
        if rho <= max(beta_star, beta(0.0), beta(1.0)):
            raise ValidationError(
                f"discount {rho} does not dominate the utility growth rate {beta_star:g}"
            )
        return self.z0 ** gamma / gamma * (1.0 / (rho - beta_star)), u_star

    @classmethod
    def from_dict(cls, d: dict) -> "MertonParams":
        kw = dict(d)
        for key in ("mu", "nu"):
            if key in kw:
                kw[key] = ClampedAffine.from_dict(kw[key])
        return cls(**kw)


def build_merton(p: MertonParams, m: int) -> ProblemSpec:
    """Two-dimensional state (stock, wealth), scalar noise, fractions in [0,1]."""
    grid = SegmentGrid(p.d, m)
    # kernels read the stock component of the history only
    embed = [[1.0, 0.0]]
    k1 = dict(p.kernel_drift)
    k2 = dict(p.kernel_noise)
    k1.setdefault("embed", embed)
    k2.setdefault("embed", embed)
    kernel_drift = build_kernel(k1, grid, 2)
    kernel_noise = build_kernel(k2, grid, 2)

    r, gamma, z_floor = p.r, p.gamma, p.z_floor
    mu, nu = p.mu, p.nu

    # outputs are filled column by column: an np.stack per Euler step cost
    # 0.1 s of a merton-check run
    def drift(y, z, u):
        s, w = y[..., 0], y[..., 1]
        mu_v = mu(z[..., 0])
        du = u[..., 0]
        wealth = r * w + (mu_v - r) * du * w
        out = np.empty(wealth.shape + (2,))
        out[..., 0] = mu_v * s
        out[..., 1] = wealth
        return out

    def noise(y, z, u):
        s, w = y[..., 0], y[..., 1]
        nu_v = nu(z[..., 0])
        du = u[..., 0]
        wealth = nu_v * du * w
        out = np.empty(wealth.shape + (2, 1))
        out[..., 0, 0] = nu_v * s
        out[..., 1, 0] = wealth
        return out

    def cost(y, u):
        return -power_utility(y[..., 1], gamma, z_floor)

    mu_abs, nu_abs = mu.abs_max, nu.abs_max
    growth_c = math.sqrt(2.0) * max(mu_abs, mu_abs + 2 * r, nu_abs)
    lipschitz = (max(mu_abs, mu_abs + 2 * r, nu_abs)
                 + 10.0 * (mu.lipschitz + nu.lipschitz)) * math.sqrt(2.0)
    cost_k = max(1.0, z_floor ** (gamma - 1.0), abs(power_utility(0.0, gamma, z_floor)))

    return ProblemSpec(
        n=2, q=1, p=1, grid=grid,
        kernel_drift=kernel_drift, kernel_noise=kernel_noise,
        drift=drift, noise=noise, cost=cost, rho=p.rho,
        control_set=control_grid(0.0, 1.0, p.n_controls),
        growth_const=growth_c, lipschitz_const=lipschitz,
        cost_growth_const=cost_k, cost_growth_exponent=1.0,
        ellipticity_floor=None,  # noise degenerates on the u z = 0 slice
        params=p,
        head_names=("s", "z"),
        initial_head=(p.s0, p.z0),
        initial_history=(p.s1, p.z0),
    )


# ---------------------------------------------------------------------------
# optimal advertising with delayed forgetting


@dataclass(frozen=True)
class AdvertisingParams:
    """Goodwill dynamics: decay, delayed forgetting kernel, additive noise."""

    a0: float = -0.5
    c0: float = 1.0
    sigma: float = 0.2
    rho: float = 2.0
    d: float = 1.0
    kernel_scale: float = -0.5          # forgetting kernel = scale * affine ramp
    u_max: float = 1.0
    spend_cost: float = 0.5             # h(u) = spend_cost * u^2
    x0: float = 1.0
    x1: float = 1.0
    n_controls: int = 11

    def __post_init__(self):
        if not self.a0 <= 0:
            raise ValidationError("image deterioration factor must be nonpositive")
        if not self.c0 >= 0:
            raise ValidationError("advertising effectiveness must be nonnegative")
        if not self.kernel_scale <= 0:
            raise ValidationError("forgetting kernel must be nonpositive")
        if not self.sigma >= 0:
            raise ValidationError("noise level must be nonnegative")
        if not self.u_max > 0:
            raise ValidationError("control bound must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "AdvertisingParams":
        return cls(**d)


def build_advertising(p: AdvertisingParams, m: int) -> ProblemSpec:
    """Scalar goodwill state, additive noise, spending in [0, u_max].

    Running cost is quadratic spending minus linear goodwill utility.
    """
    grid = SegmentGrid(p.d, m)
    kspec = {"preset": "affine_ramp", "scale": p.kernel_scale}
    kernel_drift = build_kernel(kspec, grid, 1)
    kernel_noise = build_kernel({"preset": "zero"}, grid, 1)
    a0, c0, sigma, spend = p.a0, p.c0, p.sigma, p.spend_cost

    def drift(y, z, u):
        return a0 * y + z + c0 * u

    def noise(y, z, u):
        return np.full(y.shape + (1,), sigma)

    def cost(y, u):
        return spend * u[..., 0] ** 2 - y[..., 0]

    growth_c = max(abs(a0), 1.0, c0 * p.u_max + sigma)
    return ProblemSpec(
        n=1, q=1, p=1, grid=grid,
        kernel_drift=kernel_drift, kernel_noise=kernel_noise,
        drift=drift, noise=noise, cost=cost, rho=p.rho,
        control_set=control_grid(0.0, p.u_max, p.n_controls),
        growth_const=growth_c, lipschitz_const=max(abs(a0), 1.0),
        cost_growth_const=max(spend * p.u_max ** 2, 1.0), cost_growth_exponent=1.0,
        ellipticity_floor=sigma ** 2 if sigma > 0 else None,
        params=p,
        head_names=("y",),
        initial_head=(p.x0,),
        initial_history=(p.x1,),
    )


# ---------------------------------------------------------------------------
# affine test family


@dataclass(frozen=True)
class AffineTestParams:
    """Minimal family exercising every hypothesis knob with computable constants."""

    n: int = 1
    q: int = 1
    drift_const: tuple = (0.0,)
    drift_state: tuple = ((-0.5,),)     # (n, n)
    drift_delay: tuple = ((0.3,),)      # (n, h) with h = 1
    drift_control: tuple = ((0.5,),)    # (n, p)
    noise_const: tuple = ((0.4,),)      # (n, q)
    rho: float = 1.0
    d: float = 1.0
    kernel_scale: float = 0.3
    cost_exponent: float = 2.0
    cost_state_scale: float = 1.0
    cost_control_scale: float = 0.1
    cost_clip: float = np.inf
    control_lo: float = 0.0
    control_hi: float = 1.0
    n_controls: int = 5
    x0: tuple = (1.0,)
    x1: tuple = (1.0,)

    def __post_init__(self):
        n, q = self.n, self.q
        for name, shape in (("drift_const", (n,)), ("drift_state", (n, n)),
                            ("drift_delay", (n, 1)), ("drift_control", (n, 1)),
                            ("noise_const", (n, q)), ("x0", (n,)), ("x1", (n,))):
            if np.shape(getattr(self, name)) != shape:
                raise ValidationError(f"{name} must have shape {shape} at n={n}, q={q}, "
                                      f"got {np.shape(getattr(self, name))}")
        # each check is written so that NaN fails it
        if not self.cost_clip > 0:
            raise ValidationError(f"cost clip must be positive or inf, got {self.cost_clip}")
        if not self.control_lo <= self.control_hi:
            raise ValidationError(f"control interval [{self.control_lo}, {self.control_hi}] "
                                  "is empty")

    @classmethod
    def from_dict(cls, d: dict) -> "AffineTestParams":
        kw = dict(d)
        for key in ("drift_const", "drift_state", "drift_delay", "drift_control",
                    "noise_const", "x0", "x1"):
            if key in kw:
                kw[key] = tuple(map(tuple, kw[key])) if np.ndim(kw[key]) > 1 else tuple(kw[key])
        return cls(**kw)


def build_affine_test(p: AffineTestParams, m: int) -> ProblemSpec:
    """Affine drift, constant noise with an ellipticity floor, clipped cost."""
    n, q = p.n, p.q
    grid = SegmentGrid(p.d, m)
    kernel = build_kernel({"preset": "affine_ramp", "scale": p.kernel_scale}, grid, n)
    bc = np.asarray(p.drift_const, dtype=float)
    bx = np.asarray(p.drift_state, dtype=float)
    bz = np.asarray(p.drift_delay, dtype=float)
    bu = np.asarray(p.drift_control, dtype=float)
    s0 = np.asarray(p.noise_const, dtype=float)
    mexp, clip = p.cost_exponent, p.cost_clip
    qs, rs = p.cost_state_scale, p.cost_control_scale

    def drift(y, z, u):
        return (bc + y @ bx.T + z @ bz.T + u @ bu.T)

    def noise(y, z, u):
        return np.broadcast_to(s0, y.shape[:-1] + (n, q)).copy()

    def cost(y, u):
        r = np.minimum(np.linalg.norm(y, axis=-1), clip)
        return qs * r ** mexp + rs * np.sum(u * u, axis=-1)

    op = float(np.linalg.norm(bx, 2))
    oz = float(np.linalg.norm(bz, 2))
    umax = max(abs(p.control_lo), abs(p.control_hi))
    const_part = float(np.linalg.norm(bc)) + float(np.linalg.norm(bu, 2)) * umax
    growth_c = max(const_part + float(np.linalg.norm(s0)), op, oz)
    lam_floor = float(np.linalg.eigvalsh(s0 @ s0.T)[0])
    cost_k = (qs * clip ** mexp + rs * umax ** 2 if np.isfinite(clip)
              else max(qs, rs * umax ** 2 + qs))
    return ProblemSpec(
        n=n, q=q, p=1, grid=grid,
        kernel_drift=kernel, kernel_noise=kernel,
        drift=drift, noise=noise, cost=cost, rho=p.rho,
        control_set=control_grid(p.control_lo, p.control_hi, p.n_controls),
        growth_const=growth_c,
        lipschitz_const=max(op, oz),
        cost_growth_const=cost_k,
        cost_growth_exponent=(0.0 if np.isfinite(clip) else mexp),
        ellipticity_floor=(lam_floor if lam_floor > 0 else None),
        params=p,
        initial_head=tuple(np.ravel(p.x0)),
        initial_history=tuple(np.ravel(p.x1)),
    )


# ---------------------------------------------------------------------------
# initial states and spec files


def initial_state(spec: ProblemSpec) -> LiftedState:
    """Initial lifted state recorded on the problem by its constructor."""
    if spec.initial_head is None or spec.initial_history is None:
        raise ValidationError("no initial state recorded on the problem")
    return LiftedState(spec.grid, spec.initial_head,
                       np.tile(spec.initial_history, (spec.grid.m + 1, 1)))


_BUILDERS = {
    "merton": (MertonParams, build_merton),
    "advertising": (AdvertisingParams, build_advertising),
    "affine_test": (AffineTestParams, build_affine_test),
}


def build_problem(doc: dict) -> ProblemSpec:
    """Build a ProblemSpec from a parsed spec document; a malformed document
    (not an object, a missing or unknown field, a mistyped value, a value
    whose arithmetic overflows) raises ValidationError."""
    if not isinstance(doc, dict):
        raise ValidationError(f"spec document must be a JSON object, got {type(doc).__name__}")
    try:
        model, m = doc["model"], doc["m"]
    except KeyError as exc:
        raise ValidationError(f"spec document missing field {exc}") from exc
    if not isinstance(model, str) or model not in _BUILDERS:
        raise ValidationError(
            f"unknown model {model!r}; expected one of {sorted(_BUILDERS)}"
        )
    if isinstance(m, bool) or not isinstance(m, int):
        raise ValidationError(f"spec field 'm' must be an integer, got {m!r}")
    params_type, build = _BUILDERS[model]
    try:
        return build(params_type.from_dict(doc.get("params", {})), m)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ValidationError(f"malformed {model} spec: {exc!r}") from exc


def _finite_number(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValidationError(f"problem files take finite numbers only, got {text}")
    return value


def load_spec_file(path) -> ProblemSpec:
    """Load a JSON problem description from disk; text that is not JSON, NaN,
    Infinity and numbers that overflow a float (1e999) raise ValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"problem file {path} is not JSON text: {exc}") from None
    return build_problem(doc)


# ---------------------------------------------------------------------------
# sampling audits for the declared constants


@dataclass(frozen=True)
class AuditReport:
    name: str
    observed: float
    declared: float
    kind: str = "upper"  # declared is an upper bound on observed, or "lower"

    @property
    def ok(self) -> bool:
        if self.kind == "upper":
            return self.observed <= self.declared * (1.0 + 1e-9)
        return self.observed >= self.declared * (1.0 - 1e-9)


def audit_constants(spec: ProblemSpec, radius: float = 5.0,
                    seed: int = 0) -> list[AuditReport]:
    """Sampled checks of every declared constant on a ball of the given radius.

    Each of 2000 samples draws two points (y, z_drift, z_noise), each delay integral
    at its own kernel's width, and one control from the control set.
    Reports, in order: the growth |f| / (1 + |y| + |z|) against growth_const
    and the Lipschitz ratio |f(2) - f(1)| / (|y2 - y1| + |z2 - z1|) against
    lipschitz_const of the drift, then of the noise; the cost growth
    |l| / (1 + |y|^m) against cost_growth_const; and, when a floor is
    declared, the smallest sampled eigenvalue of noise noise^T over every
    control against it.
    """
    rng = np.random.default_rng(seed)
    widths = (spec.n, spec.kernel_drift.h_dim, spec.kernel_noise.h_dim)
    y, zb, zs = (rng.uniform(-radius, radius, size=(2000, w)) for w in widths)
    y2, zb2, zs2 = (rng.uniform(-radius, radius, size=(2000, w)) for w in widths)
    u = spec.control_set[rng.integers(0, spec.control_set.shape[0], size=2000)]

    def norm(a):
        return np.linalg.norm(np.reshape(a, (len(a), -1)), axis=1)

    def worst(num, denom):
        return float(np.max(num / denom))

    reports = []
    for name, f, z, z2 in (("drift", spec.drift, zb, zb2), ("noise", spec.noise, zs, zs2)):
        v, v2 = np.asarray(f(y, z, u), dtype=float), np.asarray(f(y2, z2, u), dtype=float)
        reports += [
            AuditReport(f"{name} growth", worst(norm(v), 1.0 + norm(y) + norm(z)),
                        spec.growth_const),
            AuditReport(f"{name} lipschitz", worst(norm(v2 - v), norm(y2 - y) + norm(z2 - z)),
                        spec.lipschitz_const)]
    reports.append(AuditReport(
        "cost growth", worst(np.abs(np.asarray(spec.cost(y, u))),
                             1.0 + norm(y) ** spec.cost_growth_exponent),
        spec.cost_growth_const))
    if spec.ellipticity_floor is not None:
        lam_min = math.inf
        for c in spec.control_set:
            s = np.asarray(spec.noise(y, zs, np.broadcast_to(c, u.shape)))
            gram = np.einsum("pnq,pmq->pnm", s, s)
            lam_min = min(lam_min, float(np.min(np.linalg.eigvalsh(gram))))
        reports.append(AuditReport("ellipticity floor", lam_min, float(spec.ellipticity_floor),
                                   kind="lower"))
    return reports
