"""Statistics of coefficient distributions.

Histograms, power-law exponent fits (binned regression and MLE), closed-form
moment estimates, the truncated self-convolution that models coefficient
merges, the per-gate term-count recurrence, and eta-spike diagnostics.

All analytics consume canonical real coefficients; absolute values are taken
at this boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import GateStats
from .estimator import _ols
from .files import write_csv

__all__ = [
    "PowerLawModel",
    "CoefficientHistogram",
    "MFitResult",
    "SingularityError",
    "QuadratureError",
    "histogram",
    "fit_m_regression",
    "fit_m_mle",
    "moment_estimate",
    "convolution_density",
    "s_theta",
    "s_theta_sweep",
    "predict_term_count_step",
    "detect_eta_spikes",
]

DEFAULT_BINS = 2048
DEFAULT_REGRESSION_L = 1.0
DEFAULT_SPIKE_THRESHOLD = 0.2
# absolute quadrature tolerances: the convolution density at |t| <= delta,
# and the chasm mass s(theta)
_DENSITY_EPSABS = 1e-9
_CHASM_EPSABS = 1e-12


class SingularityError(ValueError):
    """Closed-form moment formula evaluated at one of its poles."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class PowerLawModel:
    """Two-sided truncated power law rho(t) = A / |t|^(m+1) for |t| > delta.

    A = m * delta^m / 2 normalizes the density to 1.
    """

    m: float
    delta: float
    A: float = field(init=False)

    def __post_init__(self):
        # each test fails on NaN and on inf
        if not 0 < self.m < math.inf:
            raise ValueError(f"exponent m must be positive and finite, got {self.m}")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"cutoff delta must be positive and finite, got {self.delta}")
        object.__setattr__(self, "A", self.m * self.delta**self.m / 2.0)

    def density(self, t: float) -> float:
        """rho(t) at one point (quadrature calls this once per node)."""
        a = abs(float(t))
        return float(self.A / a ** (self.m + 1)) if a >= self.delta else 0.0

    def signed_cdf(self, y: float) -> float:
        """Pr(c <= y)."""
        if y <= -self.delta:
            return 0.5 * (self.delta / -y) ** self.m
        if y < self.delta:
            return 0.5
        return 1.0 - 0.5 * (self.delta / y) ** self.m


@dataclass
class CoefficientHistogram:
    """Uniform-bin histogram with deterministic boundary rule.

    A value lands in bin i when edge_i <= v < edge_{i+1}; the last bin is
    closed on the right.
    """

    edges: np.ndarray
    counts: np.ndarray
    total: int

    @property
    def densities(self) -> np.ndarray:
        widths = np.diff(self.edges)
        return self.counts / (self.total * widths)

    def to_csv(self, path) -> None:
        write_csv(path, ["edge_lo", "edge_hi", "count", "density"],
                  zip(self.edges[:-1], self.edges[1:], self.counts, self.densities))


def histogram(
    coeffs,
    bins: int = DEFAULT_BINS,
    absolute: bool = False,
    delta_floor: float | None = None,
) -> CoefficientHistogram:
    """Histogram coefficients into uniform bins.

    Signed mode spans [min, max]; absolute mode spans [delta_floor, max|c|]
    (delta_floor defaults to min|c|).
    """
    values = np.asarray(coeffs, dtype=float)
    if values.size == 0:
        raise ValueError("cannot histogram an empty coefficient list")
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    if absolute:
        values = np.abs(values)
    lo = float(delta_floor) if absolute and delta_floor is not None else float(values.min())
    hi = float(values.max())
    if hi <= lo:
        hi = lo + max(1.0, abs(lo)) * 1e-12  # all-equal input: single populated bin
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return CoefficientHistogram(edges=edges, counts=counts, total=int(values.size))


@dataclass
class MFitResult:
    """Power-law exponent estimate with fit diagnostics."""

    method: str
    m: float
    x_min: float
    stderr: float | None = None
    r_squared: float | None = None
    sample_count: int = 0
    bins: int | None = None
    low_sample_warning: bool = False


def fit_m_regression(abs_coeffs, delta: float, l: float = DEFAULT_REGRESSION_L) -> MFitResult:
    """Binned log-log regression for the exponent m.

    Bins of width delta/16 centered at 144 uniformly spaced points between
    l*delta and 20*delta; the slope of log(density) vs log(center) is
    -(m+1).  Empty bins are skipped; two populated bins leave the slope
    without a standard error (``stderr`` None).  l must be finite and at
    least 1, and delta positive and finite.
    """
    # each test fails on NaN and on inf
    if not 1 <= l < math.inf:
        raise ValueError(f"l must be finite and >= 1, got {l}")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    values = np.sort(np.abs(np.asarray(abs_coeffs, dtype=float)))
    if values.size == 0:
        raise ValueError("no samples")
    centers = np.linspace(l * delta, 20.0 * delta, 144)
    half = delta / 32.0
    lo_idx = np.searchsorted(values, centers - half, side="left")
    hi_idx = np.searchsorted(values, centers + half, side="right")
    counts = hi_idx - lo_idx
    in_window = int(
        np.searchsorted(values, 20.0 * delta, side="right")
        - np.searchsorted(values, l * delta, side="left")
    )
    populated = counts > 0
    if populated.sum() < 2:
        raise ValueError("fewer than 2 populated bins; cannot fit a slope")
    x = np.log(centers[populated])
    y = np.log(counts[populated] / (values.size * 2.0 * half))
    fit = _ols(x, y)
    return MFitResult(
        method="regression",
        m=-fit.slope - 1.0,
        x_min=l * delta,
        stderr=fit.stderr,
        r_squared=fit.r_squared,
        sample_count=in_window,
        bins=int(populated.sum()),
        low_sample_warning=in_window < 1000,
    )


def fit_m_mle(abs_coeffs, x_min: float) -> MFitResult:
    """Maximum-likelihood exponent: m = N / sum(log(|c| / x_min)).

    Only samples with |c| >= x_min qualify; smaller samples are excluded,
    and the N that qualify are the result's ``sample_count``.  x_min must be
    positive.
    """
    if not x_min > 0:
        raise ValueError(f"x_min must be positive, got {x_min}")
    values = np.abs(np.asarray(abs_coeffs, dtype=float))
    values = values[values >= x_min]
    if values.size == 0:
        raise ValueError(f"no samples at or above x_min={x_min}")
    log_sum = float(np.sum(np.log(values / x_min)))
    if log_sum == 0.0:
        raise ValueError("degenerate sample: all values equal x_min")
    return MFitResult(method="mle", m=values.size / log_sum, x_min=x_min, sample_count=values.size)


def moment_estimate(model: PowerLawModel, l: float, norm_sq: float) -> float:
    """Closed-form estimate of sum |c|^l from the power-law shape.

    ((2-m)/(l-m)) * ((1 - delta^(l-m)) / (1 - delta^(2-m))) * norm_sq.
    l = 2 returns norm_sq identically; l = 4 is the generalized-Pauli-purity
    hook.
    """
    m, d = model.m, model.delta
    if abs(l - m) < 1e-9:
        raise SingularityError(f"moment order l={l} hits the pole at m={m}")
    if abs(2.0 - m) < 1e-9:
        raise SingularityError(f"formula undefined at m=2 (got m={m})")
    return ((2.0 - m) / (l - m)) * ((1.0 - d ** (l - m)) / (1.0 - d ** (2.0 - m))) * norm_sq


# ---------------------------------------------------------------------------
# truncated self-convolution
# ---------------------------------------------------------------------------


def _intersect_rays(neg_hi, pos_lo, b_neg_hi, b_pos_lo):
    """Intersect (-inf, neg_hi] u [pos_lo, inf) with (-inf, b_neg_hi] u [b_pos_lo, inf)."""
    pieces = []
    hi = min(neg_hi, b_neg_hi)
    pieces.append((-math.inf, hi))
    if b_pos_lo <= neg_hi:
        pieces.append((b_pos_lo, neg_hi))
    if pos_lo <= b_neg_hi:
        pieces.append((pos_lo, b_neg_hi))
    pieces.append((max(pos_lo, b_pos_lo), math.inf))
    return [(a, b) for a, b in pieces if a < b]


def _quad_pieces(fn, pieces, epsabs):
    # imported on first use, so the commands that never integrate skip its load time
    from scipy.integrate import quad

    total = 0.0
    err = 0.0
    for a, b in pieces:
        out = quad(
            fn, a, b, epsabs=epsabs / max(len(pieces), 1), epsrel=1e-10, limit=200, full_output=1
        )
        val, e = out[0], out[1]
        # quad appends a message to its output only when it did not converge
        if len(out) > 3:
            raise QuadratureError(
                f"quad did not converge on [{a:.6g}, {b:.6g}]: {out[3].splitlines()[0]}",
                achieved=e,
            )
        total += val
        err += e
    # quad's error estimate is conservative; fail only when it is far above
    # both the absolute request and ~1e-7 relative accuracy
    if err > max(epsabs * 10.0, abs(total) * 1e-7, 1e-12):
        raise QuadratureError(
            f"quadrature error estimate {err:.3g} exceeds tolerance {epsabs:.3g}", achieved=err
        )
    return total


def _split_toward_ends(lo, hi, w_lo, w_hi):
    """Cut [lo, hi] at lo + w_lo * 4^k and hi - w_hi * 4^k, meeting at the midpoint."""
    mid = 0.5 * (lo + hi)
    near, far = [], []
    w = w_lo
    while lo + w < mid:
        near.append(lo + w)
        w *= 4.0
    w = w_hi
    while hi - w > mid:
        far.append(hi - w)
        w *= 4.0
    edges = [lo, *near, mid, *reversed(far), hi]
    return list(zip(edges, edges[1:]))


def convolution_density(model: PowerLawModel, theta: float, t: float) -> float:
    """Density of cos(theta) * X + sin(theta) * Y at t, X and Y iid ~ rho.

    Numeric quadrature over the support intersection (both factors beyond
    the cutoff); support endpoints are computed analytically so every piece
    is smooth.  The integration runs against the larger of the two weights.
    A finite piece peaks sharply at both ends: at the cutoff of the
    integration variable (width delta) and where the co-factor reaches the
    cutoff (width delta * a / b, narrow for theta near 0 or pi/2).  Each
    finite piece is therefore cut at geometric steps away from both ends.
    The absolute tolerance, 1e-9 at |t| <= delta, is scaled beyond that by
    rho(t) / rho(delta), so far in the tail, where rho(t) falls to 1e-9 and
    below, the integral is still resolved to the same relative accuracy.
    """
    if not (0.0 < theta < math.pi / 2.0):
        raise ValueError(f"theta must lie in (0, pi/2), got {theta}")
    c, s = math.cos(theta), math.sin(theta)
    a, b = max(c, s), min(c, s)
    d = model.delta
    t = float(t)

    # f_V(t) = (1/a) * int rho(v) rho((t - v*b)/a) dv; the co-factor argument
    # varies at rate b/a <= 1 in v
    v1 = (t - d * a) / b
    v2 = (t + d * a) / b

    def integrand(v):
        return model.density(v) * model.density((t - v * b) / a) / a

    pieces = []
    for lo, hi in _intersect_rays(-d, d, v1, v2):
        if math.isinf(lo) or math.isinf(hi):
            pieces.append((lo, hi))
        else:
            # an end at +-delta is the cutoff of rho(v); the other end is
            # where the co-factor reaches the cutoff
            w_lo = d if lo == d else d * a / b
            w_hi = d if hi == -d else d * a / b
            pieces.extend(_split_toward_ends(lo, hi, w_lo, w_hi))
    if not pieces:
        return 0.0
    tol = _DENSITY_EPSABS * (d / max(abs(t), d)) ** (model.m + 1.0)
    return _quad_pieces(integrand, pieces, tol)


def s_theta(model: PowerLawModel, theta: float) -> float:
    """Merged-coefficient mass lost to the chasm: Pr(|X cos + Y sin| < delta).

    One quadrature level is removed analytically (the inner variable uses
    the closed-form CDF), leaving a piecewise-smooth 1-D integral.  The outer
    variable carries the smaller weight so the inner bounds vary mildly.
    """
    if not (0.0 < theta < math.pi / 2.0):
        raise ValueError(f"theta must lie in (0, pi/2), got {theta}")
    c, s = math.cos(theta), math.sin(theta)
    a, b = max(c, s), min(c, s)
    d = model.delta

    def inner_mass(x):
        upper = (d - x * b) / a
        lower = (-d - x * b) / a
        return model.signed_cdf(upper) - model.signed_cdf(lower)

    def integrand(x):
        return model.density(x) * inner_mass(x)

    # kinks where the inner bounds cross +-delta
    kinks = sorted(
        k for k in (d * (1.0 - a) / b, d * (1.0 + a) / b, d * (a - 1.0) / b, -d * (1.0 + a) / b)
        if k > d
    )
    points = [d] + kinks
    pieces = list(zip(points, points[1:])) + [(points[-1], math.inf)]
    # even integrand: integrate the positive half and double
    return 2.0 * _quad_pieces(integrand, pieces, _CHASM_EPSABS / 2.0)


def s_theta_sweep(model: PowerLawModel, thetas) -> list[dict]:
    rows = []
    for th in thetas:
        sv = s_theta(model, float(th))
        rows.append({"theta": float(th), "s": sv, "r": 1.0 - sv})
    return rows


def predict_term_count_step(
    n_terms: float, phi: float, eta: float, theta: float, model: PowerLawModel
) -> float:
    """One step of the term-count recurrence.

    N' = N * (1 - phi + (phi - eta) * (cos^m + sin^m) + eta * r(theta)),
    with p = cos(theta)^m, q = sin(theta)^m and r = 1 - s(theta), the
    surviving fraction of merged rows.  theta is folded to the effective
    branching angle in [0, pi/2); theta = 0 is the no-branching limit (N' = N).
    """
    if not (0.0 <= eta <= phi <= 1.0):
        raise ValueError(f"need 0 <= eta <= phi <= 1, got eta={eta}, phi={phi}")
    th = abs(math.remainder(theta, math.pi))  # exact, so never above pi/2
    if th == 0.0:
        return float(n_terms)
    m = model.m
    p = math.cos(th) ** m
    q = math.sin(th) ** m
    r = 1.0 - s_theta(model, th) if eta > 0.0 else 1.0
    return float(n_terms) * (1.0 - phi + (phi - eta) * (p + q) + eta * r)


def detect_eta_spikes(gates: list[GateStats], threshold: float = DEFAULT_SPIKE_THRESHOLD):
    """(k, eta, theta) of each gate whose eta reaches the threshold, in gate order.

    A gate whose eta was not measured (None, an absorbed quarter turn) is skipped.
    """
    if math.isnan(threshold):
        raise ValueError(f"threshold must be a number, got {threshold}")
    if not gates:
        raise ValueError("empty trace")
    return [(g.k, g.eta, g.theta) for g in gates if g.eta is not None and g.eta >= threshold]

