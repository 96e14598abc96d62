"""Statistics of coefficient distributions.

Histograms, power-law exponent fits (binned regression and MLE), closed-form
moment estimates, the truncated self-convolution that models coefficient
merges, the per-gate term-count recurrence, and eta-spike diagnostics.

All analytics consume canonical real coefficients; absolute values are taken
at this boundary.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .engine import TraceLog, _prepare_generator, _scan
from .estimator import _ols
from .pauli import PauliString
from .sums import PauliSum

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
    "r_theta",
    "s_theta_sweep",
    "predict_term_count_step",
    "detect_eta_spikes",
    "merge_pair_correlation",
    "evolve_density_grid",
]

DEFAULT_SPIKE_THRESHOLD = 0.2


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
        if not (self.m > 0):
            raise ValueError(f"exponent m must be positive, got {self.m}")
        if not (self.delta > 0):
            raise ValueError(f"cutoff delta must be positive, got {self.delta}")
        object.__setattr__(self, "A", self.m * self.delta**self.m / 2.0)

    def density(self, t):
        """rho(t); accepts scalars or arrays."""
        t = np.asarray(t, dtype=float)
        out = np.where(np.abs(t) >= self.delta, self.A / np.maximum(np.abs(t), self.delta) ** (self.m + 1), 0.0)
        return out if out.ndim else float(out)

    def abs_tail_mass(self, a: float) -> float:
        """Pr(|c| >= a)."""
        if a <= self.delta:
            return 1.0
        return (self.delta / a) ** self.m

    def signed_cdf(self, y: float) -> float:
        """Pr(c <= y)."""
        if y <= -self.delta:
            return 0.5 * (self.delta / -y) ** self.m
        if y < self.delta:
            return 0.5
        return 1.0 - 0.5 * (self.delta / y) ** self.m

    def normalization_residual(self) -> float:
        """|2 * integral_delta^inf rho - 1|; zero up to roundoff by construction."""
        return abs(2.0 * self.A * self.delta ** (-self.m) / self.m - 1.0)


@dataclass
class CoefficientHistogram:
    """Uniform-bin histogram with deterministic boundary rule.

    A value lands in bin i when edge_i <= v < edge_{i+1}; the last bin is
    closed on the right.
    """

    edges: np.ndarray
    counts: np.ndarray
    total: int
    gate_index: int | None = None
    delta: float | None = None

    @property
    def densities(self) -> np.ndarray:
        widths = np.diff(self.edges)
        return self.counts / (self.total * widths)

    def to_csv(self, path) -> None:
        dens = self.densities
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["edge_lo", "edge_hi", "count", "density"])
            for i in range(len(self.counts)):
                writer.writerow(
                    [repr(float(self.edges[i])), repr(float(self.edges[i + 1])),
                     int(self.counts[i]), repr(float(dens[i]))]
                )


def histogram(
    coeffs,
    bins: int = 2048,
    absolute: bool = False,
    delta_floor: float | None = None,
    gate_index: int | None = None,
    delta: float | None = None,
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
        lo = float(values.min()) if delta_floor is None else float(delta_floor)
        hi = float(values.max())
    else:
        lo = float(values.min())
        hi = float(values.max())
    if hi <= lo:
        hi = lo + max(1.0, abs(lo)) * 1e-12  # all-equal input: single populated bin
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return CoefficientHistogram(
        edges=edges, counts=counts, total=int(values.size), gate_index=gate_index, delta=delta
    )


@dataclass
class MFitResult:
    """Power-law exponent estimate with fit diagnostics."""

    method: str
    m: float
    x_min: float
    stderr: float | None = None
    r_squared: float | None = None
    n_samples: int = 0
    n_bins: int | None = None
    low_sample_warning: bool = False

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "x_min": self.x_min,
            "m": self.m,
            "stderr": self.stderr,
            "r_squared": self.r_squared,
            "sample_count": self.n_samples,
            "bins": self.n_bins,
            "low_sample_warning": self.low_sample_warning,
        }


def fit_m_regression(abs_coeffs, delta: float, l: float = 1.0) -> MFitResult:
    """Binned log-log regression for the exponent m.

    Bins of width delta/16 centered at 144 uniformly spaced points between
    l*delta and 20*delta; the slope of log(density) vs log(center) is
    -(m+1).  Empty bins are skipped.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
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
        n_samples=in_window,
        n_bins=int(populated.sum()),
        low_sample_warning=in_window < 1000,
    )


def fit_m_mle(abs_coeffs, x_min: float) -> float:
    """Maximum-likelihood exponent: m = N / sum(log(|c| / x_min)).

    Only samples with |c| >= x_min qualify; smaller samples are excluded.
    """
    values = np.abs(np.asarray(abs_coeffs, dtype=float))
    values = values[values >= x_min]
    if values.size == 0:
        raise ValueError(f"no samples at or above x_min={x_min}")
    log_sum = float(np.sum(np.log(values / x_min)))
    if log_sum == 0.0:
        raise ValueError("degenerate sample: all values equal x_min")
    return values.size / log_sum


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


def convolution_density(model: PowerLawModel, theta: float, t: float, epsabs: float = 1e-9) -> float:
    """Density of cos(theta) * X + sin(theta) * Y at t, X and Y iid ~ rho.

    Numeric quadrature over the support intersection (both factors beyond
    the cutoff); support endpoints are computed analytically so every piece
    is smooth.  The integration runs against the larger of the two weights.
    A finite piece peaks sharply at both ends: at the cutoff of the
    integration variable (width delta) and where the co-factor reaches the
    cutoff (width delta * a / b, narrow for theta near 0 or pi/2).  Each
    finite piece is therefore cut at geometric steps away from both ends.
    epsabs is the absolute tolerance at |t| <= delta; beyond that it is
    scaled by rho(t) / rho(delta), so far in the tail, where rho(t) falls to
    epsabs and below, the integral is still resolved to the same relative
    accuracy.
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
    tol = epsabs * (d / max(abs(t), d)) ** (model.m + 1.0)
    return _quad_pieces(integrand, pieces, tol)


def s_theta(model: PowerLawModel, theta: float, epsabs: float = 1e-12) -> float:
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
    return 2.0 * _quad_pieces(integrand, pieces, epsabs / 2.0)


def r_theta(model: PowerLawModel, theta: float, epsabs: float = 1e-12) -> float:
    """Surviving fraction of merged rows: r = 1 - s."""
    return 1.0 - s_theta(model, theta, epsabs=epsabs)


def s_theta_sweep(model: PowerLawModel, thetas) -> list[dict]:
    rows = []
    for th in thetas:
        sv = s_theta(model, float(th))
        rows.append({"theta": float(th), "s": sv, "r": 1.0 - sv})
    return rows


def predict_term_count_step(
    n_terms: float,
    phi: float,
    eta: float,
    theta: float,
    model: PowerLawModel,
    r_value: float | None = None,
) -> float:
    """One step of the term-count recurrence.

    N' = N * (1 - phi + (phi - eta) * (cos^m + sin^m) + eta * r(theta)),
    with p = cos(theta)^m and q = sin(theta)^m.  theta is folded to the
    effective branching angle in [0, pi/2); theta = 0 is the no-branching
    limit (N' = N).
    """
    if not (0.0 <= eta <= phi <= 1.0):
        raise ValueError(f"need 0 <= eta <= phi <= 1, got eta={eta}, phi={phi}")
    th = abs(math.remainder(theta, math.pi))
    if th > math.pi / 2.0:
        th = math.pi - th
    if th == 0.0:
        return float(n_terms)
    m = model.m
    p = math.cos(th) ** m
    q = math.sin(th) ** m
    if eta > 0.0:
        r = r_theta(model, th) if r_value is None else r_value
    else:
        r = 1.0
    return float(n_terms) * (1.0 - phi + (phi - eta) * (p + q) + eta * r)


def detect_eta_spikes(trace: TraceLog, threshold: float = DEFAULT_SPIKE_THRESHOLD):
    """Gates whose merge fraction eta reaches the threshold, sorted by k."""
    if not trace.gates:
        raise ValueError("empty trace")
    return [(g.k, g.eta, g.theta) for g in trace.gates if g.eta >= threshold]


def merge_pair_correlation(s: PauliSum, sigma: PauliString) -> float:
    """Pearson correlation of |c| across merge pairs for the upcoming gate.

    Diagnostic for the independence assumption behind the convolution model;
    returns NaN when fewer than 2 pairs exist.
    """
    words = _prepare_generator(sigma, s.n)[0]
    anti_idx, pos = _scan(s.bits, words)
    if pos is None:
        return float("nan")
    # each pair {P, i sigma P} once, from its lower slot
    first = anti_idx < pos
    if np.count_nonzero(first) < 2:
        return float("nan")
    a = np.abs(s.coeffs[anti_idx[first]])
    b = np.abs(s.coeffs[pos[first]])
    va = a - a.mean()
    vb = b - b.mean()
    denom = math.sqrt(float(np.dot(va, va)) * float(np.dot(vb, vb)))
    if denom == 0.0:
        return float("nan")
    return float(np.dot(va, vb)) / denom


# ---------------------------------------------------------------------------
# density-evolution grid (diagnostics)
# ---------------------------------------------------------------------------


def evolve_density_grid(
    model: PowerLawModel,
    gate_params,
    grid_points: int = 4096,
    t_max: float = 1.0,
):
    """Evolve the coefficient density on a log grid over [delta, t_max].

    ``gate_params`` is an iterable of (phi, eta, theta) per gate.  Returns
    (grid, density) where density is the symmetric density evaluated on the
    positive-axis grid.  Diagnostics-grade: used for model-vs-simulation
    comparison plots, no accuracy contract.
    """
    d = model.delta
    grid = np.geomspace(d, t_max, grid_points)
    rho = model.density(grid)

    def total_mass(vals):
        return 2.0 * np.trapezoid(vals, grid)

    def interp(vals, pts):
        out = np.interp(pts, grid, vals, left=0.0, right=0.0)
        out[pts < d] = 0.0
        return out

    def tail_mass_from(vals, a):
        mask = grid >= a
        if mask.sum() < 2:
            return 0.0
        return 2.0 * np.trapezoid(vals[mask], grid[mask])

    for phi, eta, theta in gate_params:
        th = abs(math.remainder(theta, math.pi))
        if th > math.pi / 2.0:
            th = math.pi - th
        if th == 0.0 or phi == 0.0:
            continue
        c, s = math.cos(th), math.sin(th)
        p = tail_mass_from(rho, d / c) if d / c <= t_max else 0.0
        q = tail_mass_from(rho, d / s) if d / s <= t_max else 0.0
        # self-convolution of the current grid density at each grid point,
        # folded to the positive axis
        conv = np.empty_like(rho)
        u = grid
        w_u = rho
        for i, t in enumerate(grid):
            f1 = interp(rho, np.abs((t - u * s) / c))
            f2 = interp(rho, np.abs((t + u * s) / c))
            conv[i] = np.trapezoid(w_u * (f1 + f2), u) / c
        r = tail_mass_from(conv, d) / max(total_mass(conv), 1e-300)
        conv_trunc = conv / max(total_mass(conv), 1e-300)
        numer = (
            (1.0 - phi) * rho
            + (phi - eta) * (p * interp(rho, grid / c) / c + q * interp(rho, grid / s) / s)
            + eta * conv_trunc
        )
        denom = 1.0 - phi + (phi - eta) * (p + q) + eta * r
        rho = numer / denom
        mass = total_mass(rho)
        if mass > 0:
            rho = rho / mass
    return grid, rho
