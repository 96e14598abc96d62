"""Branching-and-merging propagation of an observable through a circuit.

Each Pauli rotation partitions the current rows by commutation with the gate
generator.  Commuting rows pass through; anti-commuting rows rotate in the
(P, iσP) plane, merging with the partner row when it already exists and
branching a new row otherwise.  The angle's exact quarter turns are folded
into that one rotation's cos and sin, so every coefficient gets a single
update.  The coefficient threshold is applied to the observable once on
entry and then once per gate; a gate that at most flips signs (no
anti-commuting row, or a multiple of pi) skips it.

Rows are kept in canonical packed order throughout, which makes every run
bit-identical.  Each gate is composed from vectorized numpy pieces over the
bit kernels in :mod:`pauliprop.kernels`; all float updates are elementwise.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .circuits import Circuit
from .pauli import InvariantViolation, PauliError, PauliString
from .sums import PauliSum

__all__ = [
    "GateStats",
    "TraceLog",
    "BudgetExceeded",
    "RowCapExceeded",
    "DEFAULT_ROW_CAP",
    "apply_rotation",
    "evolve",
    "expectation",
]

_HALF_PI = math.pi / 2.0
# exact (cos, sin) of q quarter turns
_QUARTER_TURNS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))

DEFAULT_ROW_CAP = 2**31


class BudgetExceeded(RuntimeError):
    """Wall-clock budget ran out; carries the partial trace and state."""

    def __init__(self, message, trace=None, partial=None):
        super().__init__(message)
        self.trace = trace
        self.partial = partial


class RowCapExceeded(RuntimeError):
    """Row count would exceed the cap; carries the partial trace and state."""

    def __init__(self, message, trace=None, partial=None):
        super().__init__(message)
        self.trace = trace
        self.partial = partial


@dataclass
class GateStats:
    """Per-gate telemetry."""

    k: int
    theta: float
    phi: float
    eta: float
    n_before: int
    n_after: int
    truncated: int
    norm_after: float
    elapsed_ns: int


@dataclass
class TraceLog:
    """Telemetry for one evolution run."""

    n: int
    delta: float
    initial_norm: float
    gates: list[GateStats] = field(default_factory=list)
    snapshots: dict[int, PauliSum] = field(default_factory=dict)
    peak_snapshot: tuple[int, PauliSum] | None = None
    aborted: str | None = None

    @property
    def n_max(self) -> int:
        if not self.gates:
            return 0
        return max(g.n_after for g in self.gates)

    @property
    def k_star(self) -> int:
        """1-based gate index achieving n_max (first occurrence)."""
        if not self.gates:
            return 0
        best = max(g.n_after for g in self.gates)
        for g in self.gates:
            if g.n_after == best:
                return g.k
        return 0

    def finalize(self) -> None:
        """Check the trivial memory bound N_max <= ||O||^2 / delta^2."""
        if self.delta > 0 and self.gates:
            bound = (self.initial_norm / self.delta) ** 2
            if self.n_max > bound * (1.0 + 1e-9):
                raise InvariantViolation(
                    f"N_max={self.n_max} exceeds trivial bound {bound:.6g} "
                    f"(norm={self.initial_norm}, delta={self.delta})"
                )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["k", "theta", "phi", "eta", "n_before", "n_after", "truncated", "norm", "elapsed_ns"]
            )
            for g in self.gates:
                writer.writerow(
                    [g.k, repr(g.theta), repr(g.phi), repr(g.eta), g.n_before, g.n_after,
                     g.truncated, repr(g.norm_after), g.elapsed_ns]
                )

    @classmethod
    def from_csv(cls, path, n: int = 0, delta: float = 0.0, initial_norm: float = 1.0) -> "TraceLog":
        out = cls(n=n, delta=delta, initial_norm=initial_norm)
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                out.gates.append(
                    GateStats(
                        k=int(row["k"]), theta=float(row["theta"]), phi=float(row["phi"]),
                        eta=float(row["eta"]), n_before=int(row["n_before"]),
                        n_after=int(row["n_after"]), truncated=int(row["truncated"]),
                        norm_after=float(row["norm"]), elapsed_ns=int(row["elapsed_ns"]),
                    )
                )
        return out

    def summary(self, expectation=None) -> dict:
        out = {
            "n_qubits": self.n,
            "delta": self.delta,
            "initial_norm": self.initial_norm,
            "gates": len(self.gates),
            "n_max": self.n_max,
            "k_star": self.k_star,
            "aborted": self.aborted,
        }
        if expectation is not None:
            out["expectation"] = expectation
        return out


# ---------------------------------------------------------------------------
# generator preparation
# ---------------------------------------------------------------------------


def _prepare_generator(sigma: PauliString, n: int):
    """Packed words, canonical alpha, orientation, and support flag.

    A generator whose alpha differs from canonical by 2 represents the
    negated plain string; rotating about -sigma by theta equals rotating
    about sigma by -theta.
    """
    if sigma.n != n:
        raise PauliError(f"generator acts on {sigma.n} qubits, observable has {n}")
    words = sigma.nu_words()
    canon = sigma.canonical_alpha()
    diff = (sigma.alpha - canon) % 4
    if diff == 0:
        orientation = 1.0
    elif diff == 2:
        orientation = -1.0
    else:
        raise PauliError(
            f"generator {sigma!r} is not Hermitian (phase offset {diff}); cannot rotate about it"
        )
    return words, canon, orientation, bool(words.any())


# ---------------------------------------------------------------------------
# gate path on canonically sorted arrays
# ---------------------------------------------------------------------------


def _merge_arrays(bits, coeffs, new_bits, new_coeffs, pos):
    """Insert a sorted new block at the given searchsorted positions."""
    n, m = len(coeffs), len(new_coeffs)
    width = bits.shape[1]
    out_bits = np.empty((n + m, width), np.uint64)
    out_coeffs = np.empty(n + m, np.float64)
    new_at = pos + np.arange(m)
    old_mask = np.ones(n + m, bool)
    old_mask[new_at] = False
    out_bits[new_at] = new_bits
    out_coeffs[new_at] = new_coeffs
    out_bits[old_mask] = bits
    out_coeffs[old_mask] = coeffs
    return out_bits, out_coeffs


def _threshold(bits, coeffs, delta):
    """Keep rows with |c| >= delta (nonzero rows at delta = 0); also the drop count."""
    keep = np.abs(coeffs) >= delta if delta > 0 else coeffs != 0.0
    dropped = int(len(coeffs) - np.count_nonzero(keep))
    if dropped:
        bits = np.ascontiguousarray(bits[keep])
        coeffs = coeffs[keep]
    return bits, coeffs, dropped


def _scan(bits, words):
    """Anti-commuting row slots and their partner slots.

    A partner slot is -1 when the row bits ^ words is absent; the partner
    search is skipped (pos is None) when no row anti-commutes.
    """
    anti_idx = np.flatnonzero(kernels.anti_mask(bits, words))
    pos = kernels.find_rows(bits, bits[anti_idx] ^ words) if len(anti_idx) else None
    return anti_idx, pos


def _gate(bits, coeffs, prep, theta, delta, row_cap):
    """One gate on canonically sorted arrays whose rows all pass the threshold.

    Returns (bits, coeffs, phi, eta, truncated, cap_exceeded); on a cap the
    arrays are returned untouched.
    """
    words, canon, orientation, has_support = prep
    n_rows = len(coeffs)
    if n_rows == 0 or not has_support:
        return bits, coeffs, 0.0, 0.0, 0, False
    anti_idx, pos = _scan(bits, words)
    n_anti = len(anti_idx)
    if n_anti == 0:
        return bits, coeffs, 0.0, 0.0, 0, False
    paired = pos >= 0
    n_paired = int(np.count_nonzero(paired))
    phi, eta = n_anti / n_rows, n_paired / n_rows

    # theta = q*(pi/2) + residual with |residual| <= pi/4, applied as one
    # rotation: the quarter-turn factors are 0 or +-1, so composing is exact
    angle = orientation * theta
    q = round(angle / _HALF_PI)
    residual = angle - q * _HALF_PI
    cq, sq = _QUARTER_TURNS[q % 4]
    cos_r, sin_r = math.cos(residual), math.sin(residual)
    cos_t = cq * cos_r - sq * sin_r
    sin_t = sq * cos_r + cq * sin_r
    if sin_t == 0.0:  # a multiple of pi: identity or a sign flip
        if cos_t < 0.0:
            coeffs[anti_idx] *= cos_t
        return bits, coeffs, phi, eta, 0, False

    n_unpaired = n_anti - n_paired
    # an exact odd quarter turn moves each unpaired row onto its branch
    vacated = n_unpaired if cos_t == 0.0 else 0
    if n_rows + n_unpaired - vacated > row_cap:
        return bits, coeffs, phi, eta, 0, True
    signs = kernels.branch_signs(bits[anti_idx], words, canon)
    if np.any(signs == 0):
        raise InvariantViolation("non-Hermitian branch phase; state is corrupt")
    signs = signs.astype(np.float64)

    # the branched rows: thresholded, then sorted for the merge
    unpaired_rows = anti_idx[~paired]
    new_bits, new_coeffs, new_dropped = _threshold(
        bits[unpaired_rows] ^ words, coeffs[unpaired_rows] * (sin_t * signs[~paired]), delta
    )
    if len(new_coeffs):
        order = kernels.sort_order(new_bits)
        new_bits = np.ascontiguousarray(new_bits[order])
        new_coeffs = new_coeffs[order]

    if n_paired:
        paired_rows = anti_idx[paired]
        # partner of an anti row carries the opposite branch sign
        coeffs[paired_rows] = (
            coeffs[paired_rows] * cos_t + coeffs[pos[paired]] * (sin_t * -signs[paired])
        )
    coeffs[unpaired_rows] *= cos_t
    # both blocks are thresholded before the merge, so the merged copy never
    # holds a row that is about to be dropped
    bits, coeffs, dropped = _threshold(bits, coeffs, delta)
    if len(new_coeffs):
        ins = kernels.lower_bound(bits, new_bits)
        bits, coeffs = _merge_arrays(bits, coeffs, new_bits, new_coeffs, ins)
    return bits, coeffs, phi, eta, dropped + new_dropped - vacated, False


def apply_rotation(
    s: PauliSum, sigma: PauliString, theta: float, delta: float, row_cap: int | None = None
) -> tuple[PauliSum, GateStats]:
    """Apply one Pauli rotation with post-gate truncation.

    An :func:`evolve` over a one-gate circuit; returns the new PauliSum and
    the gate stats.
    """
    final, trace = evolve(Circuit(n=s.n, gates=((sigma, theta),)), s, delta, row_cap=row_cap)
    return final, trace.gates[0]


def evolve(
    circuit: Circuit,
    observable: PauliSum,
    delta: float,
    snapshot_gates=(),
    snapshot_steps: bool = False,
    track_peak_snapshot: bool = False,
    budget_s: float | None = None,
    row_cap: int | None = None,
) -> tuple[PauliSum, TraceLog]:
    """Propagate the observable through the whole circuit (Heisenberg order).

    Parameters
    ----------
    snapshot_gates : sequence of int
        1-based gate indices at which to store coefficient snapshots.
    snapshot_steps : bool
        Additionally snapshot at end-of-Trotter-step boundaries when the
        circuit metadata records ``gates_per_step``.
    track_peak_snapshot : bool
        Keep a rolling snapshot of the gate achieving the running N_max.
    budget_s : float, optional
        Wall-clock budget; exceeding it raises BudgetExceeded carrying the
        partial trace.
    row_cap : int, optional
        Hard cap on row count (default DEFAULT_ROW_CAP); exceeding it
        raises RowCapExceeded carrying the partial trace.
    """
    if circuit.n != observable.n:
        raise PauliError(f"circuit n={circuit.n} vs observable n={observable.n}")
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    cap = DEFAULT_ROW_CAP if row_cap is None else row_cap
    n = circuit.n

    snap_at = set(int(k) for k in snapshot_gates)
    if snapshot_steps:
        per_step = int(circuit.metadata.get("gates_per_step", 0))
        if per_step > 0:
            snap_at.update(range(per_step, len(circuit.gates) + 1, per_step))
    instrumented = bool(snap_at) or track_peak_snapshot

    # one prep per unique generator, resolved to a flat per-gate list
    prep_cache: dict[int, tuple] = {}
    preps = []
    for sigma, _theta in circuit.gates:
        prep = prep_cache.get(id(sigma))
        if prep is None:
            prep = _prepare_generator(sigma, n)
            prep_cache[id(sigma)] = prep
        preps.append(prep)

    trace = TraceLog(n=n, delta=delta, initial_norm=observable.raw_norm())
    # the gate writes coefficients in place and never bits, so only the
    # coefficients are copied, here and for snapshots; the threshold runs
    # once on entry so every row reaching a gate already passes it
    bits, coeffs, _ = _threshold(observable.bits, observable.coeffs.copy(), delta)

    gates = trace.gates
    peak = -1
    t0 = time.monotonic()
    deadline = None if budget_s is None else t0 + budget_s

    for k, (sigma, theta) in enumerate(circuit.gates, start=1):
        if deadline is not None and time.monotonic() > deadline:
            trace.aborted = "budget"
            raise BudgetExceeded(
                f"budget {budget_s}s exhausted at gate {k}/{len(circuit.gates)}",
                trace=trace,
                partial=PauliSum(n, bits, coeffs),
            )
        gate_start = time.perf_counter_ns()
        n_before = len(coeffs)
        bits, coeffs, phi, eta, truncated, capped = _gate(
            bits, coeffs, preps[k - 1], theta, delta, cap
        )
        if capped:
            trace.aborted = "row_cap"
            raise RowCapExceeded(
                f"row cap {cap} exceeded at gate {k}/{len(circuit.gates)}",
                trace=trace,
                partial=PauliSum(n, bits, coeffs),
            )
        norm_after = math.sqrt(float(np.dot(coeffs, coeffs)))
        gates.append(
            GateStats(
                k=k, theta=theta, phi=phi, eta=eta, n_before=n_before, n_after=len(coeffs),
                truncated=truncated, norm_after=norm_after,
                elapsed_ns=time.perf_counter_ns() - gate_start,
            )
        )
        if instrumented:
            if k in snap_at:
                trace.snapshots[k] = PauliSum(n, bits, coeffs.copy())
            if track_peak_snapshot and len(coeffs) > peak:
                peak = len(coeffs)
                trace.peak_snapshot = (k, PauliSum(n, bits, coeffs.copy()))

    trace.finalize()
    return PauliSum(n, bits, coeffs), trace


def expectation(s: PauliSum) -> float:
    """<0...0| O |0...0>: sum of coefficients over Z-type rows."""
    mask = s.z_type_mask()
    if not mask.any():
        return 0.0
    return float(np.sum(s.coeffs[mask]))
