"""Branching-and-merging propagation of an observable through a circuit.

Each Pauli rotation partitions the current rows by commutation with the gate
generator.  Commuting rows pass through; anti-commuting rows rotate in the
(P, iσP) plane, merging with the partner row when it already exists and
branching a new row otherwise.  :func:`evolve` splits each angle once into q
quarter turns and a residual |r| <= pi/4, and only the residual moves rows.
The coefficient threshold is applied to the observable once on entry and
then, per gate, only to the rows the gate changed: the anti-commuting rows
and their new branches.

Quarter turns are Clifford maps: they only relabel rows and flip signs, and
truncate nothing.  :func:`evolve` absorbs a gate's q quarter turns into a
Clifford frame (:mod:`pauliprop.frame`) instead of moving rows, after
rotating by the residual about the framed generator Φ⁻¹(σ), Φ⁻¹'s sign taken
into the rotation's sin; every state that leaves is unframed and sorted
canonically.  A gate whose angle is a whole number of quarter turns only
counts the framed state's anti-commuting rows, for phi, and repeats the
previous norm.  It searches for no partner: a quarter turn swaps each pair
and a half turn keeps it, so eta carries nothing and is recorded as None,
not measured.  Until the first absorb there is no frame.

Idle gates are skipped without touching a row.  :func:`evolve` keeps a
light cone, one int in a string's own coordinates: the OR over every true
row of x | z << n, its halves swapped.  A row P can anti-commute with a
generator sigma only if x_P & z_sigma or z_P & x_sigma is nonzero, that is
only if the cone shares a bit with z_sigma | x_sigma << n; a generator that
misses the cone has no anti-commuting row, and its gate is recorded with
phi = eta = 0 and the previous norm.  A gate adds only rows P ^ sigma, so
after each active gate, absorbed or not, the cone takes in the generator's
swapped bits x_sigma | z_sigma << n; truncation can leave the cone larger
than the state, never smaller.  The cone and its test use the unframed
generator, so a generator is framed only for gates that pass it.

Rows are kept in canonical packed order throughout, which makes every run
bit-identical.  Each gate is composed from vectorized numpy pieces over the
bit kernels in :mod:`pauliprop.kernels`; all float updates are elementwise.
A rotation reads its anti-commuting rows' coefficients once, into a buffer
that ends in one 0.0, and writes them back once.  The scan gives each anti
row its partner P ^ sigma as an index into that buffer, -1 (the 0.0) when
the partner is absent, so one update c cos - c_partner sin sign serves
every anti row: an unpaired row subtracts a zero from its nonzero c cos,
which leaves c cos bit for bit.  The branches' coefficients come from the
same buffer.  Small gates cost their numpy calls more than their rows, so
the gate path makes as few calls as it can.

Inside :func:`evolve` every word is stored byte-swapped, big-endian in
memory, so a row's bytes are its sort key: the state's words are swapped
once on entry and a generator's once when it is prepared.  Every row move in
a gate (the scan's gathers and the splice) moves each row as one fixed-width
item.  The splice builds the next state in one copy: one gather of the kept
rows, with the dropped rows left out, then one scatter of the new rows into
their places.

Every state leaves :func:`evolve` as a :class:`GateState`, which hides the
frame and the keyed layout: the final state, a stop's partial state, and the
state an ``on_gate`` hook is handed after each gate.  What to keep of them
(snapshots, the peak) is the hook's choice; the engine keeps none.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, get_type_hints

import numpy as np

from . import frame as clifford
from . import kernels
from .circuits import Circuit
from .files import read_csv, write_csv
from .pauli import InvariantViolation, PauliError, PauliString, _qubits
from .sums import PauliSum, pairwise_dot

__all__ = [
    "GateStats",
    "GateState",
    "TraceLog",
    "read_trace",
    "Aborted",
    "BudgetExceeded",
    "RowCapExceeded",
    "DEFAULT_ROW_CAP",
    "apply_rotation",
    "evolve",
    "expectation",
    "trivial_bound",
]

_HALF_PI = math.pi / 2.0

DEFAULT_ROW_CAP = 2**31


class Aborted(RuntimeError):
    """A run stopped at a limit; carries the partial trace and state, if any.

    Each subclass names its limit in ``reason``, the value of
    ``TraceLog.aborted`` and of a manifest's ``aborted``.
    """

    def __init__(self, message, trace=None, partial=None):
        super().__init__(message)
        self.trace = trace
        self.partial = partial


class BudgetExceeded(Aborted):
    """The wall-clock budget ran out."""

    reason = "budget"


class RowCapExceeded(Aborted):
    """The row count would exceed the cap."""

    reason = "row_cap"


def trivial_bound(norm: float, delta: float) -> float:
    """N_max <= ||O||^2 / delta^2."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return (norm / delta) ** 2


@dataclass
class GateStats:
    """Per-gate telemetry: one trace CSV row, its fields the columns."""

    k: int
    theta: float
    phi: float
    eta: float | None  # None where not measured: at a whole number of quarter turns
    n_before: int
    n_after: int
    truncated: int
    norm: float  # after the gate
    elapsed_ns: int


# each trace CSV column and the type of its cells; csv writes None as an empty cell
_TRACE_COLUMNS = get_type_hints(GateStats) | {"eta": lambda cell: float(cell) if cell else None}


def read_trace(path) -> list[GateStats]:
    """The gates of a trace CSV, which needs every column."""
    return [GateStats(*row) for row in read_csv(path, _TRACE_COLUMNS)]


@dataclass
class TraceLog:
    """Telemetry for one evolution run."""

    n: int
    delta: float
    initial_norm: float
    gates: list[GateStats] = field(default_factory=list)
    aborted: str | None = None

    @property
    def n_max(self) -> int:
        return max((g.n_after for g in self.gates), default=0)

    @property
    def k_star(self) -> int:
        """1-based gate index achieving n_max (first occurrence)."""
        return max(self.gates, key=lambda g: g.n_after).k if self.gates else 0

    def finalize(self) -> None:
        """Check the trivial memory bound N_max <= ||O||^2 / delta^2."""
        if self.delta > 0 and self.gates:
            bound = trivial_bound(self.initial_norm, self.delta)
            if self.n_max > bound * (1.0 + 1e-9):
                raise InvariantViolation(
                    f"N_max={self.n_max} exceeds trivial bound {bound:.6g} "
                    f"(norm={self.initial_norm}, delta={self.delta})"
                )

    def to_csv(self, path) -> None:
        write_csv(path, _TRACE_COLUMNS, (vars(g).values() for g in self.gates))

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
            # a stopped run's value is of a mid-circuit state, not the answer
            out["partial_expectation" if self.aborted else "expectation"] = expectation
        return out


# ---------------------------------------------------------------------------
# generator preparation
# ---------------------------------------------------------------------------


class _Generator(NamedTuple):
    """A gate generator prepared once per unique PauliString, in true coordinates.

    A framed gate rotates about :meth:`pauliprop.frame.Frame.framed`'s words,
    canonical alpha and sign in place of the first three fields.
    """

    words: np.ndarray
    canon: int
    orientation: float
    mask: int  # z | x << n, for the light-cone test
    cross_mask: int  # x | z << n, the bits the gate adds to the cone
    rows: tuple[int, ...]  # tableau rows of its letters: Z_q at q, then X_q at n + q
    anti_rows: tuple[int, ...]  # tableau rows of the generators it anti-commutes with


@functools.cache
def _row_item(width):
    """The dtype of one row of ``width`` words as a single void item."""
    return np.dtype(f"V{8 * width}")


def _rows(bits):
    """The rows as one fixed-width void item each, for single-item moves."""
    return bits.view(_row_item(bits.shape[1])).ravel()


def _take(bits, index):
    """bits[index] (slots or a mask), moving each row as one item.

    take and compress move void items about three times faster than fancy
    indexing does.
    """
    rows = _rows(bits)
    picked = rows.compress(index) if index.dtype == bool else rows.take(index)
    return picked.view(np.uint64).reshape(-1, bits.shape[1])


def _prepare_generator(sigma: PauliString, n: int) -> _Generator:
    """Keyed (byte-swapped) words, canonical alpha, orientation, and light-cone masks.

    A generator whose alpha differs from canonical by 2 represents the
    negated plain string; rotating about -sigma by theta equals rotating
    about sigma by -theta.
    """
    if sigma.n != n:
        raise PauliError(f"generator acts on {sigma.n} qubits, observable has {n}")
    words = sigma.nu_words().byteswap()
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
    z, x = _qubits(sigma.z), _qubits(sigma.x)
    return _Generator(
        words, canon, orientation, sigma.z | sigma.x << n, sigma.x | sigma.z << n,
        rows=tuple(z + [n + q for q in x]), anti_rows=tuple(x + [n + q for q in z]),
    )


class GateState:
    """A read-only handle on :func:`evolve`'s state, hiding the frame and the keyed layout.

    The handle an ``on_gate`` hook is given reads evolve's own arrays, which
    the next gate changes: :meth:`copy` keeps the state past the hook.
    """

    def __init__(self, n, bits, coeffs, frame, owned=False):
        self.n, self._bits, self._coeffs, self._frame, self._owned = n, bits, coeffs, frame, owned

    def copy(self) -> "GateState":
        """This state, kept in arrays of its own."""
        frame = None if self._frame is None else self._frame.copy()
        return GateState(self.n, self._bits.copy(), self._coeffs.copy(), frame, owned=True)

    def pauli_sum(self) -> PauliSum:
        """The true state, unframed and sorted; a copy's arrays become it, so it is read once."""
        bits, coeffs, frame, owned = self._bits, self._coeffs, self._frame, self._owned
        if bits is None:
            raise RuntimeError("a copied state is read once")
        if owned:
            self._bits = self._coeffs = self._frame = None
        if frame is not None:
            bits, coeffs = frame.unframe(bits, coeffs, owned)
        elif not owned:
            bits, coeffs = bits.copy(), coeffs.copy()
        return PauliSum(self.n, bits.byteswap(inplace=True), coeffs)


# ---------------------------------------------------------------------------
# gate path on canonically sorted arrays
# ---------------------------------------------------------------------------


def _passes(coeffs, delta):
    """Rows with |c| >= delta (nonzero rows at delta = 0)."""
    return np.abs(coeffs) >= delta if delta > 0 else coeffs != 0.0


def _threshold(bits, coeffs, delta):
    """Keep the rows that pass the threshold; also the drop count."""
    keep = _passes(coeffs, delta)
    dropped = int(len(coeffs) - np.count_nonzero(keep))
    if dropped:
        bits = _take(bits, keep)
        coeffs = coeffs[keep]
    return bits, coeffs, dropped


def _scan(bits, words):
    """Anti-commuting row slots, those rows, and each one's partner.

    A partner is a local index into the anti rows, -1 when the row
    bits ^ words is absent; partner is None when no row anti-commutes.  A
    partner anti-commutes too (<P ^ s, s> = <P, s> + <s, s>), and it differs
    from its row in every bit of the generator.  So the anti rows are split by
    one such bit, the smaller side's partners are searched for in the other
    side (both ascend), and each pair found writes the partner of both its
    rows.
    """
    anti_idx = kernels.anti_mask(bits, words).nonzero()[0]
    anti_bits = _take(bits, anti_idx)
    partner = None
    if len(anti_idx):
        col = int(words.nonzero()[0][0])  # some row anti-commutes, so words is nonzero
        word = int(words[col])
        split = anti_bits[:, col] & np.uint64(word & -word)
        ones, zeros = split.nonzero()[0], (split == 0).nonzero()[0]
        small, large = (ones, zeros) if len(ones) <= len(zeros) else (zeros, ones)
        partner = np.full(len(anti_idx), -1, np.int64)
        if len(small):
            queries = _take(anti_bits, small)
            queries ^= words
            hit = kernels.find_rows(_take(anti_bits, large), queries)
            found = hit >= 0
            small, large = small.compress(found), large.take(hit.compress(found))
            partner[small] = large
            partner[large] = small
    return anti_idx, anti_bits, partner


def _splice(bits, coeffs, changed, delta, new_bits, new_coeffs):
    """Drop the rows at the ascending slots changed that fail the threshold,
    and insert a sorted block of rows absent from the state, in one copy.

    Every other row must pass the threshold.  Returns the arrays, untouched
    when no row moves, and the drop count.  A new row's lower bound in the
    state before the drops, less the drops below it, is the kept row it goes
    before.  Each output row has one source slot; the new rows' slots are
    placeholders, overwritten after the gather.
    """
    drops = changed.compress(~_passes(coeffs.take(changed), delta))
    n_new = len(new_coeffs)
    if not (len(drops) or n_new):
        return bits, coeffs, 0
    at = np.empty(0, np.int64)
    if n_new:
        ins = kernels.lower_bound(bits, new_bits)
        at = ins - drops.searchsorted(ins) + np.arange(n_new)
    kept = np.ones(len(coeffs), bool)
    kept[drops] = False
    old_at = np.ones(len(coeffs) - len(drops) + n_new, bool)
    old_at[at] = False
    src = np.zeros(len(old_at), np.intp)
    src[old_at] = kept.nonzero()[0]
    out_bits, out_coeffs = _take(bits, src), coeffs.take(src)
    _rows(out_bits)[at] = _rows(new_bits)
    out_coeffs[at] = new_coeffs
    return out_bits, out_coeffs, len(drops)


def _split(angle):
    """(q, r): angle = q quarter turns + residual r, |r| <= pi/4.

    r is exactly 0.0 for a whole number of quarter turns and only then, and
    -angle splits to (-q, -r).
    """
    q = round(angle / _HALF_PI)
    return q, angle - q * _HALF_PI


def _gate(bits, coeffs, words, canon, cos_t, sin_t, delta, row_cap):
    """One rotation on canonically sorted arrays whose rows all pass the threshold.

    The angle comes as (cos_t, sin_t), a residual's in :func:`evolve`; the
    generator is the one of keyed ``words`` and canonical alpha ``canon``.
    Returns (bits, coeffs, phi, eta, truncated, cap_exceeded); on a cap the
    arrays are returned untouched.
    """
    n_rows = len(coeffs)
    anti_idx, anti_bits, partner = _scan(bits, words)
    n_anti = len(anti_idx)
    if n_anti == 0:
        return bits, coeffs, 0.0, 0.0, 0, False
    unpaired = partner < 0
    n_unpaired = int(np.count_nonzero(unpaired))
    phi, eta = n_anti / n_rows, (n_anti - n_unpaired) / n_rows
    if n_rows + n_unpaired > row_cap:
        return bits, coeffs, phi, eta, 0, True
    signs = kernels.branch_signs(anti_bits, words, canon)
    if not signs.all():
        raise InvariantViolation("non-Hermitian branch phase; state is corrupt")
    signs *= sin_t  # exact: each sign is +-1.0

    # the anti rows' coefficients, then the 0.0 that partner -1 reads
    anti_coeffs = np.empty(n_anti + 1)
    coeffs.take(anti_idx, out=anti_coeffs[:-1])
    anti_coeffs[-1] = 0.0

    # the branches of the unpaired rows that pass the threshold, sorted for
    # the splice
    branch_coeffs = anti_coeffs[:-1] * signs
    branches = unpaired & _passes(branch_coeffs, delta)
    new_bits = _take(anti_bits, branches)
    new_bits ^= words
    new_coeffs = branch_coeffs.compress(branches)
    new_dropped = n_unpaired - len(new_coeffs)
    # free the gathered rows before the splice, which sets the peak memory
    # of the gate
    del anti_bits, branch_coeffs
    if len(new_coeffs):
        order = kernels.sort_order(new_bits)
        new_bits = _take(new_bits, order)
        new_coeffs = new_coeffs.take(order)

    # c cos - c_partner sin sign: a partner carries the opposite branch sign,
    # and an unpaired row subtracts a zero from its nonzero c cos
    rotated = anti_coeffs[:-1] * cos_t
    signs *= anti_coeffs.take(partner)
    rotated -= signs
    coeffs.put(anti_idx, rotated)
    # only the anti rows' coefficients changed
    bits, coeffs, dropped = _splice(bits, coeffs, anti_idx, delta, new_bits, new_coeffs)
    return bits, coeffs, phi, eta, dropped + new_dropped, False


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
    budget_s: float | None = None,
    row_cap: int | None = None,
    on_gate=None,
) -> tuple[PauliSum, TraceLog]:
    """Propagate the observable through the whole circuit (Heisenberg order).

    Only the circuit's gates are read, never its metadata.

    Parameters
    ----------
    budget_s : float, optional
        Wall-clock budget; exceeding it raises BudgetExceeded carrying the
        partial trace.
    row_cap : int, optional
        Hard cap on row count (default DEFAULT_ROW_CAP), checked on the
        thresholded observable and at every gate that adds rows; exceeding
        it raises RowCapExceeded carrying the partial trace.
    on_gate : callable, optional
        Called as ``on_gate(stats, state)`` after each gate with its GateStats
        and a GateState; its time counts toward ``budget_s``, not ``elapsed_ns``.
    """
    if circuit.n != observable.n:
        raise PauliError(f"circuit n={circuit.n} vs observable n={observable.n}")
    if not 0 <= delta < math.inf:  # each limit's test fails on NaN and on inf
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    if budget_s is not None and not math.isfinite(budget_s):
        raise ValueError(f"budget_s must be a finite number of seconds, got {budget_s}")
    if row_cap is not None and row_cap < 0:
        raise ValueError(f"row_cap must be >= 0, got {row_cap}")
    cap = DEFAULT_ROW_CAP if row_cap is None else row_cap
    n = circuit.n

    # one prep per unique generator, resolved to a flat per-gate list
    prep_cache: dict[int, _Generator] = {}
    preps = []
    for sigma, _theta in circuit.gates:
        prep = prep_cache.get(id(sigma))
        if prep is None:
            prep = _prepare_generator(sigma, n)
            prep_cache[id(sigma)] = prep
        preps.append(prep)

    trace = TraceLog(n=n, delta=delta, initial_norm=observable.raw_norm())
    # the keyed copy of the words and the coefficient copy are evolve's own;
    # the threshold runs once on entry so every row reaching a gate already
    # passes it
    bits, coeffs, _ = _threshold(observable.bits.byteswap(), observable.coeffs.copy(), delta)
    norm = math.sqrt(pairwise_dot(coeffs, coeffs))
    reach = PauliString.from_words(n, *np.bitwise_or.reduce(bits, axis=0).byteswap().reshape(2, -1))
    cone = reach.x | reach.z << n  # the OR of the thresholded rows, halves swapped
    frame = None  # made at the first absorb

    t0 = time.monotonic()
    deadline = None if budget_s is None else t0 + budget_s

    def stop(error, message):
        trace.aborted = error.reason
        partial = GateState(n, bits, coeffs, frame, owned=True).pauli_sum()
        return error(message, trace=trace, partial=partial)

    # the one check of the cap outside _gate, which checks every growth
    if len(coeffs) > cap:
        raise stop(RowCapExceeded, f"row cap {cap} exceeded on entry by {len(coeffs)} rows")

    for k, (sigma, theta) in enumerate(circuit.gates, start=1):
        if deadline is not None and time.monotonic() > deadline:
            raise stop(BudgetExceeded, f"budget {budget_s}s exhausted at gate {k}/{len(preps)}")
        gate_start = time.perf_counter_ns()
        n_before = len(coeffs)
        prep = preps[k - 1]
        phi, eta, truncated = 0.0, 0.0, 0
        if cone & prep.mask:  # else outside the light cone: no row anti-commutes
            q, r = _split(prep.orientation * theta)
            # Φ⁻¹(sigma) = sign * (words, canon); the sign goes onto sin exactly
            words, canon, sign = prep[:2] + (1.0,) if frame is None else frame.framed(prep)
            if r:
                bits, coeffs, phi, eta, truncated, capped = _gate(
                    bits, coeffs, words, canon, math.cos(r), sign * math.sin(r), delta, cap
                )
                if capped:
                    raise stop(RowCapExceeded, f"row cap {cap} exceeded at gate {k}/{len(preps)}")
                if phi > 0.0:  # with phi = 0 nothing changed
                    norm = math.sqrt(pairwise_dot(coeffs, coeffs))
            else:  # rows relabelled with flipped signs keep the norm
                n_anti = int(np.count_nonzero(kernels.anti_mask(bits, words)))
                if n_anti:  # pairs only swap or stay: eta is not measured
                    phi, eta = n_anti / n_before, None
            if phi > 0.0:
                if q % 4:  # the quarter turns go into the frame, so no row moves
                    if frame is None:
                        frame = clifford.Frame(n)
                    frame.absorb(prep, q)
                cone |= prep.cross_mask  # a gate adds only rows P ^ sigma
        # positional: keywords cost about twice as much per trace row
        stats = GateStats(k, theta, phi, eta, n_before, len(coeffs), truncated, norm,
                          time.perf_counter_ns() - gate_start)
        trace.gates.append(stats)
        if on_gate is not None:
            on_gate(stats, GateState(n, bits, coeffs, frame))

    trace.finalize()
    return GateState(n, bits, coeffs, frame, owned=True).pauli_sum(), trace


def expectation(s: PauliSum) -> float:
    """<0...0| O |0...0>: sum of coefficients over Z-type rows (0.0 when there is none)."""
    return float(np.sum(s.coeffs[s.z_type_mask()]))
