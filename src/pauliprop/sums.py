"""Sparse real-coefficient sums of Pauli strings.

Rows are keyed by the packed symplectic vector nu; coefficients are stored
in canonical real form (the coefficient of the plain-letter Pauli operator,
with any (-i)^alpha prefix folded out at insertion).  This keeps the whole
rotation update in pure real arithmetic.
"""

from __future__ import annotations

import csv

import numpy as np

from . import kernels
from .pauli import PauliError, PauliString, canonical_real_coefficient, words_per_half

__all__ = ["PauliSum", "RowCapExceeded", "truncate_arrays", "DEFAULT_ROW_CAP"]

DEFAULT_ROW_CAP = 2**31


class RowCapExceeded(RuntimeError):
    """Row count would exceed the configured hard cap.

    Raised mid-evolution it carries the partial trace and state.
    """

    def __init__(self, message, trace=None, partial=None):
        super().__init__(message)
        self.trace = trace
        self.partial = partial


def truncate_arrays(bits, coeffs, delta):
    """Drop rows with |c| < delta (exact zeros always go).

    Returns (bits, coeffs, removed_count).  Rows at exactly delta survive.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    keep = np.abs(coeffs) >= delta if delta > 0 else coeffs != 0.0
    removed = int(len(coeffs) - keep.sum())
    if removed == 0:
        return bits, coeffs, 0
    return bits[keep], coeffs[keep], removed


class PauliSum:
    """Sparse observable: one row per unique Pauli string.

    Single-writer: concurrent readers are fine, but mutation is not
    synchronized and the array views returned by properties must not be
    written to.

    Parameters
    ----------
    n : int
        Qubit count.
    row_cap : int
        Hard cap on row count; exceeding it raises RowCapExceeded instead
        of thrashing.
    """

    def __init__(self, n: int, row_cap: int = DEFAULT_ROW_CAP):
        if n <= 0:
            raise PauliError(f"qubit count must be positive, got {n}")
        self.n = n
        self.width = 2 * words_per_half(n)
        self.row_cap = row_cap
        self._bits = np.zeros((0, self.width), dtype=np.uint64)
        self._coeffs = np.zeros(0, dtype=np.float64)
        self._size = 0
        self._index: dict | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, n: int, terms, row_cap: int = DEFAULT_ROW_CAP) -> "PauliSum":
        """Build from (label-or-PauliString, coefficient) pairs."""
        out = cls(n, row_cap=row_cap)
        for p, c in terms:
            if isinstance(p, str):
                p = PauliString.from_label(p, n)
            out.insert_or_accumulate(p, c)
        return out

    @classmethod
    def _from_arrays(cls, n: int, bits, coeffs, row_cap: int = DEFAULT_ROW_CAP) -> "PauliSum":
        """Wrap trusted arrays (unique rows, no zero coefficients)."""
        out = cls(n, row_cap=row_cap)
        out._bits = np.ascontiguousarray(bits, dtype=np.uint64)
        out._coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
        out._size = len(out._coeffs)
        return out

    # -- views -------------------------------------------------------------

    @property
    def bits(self) -> np.ndarray:
        """Packed row matrix, shape (num_terms, 2W).  Do not mutate."""
        return self._bits[: self._size]

    @property
    def coeffs(self) -> np.ndarray:
        """Canonical real coefficients, shape (num_terms,).  Do not mutate."""
        return self._coeffs[: self._size]

    @property
    def index(self) -> dict:
        """Mapping from packed-row bytes to row slot (rebuilt lazily)."""
        if self._index is None:
            rows = self.bits
            self._index = {rows[i].tobytes(): i for i in range(self._size)}
        return self._index

    def __len__(self) -> int:
        return self._size

    @property
    def num_terms(self) -> int:
        return self._size

    def key_of(self, p: PauliString) -> bytes:
        if p.n != self.n:
            raise PauliError(f"size mismatch: {p.n} vs {self.n} qubits")
        return p.nu_words().tobytes()

    def __contains__(self, p: PauliString) -> bool:
        return self.key_of(p) in self.index

    def string_at(self, slot: int) -> PauliString:
        row = self.bits[slot]
        w = self.width // 2
        return PauliString.from_words(self.n, row[:w], row[w:])

    def terms(self):
        """Yield (PauliString, coefficient) in current row order."""
        for i in range(self._size):
            yield self.string_at(i), float(self._coeffs[i])

    def labels(self) -> list[str]:
        return [self.string_at(i).to_sparse_label() for i in range(self._size)]

    def z_type_mask(self) -> np.ndarray:
        """Rows whose x-half is all zero (the <0|..|0>-diagonal terms)."""
        w = self.width // 2
        return ~self.bits[:, w:].any(axis=1)

    # -- mutation ----------------------------------------------------------

    def _grow(self, needed: int):
        cap = len(self._coeffs)
        if needed <= cap:
            return
        new_cap = max(4, cap)
        while new_cap < needed:
            new_cap *= 2
        bits = np.zeros((new_cap, self.width), dtype=np.uint64)
        coeffs = np.zeros(new_cap, dtype=np.float64)
        bits[: self._size] = self._bits[: self._size]
        coeffs[: self._size] = self._coeffs[: self._size]
        self._bits = bits
        self._coeffs = coeffs

    def insert_or_accumulate(self, p: PauliString, c) -> None:
        """Add c * P; merges into an existing row when nu is present.

        The phase of p is folded into the stored real coefficient.  A row
        whose accumulated coefficient becomes exactly zero is removed.
        """
        real_c = canonical_real_coefficient(c, p)
        key = self.key_of(p)
        idx = self.index
        slot = idx.get(key)
        if slot is not None:
            new_val = self._coeffs[slot] + real_c
            if new_val == 0.0:
                self._remove_slot(slot)
            else:
                self._coeffs[slot] = new_val
            return
        if real_c == 0.0:
            return
        if self._size + 1 > self.row_cap:
            raise RowCapExceeded(f"row cap {self.row_cap} exceeded")
        self._grow(self._size + 1)
        self._bits[self._size] = p.nu_words()
        self._coeffs[self._size] = real_c
        idx[key] = self._size
        self._size += 1

    def _remove_slot(self, slot: int):
        # swap-with-last compaction; row order is unspecified
        idx = self.index
        last = self._size - 1
        del idx[self._bits[slot].tobytes()]
        if slot != last:
            self._bits[slot] = self._bits[last]
            self._coeffs[slot] = self._coeffs[last]
            idx[self._bits[slot].tobytes()] = slot
        self._size = last

    def truncate(self, delta: float) -> int:
        """Remove every row with |c| < delta; returns the removed count."""
        bits, coeffs, removed = truncate_arrays(self.bits, self.coeffs, delta)
        if removed:
            self._bits = np.ascontiguousarray(bits)
            self._coeffs = np.ascontiguousarray(coeffs)
            self._size = len(coeffs)
            self._index = None
        return removed

    def sort_canonical(self) -> None:
        """Put rows in canonical packed order (word-lexicographic)."""
        order = kernels.sort_order(self.bits)
        self._bits = np.ascontiguousarray(self.bits[order])
        self._coeffs = np.ascontiguousarray(self.coeffs[order])
        self._index = None

    def copy(self) -> "PauliSum":
        return PauliSum._from_arrays(self.n, self.bits.copy(), self.coeffs.copy(), self.row_cap)

    # -- queries -----------------------------------------------------------

    def raw_norm(self) -> float:
        """Euclidean norm of the coefficient vector, (sum c^2)^(1/2)."""
        return float(np.sqrt(np.dot(self.coeffs, self.coeffs)))

    def coefficient_of(self, p: PauliString) -> float:
        slot = self.index.get(self.key_of(p))
        return float(self._coeffs[slot]) if slot is not None else 0.0

    # -- snapshot export ---------------------------------------------------

    def to_csv(self, path) -> None:
        """Write rows as (pauli_label, coefficient) with sparse labels."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pauli_label", "coefficient"])
            for i in range(self._size):
                writer.writerow([self.string_at(i).to_sparse_label(), repr(float(self._coeffs[i]))])

    @classmethod
    def from_csv(cls, path, n: int, row_cap: int = DEFAULT_ROW_CAP) -> "PauliSum":
        out = cls(n, row_cap=row_cap)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[:2] != ["pauli_label", "coefficient"]:
                raise ValueError(f"unexpected snapshot CSV header: {header}")
            for label, coeff in reader:
                out.insert_or_accumulate(PauliString.from_label(label, n), float(coeff))
        return out

    def to_npz(self, path, **provenance) -> None:
        """Binary snapshot: packed rows + coefficient array (+ provenance)."""
        meta = {k: np.asarray(v) for k, v in provenance.items()}
        np.savez_compressed(path, n=self.n, bits=self.bits, coeffs=self.coeffs, **meta)

    @classmethod
    def from_npz(cls, path, row_cap: int = DEFAULT_ROW_CAP) -> "PauliSum":
        with np.load(path) as data:
            n = int(data["n"])
            return cls._from_arrays(n, data["bits"], data["coeffs"], row_cap=row_cap)

    def __repr__(self) -> str:
        return f"PauliSum(n={self.n}, terms={self._size}, norm={self.raw_norm():.6g})"
