"""Sparse real-coefficient sums of Pauli strings.

Rows are keyed by the packed symplectic vector nu; coefficients are stored
in canonical real form (the coefficient of the plain-letter Pauli operator,
with any (-i)^alpha prefix folded out at construction).  This keeps the
whole rotation update in pure real arithmetic.

Every PauliSum holds unique rows, no zero coefficients, and rows in
canonical order (word-by-word unsigned comparison, column 0 first; see
:mod:`pauliprop.kernels`).
"""

from __future__ import annotations

import math
import zipfile
import zlib

import numpy as np

from . import kernels
from .files import read_csv, write_csv
from .pauli import PauliError, PauliString, _nu_rows, canonical_real_coefficient, words_per_half

__all__ = ["PauliSum", "pairwise_dot"]

_SNAPSHOT_COLUMNS = {"pauli_label": str, "coefficient": float}


def pairwise_dot(a, b) -> float:
    """sum(a * b) by numpy's own pairwise reduction.

    Unlike a BLAS dot, it runs on one thread and fixes its summation order,
    so the result is the same on every CPU and BLAS build.
    """
    return float(np.add.reduce(a * b))


class PauliSum:
    """Sparse observable: one row per unique Pauli string, canonical order.

    Immutable once built; the arrays must not be written to.

    Parameters
    ----------
    n : int
        Qubit count.
    bits, coeffs : ndarray
        Trusted packed rows, shape (N, 2W), and their coefficients: rows
        unique and canonically ordered, no zero coefficients.
    """

    def __init__(self, n: int, bits, coeffs):
        if n <= 0:
            raise PauliError(f"qubit count must be positive, got {n}")
        self.n = n
        self.width = 2 * words_per_half(n)
        self.bits = np.ascontiguousarray(bits, dtype=np.uint64)
        self.coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, n: int, terms) -> "PauliSum":
        """Build from (label-or-PauliString, coefficient) pairs.

        Coefficients of a repeated string add up in input order; rows that
        sum to exactly zero are dropped, and a sum that is not finite is an
        error naming its term.
        """
        acc: dict[tuple[int, int], float] = {}
        for p, c in terms:
            if isinstance(p, str):
                p = PauliString.from_label(p, n)
            elif p.n != n:
                raise PauliError(f"size mismatch: {p.n} vs {n} qubits")
            key = (p.z, p.x)
            value = acc[key] = acc.get(key, 0.0) + canonical_real_coefficient(c, p)
            if not math.isfinite(value):
                raise ValueError(f"term {p.to_sparse_label()} has the coefficient {value!r}, "
                                 "not a finite number")
        keys = [key for key, c in acc.items() if c != 0.0]
        bits = _nu_rows(n, keys)
        order = kernels.sort_order(bits.byteswap())
        return cls(n, bits[order], np.array([acc[key] for key in keys])[order])

    # -- views -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.coeffs)

    def string_at(self, slot: int) -> PauliString:
        row = self.bits[slot]
        w = self.width // 2
        return PauliString.from_words(self.n, row[:w], row[w:])

    def terms(self):
        """Yield (PauliString, coefficient) in canonical row order."""
        for i in range(len(self)):
            yield self.string_at(i), float(self.coeffs[i])

    def labels(self) -> list[str]:
        return [self.string_at(i).to_sparse_label() for i in range(len(self))]

    def z_type_mask(self) -> np.ndarray:
        """Rows whose x-half is all zero (the <0|..|0>-diagonal terms)."""
        w = self.width // 2
        return ~self.bits[:, w:].any(axis=1)

    # -- queries -----------------------------------------------------------

    def raw_norm(self) -> float:
        """Euclidean norm of the coefficient vector, (sum c^2)^(1/2)."""
        return float(np.sqrt(pairwise_dot(self.coeffs, self.coeffs)))

    # -- snapshot export ---------------------------------------------------

    def to_csv(self, path) -> None:
        """Write rows as (pauli_label, coefficient) with sparse labels."""
        write_csv(path, _SNAPSHOT_COLUMNS, zip(self.labels(), self.coeffs))

    @classmethod
    def from_csv(cls, path, n: int) -> "PauliSum":
        """Load a CSV snapshot; its columns may come in any order, among others."""
        return cls.from_terms(n, read_csv(path, _SNAPSHOT_COLUMNS))

    def to_npz(self, path, **provenance) -> None:
        """Binary snapshot: packed rows + coefficient array (+ provenance)."""
        meta = {k: np.asarray(v) for k, v in provenance.items()}
        np.savez_compressed(path, n=self.n, bits=self.bits, coeffs=self.coeffs, **meta)

    @classmethod
    def from_npz(cls, path) -> "PauliSum":
        """Load a binary snapshot in any row order.

        A file that is not a readable ``.npz`` archive, a missing ``n``,
        ``bits`` or ``coeffs`` array, an ``n`` that is not one non-negative
        integer, rows of the wrong type or width, a coefficient count other
        than the row count, a bit set past qubit n, a zero or non-finite
        coefficient and a repeated row are errors.
        """
        names = ("n", "bits", "coeffs")
        try:
            data = np.load(path)
            if not isinstance(data, np.lib.npyio.NpzFile):  # a bare .npy array
                raise ValueError
            with data:
                arrays = {name: data[name] for name in names if name in data.files}
        except (ValueError, EOFError, zipfile.BadZipFile, zlib.error):
            raise ValueError(f"snapshot {path} is not a readable .npz archive") from None
        missing = sorted(set(names) - set(arrays))
        if missing:
            raise ValueError(f"snapshot {path} lacks the array(s) {', '.join(missing)}")
        n, bits, coeffs = arrays["n"], arrays["bits"], arrays["coeffs"]
        if n.shape != () or n.dtype.kind not in "iu" or n < 0:
            raise ValueError(f"snapshot {path} has n = {n!r}, not a qubit count")
        n = int(n)
        w = words_per_half(n)
        if bits.dtype != np.uint64 or bits.shape[1:] != (2 * w,):
            raise ValueError(f"snapshot {path} has {bits.dtype} rows of shape {bits.shape[1:]}, "
                             f"not uint64 rows of shape ({2 * w},)")
        if coeffs.shape != (len(bits),):
            raise ValueError(f"snapshot {path} has {len(bits)} rows and coefficients of shape {coeffs.shape}")
        if n % 64 and np.any(bits[:, [w - 1, 2 * w - 1]] >> np.uint64(n % 64)):
            raise ValueError(f"snapshot {path} sets a bit past qubit {n - 1}")
        if np.any(coeffs == 0.0):
            raise ValueError(f"snapshot {path} holds a zero coefficient")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError(f"snapshot {path} holds a coefficient that is not a finite number")
        order = kernels.sort_order(bits.byteswap())
        bits, coeffs = bits[order], coeffs[order]
        if np.any(np.all(bits[1:] == bits[:-1], axis=1)):
            raise ValueError(f"snapshot {path} repeats a Pauli row")
        return cls(n, bits, coeffs)

    def __repr__(self) -> str:
        return f"PauliSum(n={self.n}, terms={len(self)}, norm={self.raw_norm():.6g})"
