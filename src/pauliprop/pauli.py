"""Symplectic algebra for n-qubit Pauli strings.

A Pauli string is stored as two non-negative ints z and x, bit q of each
being qubit q, together with an integer phase exponent alpha, representing
the operator

    P = (-i)^alpha  *  prod_l  Z^z_l X^x_l   (qubit l).

Under this convention a plain label letter carries alpha = (#Y sites) mod 4,
e.g. Y = (-i) Z X on its qubit.  All phase bookkeeping stays in the single
integer channel; externally observable quantities are validated against
dense matrix oracles in the test suite.

The rows of a :class:`~pauliprop.sums.PauliSum` hold the same bits as uint64
words: nu = (z, x), each half in ceil(n/64) words, qubit q at bit q % 64 of
word q // 64.  :meth:`PauliString.from_words` and
:meth:`PauliString.nu_words` convert between the two forms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PauliString",
    "PauliError",
    "InvariantViolation",
    "commutes",
    "multiply_by_generator",
    "expectation_on_zero",
    "canonical_real_coefficient",
    "words_per_half",
]

_SPARSE_FACTOR = re.compile(r"^([IXYZ])(\d+)$")


class PauliError(ValueError):
    """Malformed label, size mismatch, or out-of-range qubit index."""


class InvariantViolation(RuntimeError):
    """Internal phase/packing invariant broken; indicates corruption."""


def words_per_half(n: int) -> int:
    """Number of 64-bit words needed for one half (z or x) of nu."""
    return (n + 63) // 64


def _qubits(bits: int) -> list[int]:
    """The qubits whose bit is set, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _nu_rows(n: int, halves) -> np.ndarray:
    """The uint64 rows [z words..., x words...] of (z, x) pairs of n-qubit halves."""
    w = words_per_half(n)
    raw = b"".join([z.to_bytes(8 * w, "little") + x.to_bytes(8 * w, "little") for z, x in halves])
    return np.frombuffer(bytearray(raw), np.uint64).reshape(-1, 2 * w)


@dataclass(frozen=True)
class PauliString:
    """Immutable Pauli string; safe to share between threads.

    Attributes
    ----------
    n : int
        Qubit count.
    z : int
        z-half of nu, qubit q at bit q; no bit at or above n.
    x : int
        x-half of nu, same layout.
    alpha : int
        Phase exponent modulo 4; the operator carries (-i)^alpha.
    """

    n: int
    z: int = 0
    x: int = 0
    alpha: int = 0

    def __post_init__(self):
        if self.n <= 0:
            raise PauliError(f"qubit count must be positive, got {self.n}")
        if (self.z | self.x) >> self.n:  # also true for a negative half
            raise PauliError(f"bits beyond qubit {self.n - 1} are set")
        object.__setattr__(self, "alpha", self.alpha % 4)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_label(cls, label: str, n: int | None = None) -> "PauliString":
        """Parse either a dense `IXYZ` label (qubit 0 leftmost) or a sparse
        label like ``Z62`` / ``X3*Z7``.  Sparse labels require ``n``.
        """
        label = label.strip()
        if not label:
            raise PauliError("empty Pauli label")
        if "*" in label or any(c.isdigit() for c in label):
            return cls._from_sparse(label, n)
        if label == "I" and n is not None and n != 1:
            return cls(n=n)  # bare identity on n qubits
        if n is not None and n != len(label):
            raise PauliError(f"label length {len(label)} != n={n}")
        return cls._from_dense(label)

    @classmethod
    def _from_letters(cls, n: int, letters) -> "PauliString":
        """The plain string with letter ch on qubit q for each (q, ch), in canonical phase."""
        z = x = 0
        for q, ch in letters:
            if ch in "ZY":
                z |= 1 << q
            if ch in "XY":
                x |= 1 << q
        return cls(n=n, z=z, x=x, alpha=(z & x).bit_count())

    @classmethod
    def _from_dense(cls, label: str) -> "PauliString":
        for ch in label:
            if ch not in "IXYZ":
                raise PauliError(f"bad Pauli letter {ch!r} in {label!r}")
        return cls._from_letters(len(label), enumerate(label))

    @classmethod
    def _from_sparse(cls, label: str, n: int | None) -> "PauliString":
        if n is None:
            raise PauliError("sparse labels need an explicit qubit count")
        if label == "I":
            return cls(n=n)
        letters = {}
        for factor in label.split("*"):
            m = _SPARSE_FACTOR.match(factor.strip())
            if not m:
                raise PauliError(f"bad sparse factor {factor!r} in {label!r}")
            ch, q = m.group(1), int(m.group(2))
            if q >= n:
                raise PauliError(f"qubit {q} out of range for n={n}")
            if q in letters:
                raise PauliError(f"qubit {q} repeated in {label!r}")
            letters[q] = ch
        return cls._from_letters(n, letters.items())

    @classmethod
    def from_words(cls, n: int, z_words, x_words) -> "PauliString":
        """The plain string with the uint64 words of each half, in canonical phase."""
        z = int.from_bytes(np.asarray(z_words, np.uint64).tobytes(), "little")
        x = int.from_bytes(np.asarray(x_words, np.uint64).tobytes(), "little")
        return cls(n=n, z=z, x=x, alpha=(z & x).bit_count())

    # -- views -------------------------------------------------------------

    def nu_words(self) -> np.ndarray:
        """nu as a new uint64 array [z_words..., x_words...]."""
        return _nu_rows(self.n, [(self.z, self.x)])[0]

    def letter(self, q: int) -> str:
        return "IXZY"[(self.x >> q & 1) + 2 * (self.z >> q & 1)]

    def weight(self) -> int:
        """Number of non-identity sites."""
        return (self.z | self.x).bit_count()

    def y_count(self) -> int:
        return (self.z & self.x).bit_count()

    def canonical_alpha(self) -> int:
        """Phase exponent that makes this nu a plain-letter Pauli string."""
        return self.y_count() % 4

    def is_z_type(self) -> bool:
        return self.x == 0

    def to_label(self) -> str:
        """Dense `IXYZ` label, qubit 0 leftmost (phase not included)."""
        return "".join(self.letter(q) for q in range(self.n))

    def to_sparse_label(self) -> str:
        """Sparse `X3*Z7` form; identity becomes `I`."""
        return "*".join(f"{self.letter(q)}{q}" for q in _qubits(self.z | self.x)) or "I"

    def __repr__(self) -> str:
        return f"PauliString({self.to_sparse_label()!r}, n={self.n}, alpha={self.alpha})"


def _check_same_n(p: PauliString, q: PauliString):
    if p.n != q.n:
        raise PauliError(f"size mismatch: {p.n} vs {q.n} qubits")


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff [P, Q] = 0; False iff {P, Q} = 0.

    Symplectic parity test: parity(x_p & z_q) XOR parity(z_p & x_q) == 0.
    """
    _check_same_n(p, q)
    return ((p.x & q.z).bit_count() ^ (p.z & q.x).bit_count()) & 1 == 0


def multiply_by_generator(p: PauliString, sigma: PauliString) -> PauliString:
    """Left product sigma * p.

    nu' = nu_p XOR nu_sigma and alpha' = alpha_p + alpha_sigma
    + 2 * count(z_p & x_sigma), reduced mod 4.
    """
    _check_same_n(p, sigma)
    alpha = p.alpha + sigma.alpha + 2 * (p.z & sigma.x).bit_count()
    return PauliString(n=p.n, z=p.z ^ sigma.z, x=p.x ^ sigma.x, alpha=alpha)


def expectation_on_zero(p: PauliString) -> float:
    """<0...0| P |0...0>: (-i)^alpha for Z-type strings, else 0."""
    if not p.is_z_type():
        return 0.0
    if p.alpha % 2:
        raise InvariantViolation(
            f"Z-type string carries odd phase exponent {p.alpha}; state is corrupt"
        )
    return 1.0 if p.alpha % 4 == 0 else -1.0


def canonical_real_coefficient(c, p: PauliString) -> float:
    """Real coefficient of the plain-letter Pauli operator underlying (c, p).

    Multiplies c by (-i)^(alpha - #Y); the result must be real because the
    plain string is Hermitian.  An imaginary residue above 1e-12 signals
    corrupted phase bookkeeping.
    """
    k = (p.alpha - p.y_count()) % 4
    value = complex(c) * (-1j) ** k
    if abs(value.imag) > 1e-12 * max(1.0, abs(value.real)):
        raise InvariantViolation(
            f"coefficient {c!r} on {p.to_sparse_label()} has imaginary residue {value.imag:g}"
        )
    return value.real
