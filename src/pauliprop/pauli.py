"""Bit-packed symplectic algebra for n-qubit Pauli strings.

A Pauli string is stored as a boolean vector nu of length 2n (z bits first,
then x bits, each half packed into 64-bit words) together with an integer
phase exponent alpha, representing the operator

    P = (-i)^alpha  *  prod_l  Z^z_l X^x_l   (qubit l).

Under this convention a plain label letter carries alpha = (#Y sites) mod 4,
e.g. Y = (-i) Z X on its qubit.  All phase bookkeeping stays in the single
integer channel; externally observable quantities are validated against
dense matrix oracles in the test suite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1

_SPARSE_FACTOR = re.compile(r"^([IXYZ])(\d+)$")


class PauliError(ValueError):
    """Malformed label, size mismatch, or out-of-range qubit index."""


class InvariantViolation(RuntimeError):
    """Internal phase/packing invariant broken; indicates corruption."""


def words_per_half(n: int) -> int:
    """Number of 64-bit words needed for one half (z or x) of nu."""
    return (n + _WORD_BITS - 1) // _WORD_BITS


def _popcount_words(words: tuple[int, ...]) -> int:
    return sum(w.bit_count() for w in words)


def _and_words(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x & y for x, y in zip(a, b))


def _xor_words(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x ^ y for x, y in zip(a, b))


def _qubits(words) -> list[int]:
    """The qubits whose bit is set in one half, given as native words, ascending."""
    out = []
    for i, word in enumerate(words):
        while word:
            low = word & -word
            out.append(_WORD_BITS * i + low.bit_length() - 1)
            word ^= low
    return out


@dataclass(frozen=True)
class PauliString:
    """Immutable packed Pauli string; safe to share between threads.

    Attributes
    ----------
    n : int
        Qubit count.
    z : tuple of int
        z-half of nu, ceil(n/64) words, qubit l in word l//64 bit l%64.
    x : tuple of int
        x-half of nu, same packing.
    alpha : int
        Phase exponent modulo 4; the operator carries (-i)^alpha.
    """

    n: int
    z: tuple[int, ...] = field(default=())
    x: tuple[int, ...] = field(default=())
    alpha: int = 0

    def __post_init__(self):
        if self.n <= 0:
            raise PauliError(f"qubit count must be positive, got {self.n}")
        w = words_per_half(self.n)
        z = tuple(self.z) if self.z else (0,) * w
        x = tuple(self.x) if self.x else (0,) * w
        if len(z) != w or len(x) != w:
            raise PauliError(f"expected {w} words per half for n={self.n}")
        # padding above bit n must be clean
        tail = self.n % _WORD_BITS
        if tail:
            pad = _WORD_MASK ^ ((1 << tail) - 1)
            if (z[-1] & pad) or (x[-1] & pad):
                raise PauliError("padding bits beyond qubit n are set")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "alpha", self.alpha % 4)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n=n)

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
    def _from_dense(cls, label: str) -> "PauliString":
        n = len(label)
        w = words_per_half(n)
        z = [0] * w
        x = [0] * w
        n_y = 0
        for q, ch in enumerate(label):
            if ch == "I":
                continue
            word, bit = q // _WORD_BITS, q % _WORD_BITS
            if ch in ("Z", "Y"):
                z[word] |= 1 << bit
            if ch in ("X", "Y"):
                x[word] |= 1 << bit
            if ch == "Y":
                n_y += 1
            if ch not in "IXYZ":
                raise PauliError(f"bad Pauli letter {ch!r} in {label!r}")
        return cls(n=n, z=tuple(z), x=tuple(x), alpha=n_y % 4)

    @classmethod
    def _from_sparse(cls, label: str, n: int | None) -> "PauliString":
        if n is None:
            raise PauliError("sparse labels need an explicit qubit count")
        w = words_per_half(n)
        z = [0] * w
        x = [0] * w
        n_y = 0
        seen = set()
        if label == "I":
            return cls(n=n)
        for factor in label.split("*"):
            m = _SPARSE_FACTOR.match(factor.strip())
            if not m:
                raise PauliError(f"bad sparse factor {factor!r} in {label!r}")
            ch, q = m.group(1), int(m.group(2))
            if q >= n:
                raise PauliError(f"qubit {q} out of range for n={n}")
            if q in seen:
                raise PauliError(f"qubit {q} repeated in {label!r}")
            seen.add(q)
            if ch == "I":
                continue
            word, bit = q // _WORD_BITS, q % _WORD_BITS
            if ch in ("Z", "Y"):
                z[word] |= 1 << bit
            if ch in ("X", "Y"):
                x[word] |= 1 << bit
            if ch == "Y":
                n_y += 1
        return cls(n=n, z=tuple(z), x=tuple(x), alpha=n_y % 4)

    @classmethod
    def from_words(cls, n: int, z_words, x_words, alpha: int | None = None) -> "PauliString":
        """Build from packed words; alpha defaults to the canonical phase."""
        z = tuple(int(v) for v in z_words)
        x = tuple(int(v) for v in x_words)
        if alpha is None:
            alpha = _popcount_words(_and_words(z, x)) % 4
        return cls(n=n, z=z, x=x, alpha=alpha)

    # -- views -------------------------------------------------------------

    def nu_words(self) -> np.ndarray:
        """Packed nu as a uint64 array [z_words..., x_words...]."""
        return np.array(self.z + self.x, dtype=np.uint64)

    def letter(self, q: int) -> str:
        word, bit = q // _WORD_BITS, q % _WORD_BITS
        zb = (self.z[word] >> bit) & 1
        xb = (self.x[word] >> bit) & 1
        return "IXZY"[xb + 2 * zb]

    def weight(self) -> int:
        """Number of non-identity sites."""
        or_words = tuple(a | b for a, b in zip(self.z, self.x))
        return _popcount_words(or_words)

    def y_count(self) -> int:
        return _popcount_words(_and_words(self.z, self.x))

    def canonical_alpha(self) -> int:
        """Phase exponent that makes this nu a plain-letter Pauli string."""
        return self.y_count() % 4

    def is_z_type(self) -> bool:
        return not any(self.x)

    def to_label(self) -> str:
        """Dense `IXYZ` label, qubit 0 leftmost (phase not included)."""
        letters = []
        for q in range(self.n):
            word, bit = q // _WORD_BITS, q % _WORD_BITS
            zb = (self.z[word] >> bit) & 1
            xb = (self.x[word] >> bit) & 1
            letters.append("IXZY"[xb + 2 * zb])
        return "".join(letters)

    def to_sparse_label(self) -> str:
        """Sparse `X3*Z7` form; identity becomes `I`."""
        support = _qubits(tuple(a | b for a, b in zip(self.z, self.x)))
        return "*".join(f"{self.letter(q)}{q}" for q in support) or "I"

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
    s = _popcount_words(_and_words(p.x, q.z)) ^ _popcount_words(_and_words(p.z, q.x))
    return (s & 1) == 0


def multiply_by_generator(p: PauliString, sigma: PauliString) -> PauliString:
    """Left product sigma * p in packed form.

    nu' = nu_p XOR nu_sigma and alpha' = alpha_p + alpha_sigma
    + 2 * count(z_p & x_sigma), reduced mod 4.
    """
    _check_same_n(p, sigma)
    alpha = (p.alpha + sigma.alpha + 2 * _popcount_words(_and_words(p.z, sigma.x))) % 4
    return PauliString(
        n=p.n,
        z=_xor_words(p.z, sigma.z),
        x=_xor_words(p.x, sigma.x),
        alpha=alpha,
    )


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
