"""The Clifford frame of :func:`pauliprop.engine.evolve`.

A whole number of quarter turns is a Clifford map: it only relabels rows
and flips signs, and truncates nothing.  ``evolve`` absorbs each gate's
quarter turns into a frame Φ instead of moving rows, keeping the true state
as Φ of the framed state it stores (Begušić, Hejazi & Chan,
arXiv:2306.04797).

Φ is held as the tableau of Φ⁻¹ over the generators Z_q and X_q (Aaronson
and Gottesman, quant-ph/0406196); an absorb updates only the rows of the
generators the gate anti-commutes with.  Φ⁻¹ frames each later generator,
so every gate's residual is the same rotation about Φ⁻¹(σ).  Φ, taken from
the tableau by a transpose, unframes every state that leaves ``evolve``, one
table lookup per byte of a row, and the result is sorted canonically.

Rows here are keyed, as inside ``evolve``: W z-words then W x-words, each
word big-endian in memory (see :mod:`pauliprop.kernels`).  A run without
quarter turns never makes a frame.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .pauli import InvariantViolation, _nu_rows, words_per_half

__all__ = ["Frame"]

_MAP_ROWS = 4096  # rows per block of _map_rows


def _y_count(bits):
    """Y letters of each row, modulo 256 (phases are needed modulo 4)."""
    w = bits.shape[1] // 2
    return np.bitwise_count(bits[:, :w] & bits[:, w:]).sum(axis=-1, dtype=np.uint8)


def _parity(words):
    """Parity of the popcount along the last axis, as 0 or 1."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.uint8) & 1


def _generator_rows(n: int, width: int) -> np.ndarray:
    """Keyed rows Z_0..Z_{n-1}, X_0..X_{n-1}: the identity tableau."""
    rows = np.zeros((2 * n, width), np.uint64)
    q = np.arange(n)
    bit = np.left_shift(np.uint64(1), (q % 64).astype(np.uint64))
    rows[q, q // 64] = bit
    rows[n + q, width // 2 + q // 64] = bit
    return rows.byteswap()


def _byte_tables(images, phases):
    """The memory bytes of a row whose generators a tableau moves, and one table each.

    ``images`` and ``phases`` give the map of each generator (Z_q at row q,
    X_q at row n + q) as keyed words and the exponent alpha of its phase
    (-i)^alpha.  Entry v of a byte's table is the product of the images of
    the generators set in v, as keyed words and alpha.  The generators of one
    byte commute, so the order of the product does not matter.
    """
    n, width = len(images) // 2, images.shape[1]
    w = width // 2
    # generator row of bit j of memory byte i: keyed words are big-endian, so
    # byte i holds bits 8 * (7 - i % 8) + j of word i // 8; padding bits past
    # qubit n name the identity, row 2n
    i = np.arange(8 * width)[:, None]
    q = 64 * (i // 8 % w) + 8 * (7 - i % 8) + np.arange(8)
    gen = np.where(q < n, i // (8 * w) * n + q, 2 * n)
    moved = np.any(images != _generator_rows(n, width), axis=1) | (phases % 4 != 0)
    table_bytes = np.flatnonzero(np.append(moved, False)[gen].any(axis=1))
    images = np.concatenate([images, np.zeros((1, width), np.uint64)])
    phases = np.append(phases, 0).astype(np.uint8)

    tables = np.zeros((len(table_bytes), 256, width), np.uint64)
    table_phases = np.zeros((len(table_bytes), 256), np.uint8)
    for j in range(8):
        lo = 1 << j
        g = gen[table_bytes, j]
        prev, image = tables[:, :lo], images[g][:, None]
        tables[:, lo:2 * lo] = prev ^ image
        table_phases[:, lo:2 * lo] = (
            table_phases[:, :lo] + phases[g][:, None] + 2 * _parity(prev[..., w:] & image[..., :w])
        )
    return table_bytes, tables, table_phases


def _map_rows(images, phases, bits):
    """A tableau's map of keyed plain rows: the image rows, unsorted, and their signs.

    A row F = (-i)^y(F) Z^z X^x maps to (-i)^y(F) M(Z^z) M(X^x), one table
    lookup per memory byte (:func:`_byte_tables`), z-half bytes first, then
    x-half bytes; bytes whose generators the map fixes pass through.  Phases
    add up in the exponent, so per byte only the cross parity
    popcount(x_acc & z_entry) is computed; the Y counts of the partial
    products telescope, and only the result's is taken.  The sign of a row's
    image is (-1)^(flip / 2), flip being 0 or 2.
    """
    w = bits.shape[1] // 2
    table_bytes, tables, table_phases = _byte_tables(images, phases)
    keep = np.full(16 * w, 0xFF, np.uint8)
    keep[table_bytes] = 0
    keep = keep.view(np.uint64)
    z_keep = np.where(np.arange(2 * w) < w, keep, np.uint64(0))

    # each table entry as one item: np.take moves those about three times
    # faster than fancy indexing moves rows
    entries = tables.view(f"V{16 * w}")[..., 0]
    # blocks of rows bound the temporaries
    acc = np.empty_like(bits)
    flip = np.empty(len(bits), np.uint8)
    for lo in range(0, len(bits), _MAP_ROWS):
        block, part = bits[lo:lo + _MAP_ROWS], acc[lo:lo + _MAP_ROWS]
        raw = block.view(np.uint8)
        np.bitwise_and(block, z_keep, out=part)  # the fixed Z letters
        alpha = _y_count(block)
        cross = np.zeros((len(block), w), np.uint64)
        for t, byte in enumerate(table_bytes):  # z-half bytes come first
            value = raw[:, byte]
            entry = np.take(entries[t], value).view(np.uint64).reshape(-1, 2 * w)
            alpha += np.take(table_phases[t], value)
            cross ^= part[:, w:] & entry[:, :w]
            part ^= entry
        # the fixed X letters commute with every X image and carry no z bits,
        # so they go last, at no phase
        part[:, w:] ^= block[:, w:] & keep[w:]
        flip[lo:lo + _MAP_ROWS] = (alpha + 2 * _parity(cross) - _y_count(part)) & 3
    if np.any(flip & 1):
        raise InvariantViolation("a mapped row is not Hermitian; the frame is corrupt")
    return acc, flip


class Frame:
    """A Clifford frame Φ: the true state is Φ of the framed state.

    Φ is a composition of exact quarter turns, so it maps each Pauli string
    to a signed Pauli string.  It is kept as the tableau of Φ⁻¹
    (Aaronson and Gottesman, quant-ph/0406196): ``inv[r]`` is Φ⁻¹ of
    generator r (Z_q at row q, X_q at row n + q) as (z, x, alpha), the
    halves as a :class:`~pauliprop.pauli.PauliString` holds them and
    (-i)^alpha for the phase.  Φ⁻¹ frames gate generators; Φ, needed only
    to unframe a state, is taken from it then (:meth:`_image`) and kept
    until the next absorb.
    """

    def __init__(self, n: int):
        self.n = n
        self.inv = [(1 << q, 0, 0) for q in range(n)] + [(0, 1 << q, 0) for q in range(n)]
        self._kept_image = None  # Φ's (images, phases), read-only, from the last unframe

    def copy(self) -> "Frame":
        """This frame, sharing Φ's read-only image with it until either absorbs."""
        out = Frame(0)
        out.n, out.inv, out._kept_image = self.n, list(self.inv), self._kept_image
        return out

    def _inverse(self, prep):
        """Φ⁻¹ of the plain generator as (z, x, alpha): the product of its letters' images."""
        z = x = 0
        alpha = prep.canon
        for r in prep.rows:  # Z images first, then X: sigma = (-i)^canon Z^z X^x
            rz, rx, ra = self.inv[r]
            alpha += ra + 2 * (x & rz).bit_count()
            z ^= rz
            x ^= rx
        return z, x, alpha

    def framed(self, prep):
        """Φ⁻¹ of the plain generator: keyed words, canonical alpha and a sign, +-1.0."""
        z, x, alpha = self._inverse(prep)
        canon = (z & x).bit_count() % 4
        sign = -1.0 if (alpha - canon) % 4 else 1.0
        return _nu_rows(self.n, [(z, x)])[0].byteswap(), canon, sign

    def absorb(self, prep, q: int) -> None:
        """Compose q quarter turns G about sigma onto Φ.

        G maps an anti-commuting P to i^q sigma^q P: i sigma P, -P or -i sigma P
        for q = 1, 2 or 3 modulo 4.  Φ⁻¹ becomes Φ⁻¹ G⁻¹: a generator g that
        anti-commutes with sigma maps to (-i)^q Φ⁻¹(sigma)^q Φ⁻¹(g), so an odd
        q multiplies by Φ⁻¹(sigma) = (-i)^alpha Z^z X^x and a half turn only
        adds 2 to the phase.
        """
        z, x, alpha = self._inverse(prep) if q % 2 else (0, 0, 0)
        turn = alpha + q
        self._kept_image = None
        for r in prep.anti_rows:
            rz, rx, ra = self.inv[r]
            self.inv[r] = (z ^ rz, x ^ rx, (ra + turn + 2 * (x & rz).bit_count()) % 4)

    def _image(self):
        """Φ of each generator, as keyed words and phase exponents.

        Φ(g_s) contains Z_q exactly when it anti-commutes with X_q, that is
        when g_s anti-commutes with Φ⁻¹(X_q), and X_q when g_s anti-commutes
        with Φ⁻¹(Z_q): with B the bit matrix of Φ⁻¹ (row r, column c: bit c
        of Φ⁻¹(g_r), z bits then x bits), Φ's is C[s, c] = B[c', s'], where
        ' swaps Z_q and X_q.  Mapping C's rows back through Φ⁻¹ gives
        +-g_s, the sign of Φ(g_s).
        """
        n, w = self.n, words_per_half(self.n)
        native = _nu_rows(n, [(z, x) for z, x, _ in self.inv])
        inverse = native.byteswap()
        inverse_phases = np.array([alpha for _, _, alpha in self.inv], np.uint8)

        cols = np.concatenate([np.arange(n), 64 * w + np.arange(n)])  # bits of qubits < n
        swap = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
        b = np.unpackbits(native.view(np.uint8), axis=1, bitorder="little")[:, cols]
        c = np.zeros((2 * n, 128 * w), np.uint8)
        c[:, cols] = b[swap][:, swap].T
        images = np.packbits(c, axis=1, bitorder="little").view(np.uint64).byteswap()

        generators, flip = _map_rows(inverse, inverse_phases, images)
        if generators.tobytes() != _generator_rows(n, 2 * w).tobytes():
            raise InvariantViolation("the frame's tableau is not invertible; it is corrupt")
        phases = _y_count(images) + flip
        images.flags.writeable = phases.flags.writeable = False
        return images, phases

    def unframe(self, bits, coeffs, owned=False):
        """Φ of keyed framed rows: keyed rows in canonical order and their coefficients.

        ``owned`` rows are overwritten with the result instead of copied.
        """
        # the kept result is allocated before every temporary, so that freeing
        # them leaves no hole below it in the heap
        bits = np.ascontiguousarray(bits)
        out = bits if owned else np.empty_like(bits)
        out_coeffs = np.empty_like(coeffs)
        if self._kept_image is None:
            self._kept_image = self._image()
        acc, flip = _map_rows(*self._kept_image, bits)
        order = kernels.sort_order(acc)
        rows = f"V{8 * bits.shape[1]}"  # each row as one item; clip mode is unbuffered
        np.take(acc.view(rows).ravel(), order, out=out.view(rows).ravel(), mode="clip")
        np.take(coeffs, order, out=out_coeffs, mode="clip")
        np.negative(out_coeffs, out=out_coeffs, where=flip[order] == 2)
        return out, out_coeffs
