"""Hot inner-loop kernels over packed Pauli rows.

Rows live in a C-contiguous ``(N, 2W)`` uint64 matrix: W z-words then W
x-words per row, each word stored big-endian in memory (the byte-swap of a
:class:`~pauliprop.sums.PauliSum` row; see :func:`pauliprop.engine.evolve`).
The canonical row order used everywhere is word-by-word unsigned comparison
of the native words (column 0 first), which is memcmp order on these bytes,
so :func:`pack_keys` is a zero-copy view.  AND, XOR and popcount do not
depend on byte order, so the bit kernels read the keyed rows as they are.
A caller holding native rows passes ``.byteswap()`` of them: a
``PauliSum``'s ``bits``, or a generator's ``nu_words()``, the words of the
z and x ints a :class:`~pauliprop.pauli.PauliString` holds.

Kernels do integer and bit work only; all floating-point arithmetic stays
in the engine.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "anti_mask",
    "branch_signs",
    "find_rows",
    "lower_bound",
    "pack_keys",
    "sort_order",
]


def pack_keys(bits: np.ndarray) -> np.ndarray:
    """The keyed rows as one fixed-width bytes scalar each, without a copy.

    memcmp order on these keys equals the canonical row order.
    """
    rows, width = bits.shape
    return np.ascontiguousarray(bits).view(f"S{8 * width}").reshape(rows)


def sort_order(bits: np.ndarray) -> np.ndarray:
    """Permutation putting keyed rows in canonical order (rows must be unique)."""
    return np.argsort(pack_keys(bits), kind="stable")


def anti_mask(bits, sigma):
    """Rows that anti-commute with the generator sigma (symplectic parity).

    Only the columns where the swapped generator is nonzero are read: the
    parity of the XOR of ``bits[:, j] & cross[j]`` over those columns is
    the parity of the summed popcounts.
    """
    w = bits.shape[1] // 2
    cross = np.concatenate([sigma[w:], sigma[:w]])
    cols = np.flatnonzero(cross)
    if len(cols) == 0:
        return np.zeros(bits.shape[0], bool)
    acc = bits[:, cols[0]] & cross[cols[0]]
    for j in cols[1:]:
        acc ^= bits[:, j] & cross[j]
    return (np.bitwise_count(acc) & 1).astype(bool)


_SIGN_OF_PHASE = np.array([1, 0, -1, 0], dtype=np.int8)


def branch_signs(bits, sigma, sigma_alpha):
    """Real sign (+1/-1) of each row's branch i*sigma*P in canonical form.

    0 marks a non-Hermitian result, which only a corrupt state produces.
    The phase is Y(P) + alpha + 2*(z_P . x_sigma) - 1 - Y(P ^ sigma) mod 4,
    and every term but alpha - 1 vanishes in a word where sigma is zero, so
    only the generator's support words are read.  The uint8 accumulator
    wraps mod 256, a multiple of 4.
    """
    w = bits.shape[1] // 2
    sz, sx = sigma[:w], sigma[w:]
    phase = np.full(bits.shape[0], (int(sigma_alpha) - 1) % 4, dtype=np.uint8)
    for j in np.flatnonzero(sz | sx):
        z, x = bits[:, j], bits[:, w + j]
        phase += np.bitwise_count(z & x)
        phase += 2 * np.bitwise_count(z & sx[j])
        phase -= np.bitwise_count((z ^ sz[j]) & (x ^ sx[j]))
    return _SIGN_OF_PHASE[phase & 3]


def find_rows(bits_sorted, queries):
    """Slot of each query row in the sorted matrix, or -1 when absent."""
    n = bits_sorted.shape[0]
    keys = pack_keys(bits_sorted)
    qkeys = pack_keys(queries)
    pos = np.searchsorted(keys, qkeys)
    out = np.where((pos < n) & (keys[np.minimum(pos, n - 1)] == qkeys), pos, -1) if n else np.full(len(qkeys), -1)
    return out.astype(np.int64)


def lower_bound(bits_sorted, queries):
    """Insertion slot of each query row that keeps the matrix sorted."""
    return np.searchsorted(pack_keys(bits_sorted), pack_keys(queries)).astype(np.int64)
