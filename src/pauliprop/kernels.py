"""Hot inner-loop kernels over packed Pauli rows.

Rows live in a C-contiguous ``(N, 2W)`` uint64 matrix: W z-words then W
x-words per row, each word stored big-endian in memory (the byte-swap of a
:class:`~pauliprop.sums.PauliSum` row; see :func:`pauliprop.engine.evolve`).
The canonical row order used everywhere is word-by-word unsigned comparison
of the native words (column 0 first), which is memcmp order on these bytes,
so :func:`pack_keys` is a zero-copy view.  AND, XOR and popcount do not
depend on byte order, so the bit kernels read the keyed rows as they are.
A caller holding native rows (a ``PauliSum``'s ``bits``, a generator's
``nu_words()``) passes ``.byteswap()`` of them.

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


def branch_signs(bits, sigma, sigma_alpha):
    """Real sign (+1/-1) of each row's branch i*sigma*P in canonical form.

    0 marks a non-Hermitian result, which only a corrupt state produces.
    """
    w = bits.shape[1] // 2
    y_p = np.bitwise_count(bits[:, :w] & bits[:, w:]).sum(axis=1, dtype=np.int64)
    cross = np.bitwise_count(bits[:, :w] & sigma[w:]).sum(axis=1, dtype=np.int64)
    target = bits ^ sigma
    y_t = np.bitwise_count(target[:, :w] & target[:, w:]).sum(axis=1, dtype=np.int64)
    diff = (y_p + int(sigma_alpha) + 2 * cross - 1 - y_t) % 4
    return np.where(diff == 0, 1, np.where(diff == 2, -1, 0)).astype(np.int8)


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
