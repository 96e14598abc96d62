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
in the engine.  Each returns what the engine consumes without a cast:
:func:`anti_mask` a bool view of its parity bytes, :func:`branch_signs`
float64 signs (0.0 marking a corrupt phase), and :func:`find_rows` and
:func:`lower_bound` the intp slots of ``searchsorted``.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "anti_mask",
    "branch_signs",
    "find_rows",
    "lower_bound",
    "pack_keys",
    "sort_order",
]


@functools.cache
def _key_item(width):
    """The dtype of one row of ``width`` words as a single bytes scalar."""
    return np.dtype(f"S{8 * width}")


def pack_keys(bits: np.ndarray) -> np.ndarray:
    """The keyed rows as one fixed-width bytes scalar each, without a copy.

    memcmp order on these keys equals the canonical row order.
    """
    return np.ascontiguousarray(bits).view(_key_item(bits.shape[1])).ravel()


def sort_order(bits: np.ndarray) -> np.ndarray:
    """Permutation putting keyed rows in canonical order (rows must be unique)."""
    return np.argsort(pack_keys(bits), kind="stable")


def anti_mask(bits, sigma):
    """Rows that anti-commute with the generator sigma (symplectic parity), as bools.

    Only the generator's nonzero words are read: word i of sigma meets the
    row's word in the other half, i + w or i - w, and the parity of the XOR
    of those ANDs is the parity of the summed popcounts.  The result is a
    bool view of the parity bytes.
    """
    width = bits.shape[1]
    acc = None
    for i in sigma.nonzero()[0].tolist():
        term = bits[:, (i + width // 2) % width] & sigma[i]
        if acc is None:
            acc = term
        else:
            acc ^= term
    if acc is None:
        return np.zeros(bits.shape[0], bool)
    parity = np.bitwise_count(acc)
    parity &= 1
    return parity.view(bool)


_SIGN_OF_PHASE = np.array([1.0, 0.0, -1.0, 0.0])


def branch_signs(bits, sigma, sigma_alpha):
    """Real sign of each row's branch i*sigma*P in canonical form, as float64 +-1.0.

    0.0 marks a non-Hermitian result, which only a corrupt state produces.
    The phase is Y(P) + alpha + 2*(z_P . x_sigma) - 1 - Y(P ^ sigma) mod 4,
    and every term but alpha - 1 vanishes in a word where sigma is zero, so
    only the generator's support words are read.  The uint8 accumulator
    wraps mod 256, a multiple of 4.
    """
    w = bits.shape[1] // 2
    phase = np.full(bits.shape[0], (int(sigma_alpha) - 1) % 4, dtype=np.uint8)
    for j in (sigma[:w] | sigma[w:]).nonzero()[0].tolist():
        z, x, sz, sx = bits[:, j], bits[:, w + j], sigma[j], sigma[w + j]
        phase += np.bitwise_count(z & x)
        phase += 2 * np.bitwise_count(z & sx)
        phase -= np.bitwise_count((z ^ sz) & (x ^ sx))
    phase &= 3
    return _SIGN_OF_PHASE.take(phase)


def find_rows(bits_sorted, queries):
    """Slot of each query row in the sorted matrix, or -1 when absent, as intp."""
    keys, qkeys = pack_keys(bits_sorted), pack_keys(queries)
    n = len(keys)
    if not n:
        return np.full(len(qkeys), -1, np.intp)
    pos = keys.searchsorted(qkeys)
    # a query past the last row is compared with the last row, which differs
    np.minimum(pos, n - 1, out=pos)
    pos[keys.take(pos) != qkeys] = -1
    return pos


def lower_bound(bits_sorted, queries):
    """Insertion slot of each query row that keeps the matrix sorted, as intp."""
    return pack_keys(bits_sorted).searchsorted(pack_keys(queries))
