"""The kernels take keyed rows: each uint64 word byte-swapped (big-endian in
memory), as inside ``engine.evolve``.  Every test builds native rows, swaps
them at the kernel boundary and checks against Python over the native words.
"""

from bisect import bisect_left

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliprop import kernels


def _random_rows(rng, rows, words_per_half):
    width = 2 * words_per_half
    bits = rng.integers(0, 2**63, size=(rows, width), dtype=np.int64).astype(np.uint64)
    bits |= rng.integers(0, 2, size=(rows, width), dtype=np.int64).astype(np.uint64) << np.uint64(63)
    return np.unique(bits, axis=0)


def _anti_reference(bits, sigma):
    """Symplectic parity row by row over every word, in Python ints."""
    w = len(sigma) // 2
    expect = []
    for row in bits:
        acc = 0
        for j in range(w):
            acc += int(row[j] & sigma[w + j]).bit_count()
            acc += int(row[w + j] & sigma[j]).bit_count()
        expect.append(bool(acc & 1))
    return np.array(expect, dtype=bool)


_WORD = st.integers(0, 2**64 - 1)


@st.composite
def _anti_problems(draw):
    """Rows and a generator whose nonzero words are all, one or none of them."""
    w = draw(st.integers(1, 3))
    width = 2 * w
    rows = draw(st.lists(st.lists(_WORD, min_size=width, max_size=width), max_size=40))
    support = draw(st.one_of(
        st.just(list(range(width))),
        st.integers(0, width - 1).map(lambda j: [j]),
        st.just([]),
        st.sets(st.integers(0, width - 1)).map(sorted),
    ))
    sigma = [0] * width
    for j in support:
        sigma[j] = draw(st.integers(1, 2**64 - 1))
    bits = np.array(rows, dtype=np.uint64).reshape(len(rows), width)
    return bits, np.array(sigma, dtype=np.uint64)


class TestAgainstPython:
    def test_anti_mask_reference(self, rng):
        bits = _random_rows(rng, 100, 2)
        sigma = _random_rows(rng, 4, 2)[0]
        got = kernels.anti_mask(bits.byteswap(), sigma.byteswap())
        assert np.array_equal(got, _anti_reference(bits, sigma))

    @settings(max_examples=200, deadline=None)
    @given(_anti_problems())
    def test_anti_mask_support_words(self, problem):
        bits, sigma = problem
        got = kernels.anti_mask(bits.byteswap(), sigma.byteswap())
        assert got.dtype == bool and got.shape == (len(bits),)
        assert np.array_equal(got, _anti_reference(bits, sigma))

    def test_sort_order_matches_tuple_sort(self, rng):
        bits = _random_rows(rng, 200, 2)
        order = kernels.sort_order(bits.byteswap())
        tuples = [tuple(int(v) for v in row) for row in bits]
        assert [tuples[i] for i in order] == sorted(tuples)

    def test_find_rows_membership(self, rng):
        keyed = _random_rows(rng, 128, 1).byteswap()
        bits_sorted = np.ascontiguousarray(keyed[kernels.sort_order(keyed)])
        hits = kernels.find_rows(bits_sorted, bits_sorted[10:20])
        assert np.array_equal(hits, np.arange(10, 20))
        absent = bits_sorted[:5].copy()
        absent[:, 0] ^= np.uint64(0b1010101)
        miss = kernels.find_rows(bits_sorted, absent)
        existing = {row.tobytes() for row in bits_sorted}
        for q, pos in zip(absent, miss):
            assert (pos >= 0) == (q.tobytes() in existing)

    def test_empty_inputs(self):
        empty = np.zeros((0, 2), dtype=np.uint64)
        queries = np.ones((3, 2), dtype=np.uint64)
        assert np.array_equal(kernels.find_rows(empty, queries), np.full(3, -1))
        assert np.array_equal(kernels.lower_bound(empty, queries), np.zeros(3, dtype=np.int64))
        assert kernels.anti_mask(empty, np.ones(2, dtype=np.uint64)).shape == (0,)


@st.composite
def _search_problems(draw):
    """Unique native rows sorted as tuples, and queries: present rows and others."""
    w = draw(st.integers(1, 3))
    width = 2 * w
    # small words as well as full-range ones, so that rows share leading words
    word = st.integers(0, 3) | st.sampled_from([2**63, 2**64 - 1, 255, 256]) | _WORD
    row = st.tuples(*[word] * width)
    rows = sorted(set(draw(st.lists(row, max_size=30))))
    queries = draw(st.lists(st.sampled_from(rows) | row if rows else row, max_size=20))
    return width, rows, queries


def _keyed(rows, width):
    return np.array(rows, dtype=np.uint64).reshape(len(rows), width).byteswap()


class TestKeyedSearch:
    @settings(max_examples=200, deadline=None)
    @given(_search_problems())
    def test_find_rows_and_lower_bound_match_bisect(self, problem):
        width, rows, queries = problem
        keyed, keyed_queries = _keyed(rows, width), _keyed(queries, width)
        slots = [bisect_left(rows, q) for q in queries]
        found = [i if i < len(rows) and rows[i] == q else -1 for i, q in zip(slots, queries)]
        assert kernels.lower_bound(keyed, keyed_queries).tolist() == slots
        assert kernels.find_rows(keyed, keyed_queries).tolist() == found


def _branch_signs_reference(bits, sigma, sigma_alpha):
    """The full-width formula: Y(P), the cross term and Y(P ^ sigma) over every word."""
    w = bits.shape[1] // 2
    y_p = np.bitwise_count(bits[:, :w] & bits[:, w:]).sum(axis=1, dtype=np.int64)
    cross = np.bitwise_count(bits[:, :w] & sigma[w:]).sum(axis=1, dtype=np.int64)
    target = bits ^ sigma
    y_t = np.bitwise_count(target[:, :w] & target[:, w:]).sum(axis=1, dtype=np.int64)
    diff = (y_p + int(sigma_alpha) + 2 * cross - 1 - y_t) % 4
    return np.where(diff == 0, 1.0, np.where(diff == 2, -1.0, 0.0))


@st.composite
def _sign_problems(draw):
    """Native rows and a generator whose z and x support words are drawn apart:
    one word, several, all or none of them, so z and x may sit in different
    words.  The phase offset from canonical alpha is 0 or 2 (the two
    orientations) or odd (a non-Hermitian generator)."""
    w = draw(st.integers(1, 4))
    width = 2 * w
    rows = draw(st.lists(st.lists(_WORD, min_size=width, max_size=width), max_size=40))
    support = st.one_of(
        st.just(list(range(w))),
        st.integers(0, w - 1).map(lambda j: [j]),
        st.sets(st.integers(0, w - 1)).map(sorted),
    )
    sigma = [0] * width
    for half in (0, w):
        for j in draw(support):
            sigma[half + j] = draw(st.integers(1, 2**64 - 1))
    offset = draw(st.integers(0, 3))
    bits = np.array(rows, dtype=np.uint64).reshape(len(rows), width)
    return bits, np.array(sigma, dtype=np.uint64), offset


class TestBranchSigns:
    @settings(max_examples=300, deadline=None)
    @given(_sign_problems())
    def test_support_words_match_full_width(self, problem):
        bits, sigma, offset = problem
        w = len(sigma) // 2
        canon = sum(int(z & x).bit_count() for z, x in zip(sigma[:w], sigma[w:])) % 4
        alpha = canon + offset
        got = kernels.branch_signs(bits.byteswap(), sigma.byteswap(), alpha)
        assert got.dtype == np.float64 and got.shape == (len(bits),)
        assert got.tobytes() == _branch_signs_reference(bits, sigma, alpha).tobytes()
        # i*sigma*P is Hermitian exactly when P anti-commutes and alpha is real
        anti = _anti_reference(bits, sigma)
        assert np.all((got[anti] != 0) == (offset % 2 == 0))
