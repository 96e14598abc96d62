import io
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_partition
from pauliprop import PauliString, PauliSum, commutes, kernels


def _sum_from(n, pairs):
    return PauliSum.from_terms(n, pairs)


class TestInsertOrAccumulate:
    def test_insert_into_empty(self):
        s = _sum_from(3, [("Z0", 1.0)])
        assert len(s) == 1
        assert dict(s.terms())[PauliString.from_label("Z0", 3)] == 1.0

    def test_exact_cancellation_removes_row(self):
        s = _sum_from(3, [("Z0", 1.0), ("Z0", -1.0)])
        assert len(s) == 0

    def test_distinct_rows_append(self):
        s = _sum_from(3, [("Z0", 1.0), ("Y1", 0.3)])
        assert len(s) == 2

    def test_accumulates_on_same_nu(self):
        s = _sum_from(2, [("Z0", 1.0), ("Z0", 0.25)])
        assert len(s) == 1
        assert dict(s.terms())[PauliString.from_label("Z0", 2)] == 1.25

    def test_phase_folded_to_canonical_real(self):
        # alpha=2 represents the negated plain string
        p0 = PauliString.from_label("Z0", 2)
        p_neg = PauliString(n=2, z=p0.z, x=p0.x, alpha=2)
        s = _sum_from(2, [(p_neg, 1.0)])
        assert dict(s.terms())[p0] == -1.0

    def test_size_mismatch(self):
        with pytest.raises(Exception):
            _sum_from(2, [(PauliString.from_label("Z0", 3), 1.0)])


class TestNorm:
    def test_single_row(self):
        assert _sum_from(2, [("Z0", 1.0)]).raw_norm() == 1.0

    def test_empty(self):
        assert _sum_from(2, []).raw_norm() == 0.0

    def test_three_four_five(self):
        s = _sum_from(3, [("Z0", 0.6), ("Y1", 0.8)])
        assert abs(s.raw_norm() - 1.0) < 1e-15

    def test_matches_naive_loop(self, rng):
        s = _sum_from(5, [(f"Z{i % 5}*X{(i + 2) % 5}", float(rng.normal())) for i in range(20)])
        naive = sum(c * c for _, c in s.terms())
        assert abs(s.raw_norm() ** 2 - naive) < 1e-12 * max(1.0, naive)


def _labels(n):
    """Sparse labels of weight 1-3 on n qubits."""
    factor = st.tuples(st.integers(0, n - 1), st.sampled_from("XYZ"))
    return st.lists(factor, min_size=1, max_size=3, unique_by=lambda f: f[0]).map(
        lambda fs: "*".join(f"{letter}{q}" for q, letter in fs)
    )


class TestStructure:
    def test_no_zero_coefficients_stored(self):
        s = _sum_from(3, [("Z0", 1.0), ("X1", 0.0)])
        assert len(s) == 1

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_unique_canonical_and_nonzero(self, data):
        # n = 3, 70, 130: one, two and three words per half
        n = data.draw(st.sampled_from([3, 70, 130]))
        pool = data.draw(st.lists(_labels(n), min_size=1, max_size=6))
        coeff = st.floats(-2.0, 2.0, allow_nan=False) | st.sampled_from([0.0, 0.5, -0.5])
        terms = data.draw(st.lists(st.tuples(st.sampled_from(pool), coeff), max_size=24))
        s = PauliSum.from_terms(n, terms)

        assert np.array_equal(kernels.sort_order(s.bits.byteswap()), np.arange(len(s)))
        assert len({row.tobytes() for row in s.bits}) == len(s)
        assert np.all(s.coeffs != 0.0)
        want: dict[str, float] = {}
        for label, c in terms:
            key = PauliString.from_label(label, n).to_sparse_label()
            want[key] = want.get(key, 0.0) + c
        assert dict(zip(s.labels(), s.coeffs.tolist())) == {
            k: v for k, v in want.items() if v != 0.0
        }

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_lookups_and_npz_load_on_wide_words(self, data):
        # qubits past bit 7 of a word, where native and keyed row orders differ
        n = data.draw(st.sampled_from([20, 70, 130]))
        labels = data.draw(st.lists(_labels(n), min_size=2, max_size=12, unique=True))
        s = PauliSum.from_terms(n, [(label, 1.0 + i) for i, label in enumerate(labels)])
        terms = dict(s.terms())
        for p, c in s.terms():
            p = PauliString.from_label(p.to_sparse_label(), n)
            assert p in terms and terms[p] == c
        other = PauliString.from_label(data.draw(_labels(n)), n)
        if other.nu_words().tobytes() not in {row.tobytes() for row in s.bits}:
            assert other not in terms and terms.get(other, 0.0) == 0.0

        buf = io.BytesIO()
        np.savez_compressed(buf, n=n, bits=s.bits[::-1], coeffs=s.coeffs[::-1])
        buf.seek(0)
        back = PauliSum.from_npz(buf)
        assert back.bits.tobytes() == s.bits.tobytes()
        assert back.coeffs.tobytes() == s.coeffs.tobytes()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_strings_across_word_boundaries(self, data):
        # letters on both sides of each 64-bit word boundary
        n = data.draw(st.sampled_from([63, 64, 65, 127, 128, 129]))
        edges = [q for q in (0, 63, 64, 127, 128, n - 1) if q < n]
        qubit = st.sampled_from(edges) | st.integers(0, n - 1)
        letters = st.dictionaries(qubit, st.sampled_from("XYZ"), min_size=1, max_size=6)
        strings = [
            PauliString.from_label("*".join(f"{ch}{q}" for q, ch in d.items()), n)
            for d in data.draw(st.lists(letters, min_size=1, max_size=8))
        ]
        strings = list(dict.fromkeys(strings))
        for p in strings:
            assert PauliString.from_label(p.to_sparse_label(), n) == p
            assert PauliString.from_words(n, *p.nu_words().reshape(2, -1)) == p

        s = PauliSum.from_terms(n, [(p, 1.0 + i) for i, p in enumerate(strings)])
        sigma = data.draw(st.sampled_from(strings))
        comm, _, _, _ = reference_partition(s, sigma)
        assert comm == [i for i, (p, _) in enumerate(s.terms()) if commutes(p, sigma)]

        # canonical order is the order of the rows as tuples of native words
        w = (n + 63) // 64
        words = sorted(
            tuple(h >> (64 * i) & (2**64 - 1) for h in (p.z, p.x) for i in range(w))
            for p in strings
        )
        assert s.bits.tolist() == [list(row) for row in words]

    def test_contains_and_string_at(self):
        s = _sum_from(4, [("Y2*Z3", 0.25)])
        p = PauliString.from_label("Y2*Z3", 4)
        assert p in dict(s.terms())
        assert s.string_at(0) == p


class TestSnapshots:
    def test_csv_round_trip(self, tmp_path):
        s = _sum_from(5, [("Z0", 1.0), ("X1*Y3", -0.125), ("Z2*Z4", 0.7071067811865476)])
        path = tmp_path / "snap.csv"
        s.to_csv(path)
        back = PauliSum.from_csv(path, 5)
        assert np.array_equal(back.bits, s.bits)
        assert np.array_equal(back.coeffs, s.coeffs)

    def test_npz_round_trip(self, tmp_path):
        s = _sum_from(127, [("Z62", 0.75), ("X0*Z126", -0.25)])
        path = tmp_path / "snap.npz"
        s.to_npz(path, gate_index=17, delta=1e-4)
        back = PauliSum.from_npz(path)
        assert back.n == 127
        assert np.array_equal(back.bits, s.bits)
        assert np.array_equal(back.coeffs, s.coeffs)

    def test_npz_members_stored(self, tmp_path):
        s = _sum_from(127, [("Z62", 0.75), ("X0*Z126", -0.25), ("Y64*X65", 0.1)])
        path = tmp_path / "snap.npz"
        s.to_npz(path, gate_index=17, delta=1e-4)
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert sorted(m.filename for m in members) == [
            "bits.npy", "coeffs.npy", "delta.npy", "gate_index.npy", "n.npy"]
        assert all(m.compress_type == zipfile.ZIP_STORED for m in members)
        with np.load(path) as data:
            assert data["gate_index"].shape == () and data["gate_index"] == 17
            assert data["delta"].shape == () and data["delta"] == 1e-4
        back = PauliSum.from_npz(path)
        assert back.n == 127
        assert back.bits.tobytes() == s.bits.tobytes()
        assert back.coeffs.tobytes() == s.coeffs.tobytes()

    def test_npz_deflated_archive_loads(self, tmp_path):
        # the members of snapshots written before they were stored
        s = _sum_from(127, [("Z62", 0.75), ("X0*Z126", -0.25), ("Y64*X65", 0.1)])
        path = tmp_path / "deflated.npz"
        np.savez_compressed(path, n=127, bits=s.bits, coeffs=s.coeffs, gate_index=17, delta=1e-4)
        with zipfile.ZipFile(path) as archive:
            assert all(m.compress_type == zipfile.ZIP_DEFLATED for m in archive.infolist())
        back = PauliSum.from_npz(path)
        assert back.n == 127
        assert back.bits.tobytes() == s.bits.tobytes()
        assert back.coeffs.tobytes() == s.coeffs.tobytes()

    def test_npz_in_any_row_order_loads_canonical(self, tmp_path):
        s = _sum_from(70, [("Z0", 1.0), ("X65", -0.5), ("Y3*Z69", 0.25), ("X1", 0.125)])
        shuffle = [2, 0, 3, 1]
        path = tmp_path / "shuffled.npz"
        np.savez_compressed(path, n=70, bits=s.bits[shuffle], coeffs=s.coeffs[shuffle])
        back = PauliSum.from_npz(path)
        assert np.array_equal(back.bits, s.bits)
        assert np.array_equal(back.coeffs, s.coeffs)

    def test_npz_repeated_row_rejected(self, tmp_path):
        s = _sum_from(4, [("Z0", 1.0), ("X1", 0.5)])
        path = tmp_path / "repeated.npz"
        np.savez_compressed(path, n=4, bits=s.bits[[1, 0, 1]], coeffs=np.array([0.5, 1.0, 2.0]))
        with pytest.raises(ValueError, match="repeats"):
            PauliSum.from_npz(path)

    @pytest.mark.parametrize("case, match", [
        ("narrow", "rows of shape"),
        ("flat", "rows of shape"),
        ("signed", "int64 rows"),
        ("extra-coefficient", "coefficients of shape"),
        ("padding", "past qubit 69"),
        ("zero", "zero coefficient"),
    ])
    def test_npz_corrupt_snapshot_rejected(self, tmp_path, case, match):
        s = _sum_from(70, [("Z0", 1.0), ("X65", -0.5)])
        bits, coeffs = s.bits.copy(), s.coeffs.copy()
        if case == "narrow":  # the rows of an n <= 64 snapshot
            bits = bits[:, [0, 2]]
        elif case == "flat":
            bits = bits.ravel()
        elif case == "signed":
            bits = bits.astype(np.int64)
        elif case == "extra-coefficient":
            coeffs = np.append(coeffs, 0.25)
        elif case == "padding":  # qubit 70 of the x half
            bits[1, 3] |= np.uint64(1 << 6)
        else:
            coeffs[1] = 0.0
        path = tmp_path / "corrupt.npz"
        np.savez_compressed(path, n=70, bits=bits, coeffs=coeffs)
        with pytest.raises(ValueError, match=match):
            PauliSum.from_npz(path)

    def test_npz_full_last_word_loads(self, tmp_path):
        s = _sum_from(128, [("Z127", 1.0), ("X63*Y64", -0.5)])
        path = tmp_path / "full.npz"
        s.to_npz(path)
        assert PauliSum.from_npz(path).bits.tobytes() == s.bits.tobytes()

    def test_csv_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\nZ0,1.0\n")
        with pytest.raises(ValueError):
            PauliSum.from_csv(path, 3)
