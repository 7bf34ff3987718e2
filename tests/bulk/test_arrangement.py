"""Arrangements: address maps (paper Figure 5), pack/unpack, step access."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bulk import ColumnWise, RowWise, make_arrangement
from repro.errors import ArrangementError


class TestAddressMaps:
    def test_row_wise_figure5(self):
        # b_j[i] at address j*n + i (p=4 arrays of n=6).
        arr = RowWise(words=6, p=4)
        assert arr.global_address(0, 0) == 0
        assert arr.global_address(5, 0) == 5
        assert arr.global_address(0, 1) == 6
        assert arr.global_address(2, 3) == 3 * 6 + 2

    def test_column_wise_figure5(self):
        # b_j[i] at address i*p + j.
        arr = ColumnWise(words=6, p=4)
        assert arr.global_address(0, 0) == 0
        assert arr.global_address(0, 3) == 3
        assert arr.global_address(1, 0) == 4
        assert arr.global_address(5, 2) == 5 * 4 + 2

    def test_step_addresses_row(self):
        arr = RowWise(words=8, p=4)
        np.testing.assert_array_equal(arr.step_addresses(3), [3, 11, 19, 27])

    def test_step_addresses_column_consecutive(self):
        arr = ColumnWise(words=8, p=4)
        np.testing.assert_array_equal(arr.step_addresses(3), [12, 13, 14, 15])

    def test_address_maps_are_bijections(self):
        for arr in (RowWise(5, 3), ColumnWise(5, 3)):
            seen = {
                int(arr.global_address(i, j))
                for i in range(5)
                for j in range(3)
            }
            assert seen == set(range(15)), arr.name

    def test_trace_addresses_shape(self):
        arr = ColumnWise(words=8, p=4)
        mat = arr.trace_addresses(np.array([0, 3, 7]))
        assert mat.shape == (3, 4)
        np.testing.assert_array_equal(mat[1], [12, 13, 14, 15])

    def test_trace_addresses_bounds(self):
        arr = ColumnWise(words=8, p=4)
        with pytest.raises(ArrangementError):
            arr.trace_addresses(np.array([8]))

    def test_trace_addresses_requires_1d(self):
        arr = RowWise(words=8, p=4)
        with pytest.raises(ArrangementError):
            arr.trace_addresses(np.zeros((2, 2), dtype=np.int64))


class TestGeometryValidation:
    @pytest.mark.parametrize("cls", [RowWise, ColumnWise])
    def test_bad_sizes(self, cls):
        with pytest.raises(ArrangementError):
            cls(0, 4)
        with pytest.raises(ArrangementError):
            cls(4, 0)

    def test_total_words(self):
        assert RowWise(6, 4).total_words == 24


class TestPackUnpack:
    @pytest.mark.parametrize("cls", [RowWise, ColumnWise])
    def test_roundtrip(self, cls, rng):
        arr = cls(words=8, p=5)
        buf = arr.allocate(np.float64)
        inputs = rng.uniform(-1, 1, size=(5, 8))
        arr.pack(inputs, buf)
        np.testing.assert_array_equal(arr.unpack(buf), inputs)

    @pytest.mark.parametrize("cls", [RowWise, ColumnWise])
    def test_short_inputs_zero_extended(self, cls):
        arr = cls(words=4, p=2)
        buf = arr.allocate(np.float64)
        arr.pack(np.ones((2, 2)), buf)
        out = arr.unpack(buf)
        np.testing.assert_array_equal(out, [[1, 1, 0, 0], [1, 1, 0, 0]])

    @pytest.mark.parametrize("cls", [RowWise, ColumnWise])
    def test_wrong_p_rejected(self, cls):
        arr = cls(words=4, p=2)
        with pytest.raises(ArrangementError):
            arr.pack(np.ones((3, 4)), arr.allocate(np.float64))

    @pytest.mark.parametrize("cls", [RowWise, ColumnWise])
    def test_too_many_words_rejected(self, cls):
        arr = cls(words=4, p=2)
        with pytest.raises(ArrangementError):
            arr.pack(np.ones((2, 5)), arr.allocate(np.float64))

    def test_column_buffer_layout(self):
        # The physical buffer is (n, p): a step is a contiguous row.
        arr = ColumnWise(words=3, p=4)
        buf = arr.allocate(np.float64)
        assert buf.shape == (3, 4)
        assert buf[1].flags["C_CONTIGUOUS"]

    def test_row_buffer_layout(self):
        arr = RowWise(words=3, p=4)
        buf = arr.allocate(np.float64)
        assert buf.shape == (4, 3)


class TestStepIO:
    @pytest.mark.parametrize("cls", [RowWise, ColumnWise])
    def test_read_write_step(self, cls, rng):
        arr = cls(words=6, p=4)
        buf = arr.allocate(np.float64)
        vals = rng.uniform(-1, 1, size=4)
        arr.word_view(buf)[2] = vals
        np.testing.assert_array_equal(arr.word_view(buf)[2], vals)
        # The step write must land at each input's word 2.
        unpacked = arr.unpack(buf)
        np.testing.assert_array_equal(unpacked[:, 2], vals)

    @given(st.integers(1, 16), st.integers(1, 12), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_global_address_consistent_with_physical_layout(self, words, p, seed):
        """Flattening the physical buffer in C order realises exactly the
        arrangement's global address map — the property that ties the cost
        simulation (addresses) to the engine (buffers)."""
        rng = np.random.default_rng(seed)
        i = int(rng.integers(0, words))
        j = int(rng.integers(0, p))
        for cls in (RowWise, ColumnWise):
            arr = cls(words, p)
            buf = arr.allocate(np.float64)
            vals = np.zeros(p)
            vals[j] = 1.0
            arr.word_view(buf)[i] = vals
            flat = buf.reshape(-1)
            assert flat[int(arr.global_address(i, j))] == 1.0


class TestFactory:
    def test_by_name(self):
        assert make_arrangement("row", 4, 2).name == "row"
        assert make_arrangement("column", 4, 2).name == "column"

    def test_unknown_name(self):
        with pytest.raises(ArrangementError, match="unknown"):
            make_arrangement("diagonal", 4, 2)

    def test_instance_passthrough(self):
        arr = ColumnWise(4, 2)
        assert make_arrangement(arr, 4, 2) is arr

    def test_instance_geometry_mismatch(self):
        with pytest.raises(ArrangementError):
            make_arrangement(ColumnWise(4, 2), 8, 2)
