"""Tests for triple-file reading and random matrix generation."""

import io

import numpy as np

from repro.graphblas import random_hypersparse
from repro.graphblas.io import read_triples_arrays


class TestTriples:
    def test_comments_and_blank_lines_skipped(self):
        text = "# header\n\n1\t2\t3.0\n"
        rows, cols, vals = read_triples_arrays(io.StringIO(text))
        assert rows.tolist() == [1] and cols.tolist() == [2] and vals.tolist() == [3.0]

    def test_custom_separator(self, tmp_path):
        path = tmp_path / "triples.csv"
        path.write_text("0,1,2.0\n")
        rows, cols, vals = read_triples_arrays(path, sep=",")
        assert (rows.tolist(), cols.tolist(), vals.tolist()) == ([0], [1], [2.0])

    def test_stream_order_and_duplicates_kept(self):
        text = f"{2**40}\t{2**50}\t1.0\n5\t5\t2.0\n{2**40}\t{2**50}\t4.0\n"
        rows, cols, vals = read_triples_arrays(io.StringIO(text))
        assert rows.dtype == np.uint64 and cols.dtype == np.uint64
        assert rows.tolist() == [2**40, 5, 2**40]
        assert cols.tolist() == [2**50, 5, 2**50]
        assert vals.tolist() == [1.0, 2.0, 4.0]


class TestRandom:
    def test_reproducible_with_seed(self):
        A = random_hypersparse(500, seed=7)
        B = random_hypersparse(500, seed=7)
        assert A.isequal(B)

    def test_nvals_close_to_requested(self):
        A = random_hypersparse(1000, seed=1)
        assert A.nvals >= 990  # collisions vanishingly rare over 2^32 x 2^32

    def test_dtypes(self):
        assert random_hypersparse(10, dtype="bool", seed=0).dtype.is_bool
        assert random_hypersparse(10, dtype="int64", seed=0, value_range=(1, 5)).dtype.is_integer
        assert random_hypersparse(10, dtype="fp32", seed=0).dtype.is_float

    def test_custom_shape(self):
        A = random_hypersparse(50, nrows=100, ncols=200, seed=2)
        assert A.nrows == 100 and A.ncols == 200
        rows, cols, _ = A.extract_tuples()
        assert rows.max() < 100 and cols.max() < 200
