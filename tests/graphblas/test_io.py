"""Tests for triple-file reading."""

import io

import numpy as np

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

