"""D4M associative arrays.

An :class:`Assoc` is the D4M data structure the paper's prior work used for
traffic matrices: a sparse matrix whose rows and columns are labelled by sorted
lists of strings, so arbitrary identifiers (IP addresses, domain names, time
stamps) can index the array directly.  Internally an Assoc is a pair of
:class:`~repro.d4m.string_table.StringTable` key tables plus a hypersparse
:class:`~repro.graphblas.matrix.Matrix` adjacency; every Assoc operation
reduces to key-table manipulation plus a GraphBLAS operation, mirroring the
Matlab/Octave D4M implementation.

The D4M baseline matters for the reproduction because Figure 2 of the paper
compares hierarchical GraphBLAS against hierarchical/flat D4M ingest rates:
the string-key bookkeeping is exactly the overhead GraphBLAS integer indexing
removes.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..graphblas import Matrix, binary
from ..graphblas.binaryop import BinaryOp
from .string_table import StringTable

__all__ = ["Assoc"]

KeyLike = Union[str, int, float]


def _as_key_list(keys) -> list:
    if isinstance(keys, (str, int, float)):
        return [keys]
    return list(keys)


class Assoc:
    """A D4M associative array.

    Parameters
    ----------
    row_keys, col_keys:
        Row/column labels, one per triple (strings or values convertible to
        strings).
    values:
        Numeric values, one per triple, or a scalar broadcast to every triple.
    dup_op:
        Operator combining duplicate (row, col) triples (default ``plus``).

    Examples
    --------
    >>> A = Assoc(["1.2.3.4", "1.2.3.4"], ["5.6.7.8", "9.9.9.9"], [1, 1])
    >>> A.nnz
    2
    >>> A["1.2.3.4", "5.6.7.8"]
    1.0
    """

    __slots__ = ("_row_table", "_col_table", "_matrix")

    def __init__(
        self,
        row_keys: Iterable[KeyLike] = (),
        col_keys: Iterable[KeyLike] = (),
        values: Union[Sequence[float], float] = 1.0,
        *,
        dup_op: Optional[BinaryOp] = None,
        dtype="fp64",
    ):
        rows = _as_key_list(row_keys)
        cols = _as_key_list(col_keys)
        if len(rows) != len(cols):
            raise ValueError(
                f"row and column key lists differ in length ({len(rows)} vs {len(cols)})"
            )
        if np.isscalar(values):
            vals = np.full(len(rows), values, dtype=np.float64)
        else:
            vals = np.asarray(list(values), dtype=np.float64)
            if vals.size != len(rows):
                raise ValueError(
                    f"values length {vals.size} does not match key length {len(rows)}"
                )
        self._row_table = StringTable(rows)
        self._col_table = StringTable(cols)
        nr = max(len(self._row_table), 1)
        nc = max(len(self._col_table), 1)
        self._matrix = Matrix(dtype, nr, nc)
        if rows:
            ri = self._row_table.require(rows)
            ci = self._col_table.require(cols)
            self._matrix.build(ri, ci, vals, dup_op=dup_op or binary.plus)

    # ------------------------------------------------------------------ #
    # alternative constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def _from_parts(cls, row_table: StringTable, col_table: StringTable, matrix: Matrix) -> "Assoc":
        out = cls.__new__(cls)
        out._row_table = row_table
        out._col_table = col_table
        out._matrix = matrix
        return out

    @classmethod
    def empty(cls, dtype="fp64") -> "Assoc":
        """An associative array with no triples."""
        return cls((), (), dtype=dtype)

    @classmethod
    def from_matrix(cls, matrix: Matrix, row_keys: Sequence[KeyLike], col_keys: Sequence[KeyLike]) -> "Assoc":
        """Wrap an existing adjacency matrix with explicit key labels.

        ``row_keys[i]`` labels matrix row ``i``; the keys must already be
        sorted and unique (as D4M requires).
        """
        rt = StringTable(row_keys)
        ct = StringTable(col_keys)
        if len(rt) != matrix.nrows or len(ct) != matrix.ncols:
            raise ValueError(
                "key table sizes must equal matrix dimensions "
                f"({len(rt)}x{len(ct)} vs {matrix.nrows}x{matrix.ncols})"
            )
        return cls._from_parts(rt, ct, matrix.dup())

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #

    @property
    def row(self) -> StringTable:
        """The sorted row-key table."""
        return self._row_table

    @property
    def col(self) -> StringTable:
        """The sorted column-key table."""
        return self._col_table

    @property
    def adjacency(self) -> Matrix:
        """The underlying hypersparse adjacency matrix (positional indices)."""
        return self._matrix

    @property
    def nnz(self) -> int:
        """Number of stored triples."""
        return self._matrix.nvals

    @property
    def shape(self) -> Tuple[int, int]:
        """``(number of row keys, number of column keys)``."""
        return (len(self._row_table), len(self._col_table))

    @property
    def memory_usage(self) -> int:
        """Approximate bytes used by the key tables and the adjacency."""
        return int(
            self._matrix.memory_usage
            + self._row_table.keys.nbytes
            + self._col_table.keys.nbytes
        )

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #

    def find(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (row_keys, col_keys, values) triples, D4M's ``find`` operation."""
        r, c, v = self._matrix.extract_tuples()
        return (
            self._row_table.keys[r.astype(np.int64)],
            self._col_table.keys[c.astype(np.int64)],
            v,
        )

    triples = find

    def getval(self, row_key: KeyLike, col_key: KeyLike, default=None):
        """Read a single value by key pair."""
        ri = self._row_table.lookup([row_key])[0]
        ci = self._col_table.lookup([col_key])[0]
        if ri < 0 or ci < 0:
            return default
        return self._matrix.extractElement(int(ri), int(ci), default)

    def __getitem__(self, key):
        if isinstance(key, tuple) and len(key) == 2:
            rk, ck = key
            if isinstance(rk, (str, int, float)) and isinstance(ck, (str, int, float)):
                return self.getval(rk, ck)
            return self.subsref(rk, ck)
        raise TypeError("Assoc indexing requires a (row, col) key pair")

    def __contains__(self, key) -> bool:
        return self.getval(key[0], key[1]) is not None

    def __iter__(self):
        rk, ck, v = self.find()
        for i in range(v.size):
            yield str(rk[i]), str(ck[i]), float(v[i])

    def subsref(self, row_sel=None, col_sel=None) -> "Assoc":
        """Subscript by key lists, ``slice(None)`` (everything), or ``'prefix*'`` patterns."""
        row_idx = self._resolve_selector(self._row_table, row_sel)
        col_idx = self._resolve_selector(self._col_table, col_sel)
        kwargs = {}
        if row_idx is not None:
            kwargs["rows"] = row_idx
        if col_idx is not None:
            kwargs["cols"] = col_idx
        sub = self._matrix.extract(**kwargs)
        new_rows = self._row_table.take(row_idx) if row_idx is not None else self._row_table
        new_cols = self._col_table.take(col_idx) if col_idx is not None else self._col_table
        # extract() reindexes against the supplied (sorted) index lists, which
        # matches the take() ordering because both are sorted ascending.
        sub.resize(max(len(new_rows), 1), max(len(new_cols), 1))
        return Assoc._from_parts(new_rows, new_cols, sub)

    @staticmethod
    def _resolve_selector(table: StringTable, sel):
        if sel is None or (isinstance(sel, slice) and sel == slice(None)):
            return None
        if isinstance(sel, str) and sel.endswith("*"):
            return table.startswith(sel[:-1])
        if isinstance(sel, tuple) and len(sel) == 2:
            return table.select_range(sel[0], sel[1])
        keys = _as_key_list(sel)
        idx = table.lookup(keys)
        return idx[idx >= 0]

    # ------------------------------------------------------------------ #
    # algebra
    # ------------------------------------------------------------------ #

    def _align(self, other: "Assoc") -> Tuple[StringTable, StringTable, Matrix, Matrix]:
        """Re-express both operands over the union of their key tables."""
        row_table, self_rmap, other_rmap = self._row_table.union(other._row_table)
        col_table, self_cmap, other_cmap = self._col_table.union(other._col_table)
        a = self._reindexed(self_rmap, self_cmap, len(row_table), len(col_table))
        b = other._reindexed(other_rmap, other_cmap, len(row_table), len(col_table))
        return row_table, col_table, a, b

    def _reindexed(self, rmap: np.ndarray, cmap: np.ndarray, nrows: int, ncols: int) -> Matrix:
        r, c, v = self._matrix.extract_tuples()
        out = Matrix(self._matrix.dtype, max(nrows, 1), max(ncols, 1))
        if r.size:
            out.build(rmap[r.astype(np.int64)], cmap[c.astype(np.int64)], v, dup_op=binary.plus)
        return out

    def ewise(self, other: "Assoc", op: BinaryOp, *, union: bool = True) -> "Assoc":
        """Element-wise combination over the union (or intersection) of keys."""
        row_table, col_table, a, b = self._align(other)
        result = a.ewise_add(b, op) if union else a.ewise_mult(b, op)
        return Assoc._from_parts(row_table, col_table, result)

    def __add__(self, other: "Assoc") -> "Assoc":
        """Assoc addition: union of keys, summed values (the D4M workhorse)."""
        if not isinstance(other, Assoc):
            return NotImplemented
        return self.ewise(other, binary.plus, union=True)

    def __and__(self, other: "Assoc") -> "Assoc":
        """Element-wise minimum over the intersection of keys (D4M ``&``)."""
        return self.ewise(other, binary.min, union=False)

    def __or__(self, other: "Assoc") -> "Assoc":
        """Element-wise maximum over the union of keys (D4M ``|``)."""
        return self.ewise(other, binary.max, union=True)

    def multiply(self, other: "Assoc") -> "Assoc":
        """Element-wise product over the intersection of keys."""
        return self.ewise(other, binary.times, union=False)

    def transpose(self) -> "Assoc":
        """Swap rows and columns."""
        return Assoc._from_parts(self._col_table, self._row_table, self._matrix.transpose())

    @property
    def T(self) -> "Assoc":
        """Alias of :meth:`transpose`."""
        return self.transpose()

    def sum_rows(self) -> "Assoc":
        """Column sums as a 1 x ncols associative array."""
        vec = self._matrix.reduce_columnwise()
        idx, vals = vec.to_coo()
        keys = self._col_table.keys[idx.astype(np.int64)]
        return Assoc(["sum"] * len(keys), keys.tolist(), vals)

    def sum_cols(self) -> "Assoc":
        """Row sums as an nrows x 1 associative array."""
        vec = self._matrix.reduce_rowwise()
        idx, vals = vec.to_coo()
        keys = self._row_table.keys[idx.astype(np.int64)]
        return Assoc(keys.tolist(), ["sum"] * len(keys), vals)

    def logical(self) -> "Assoc":
        """Replace every stored value with 1 (D4M ``logical``/``spones``)."""
        return Assoc._from_parts(self._row_table, self._col_table, self._matrix.apply("one"))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Assoc):
            return NotImplemented
        return (
            self._row_table == other._row_table
            and self._col_table == other._col_table
            and self._matrix.isequal(other._matrix)
        )

    def __bool__(self) -> bool:
        return self.nnz > 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Assoc {self.shape[0]}x{self.shape[1]} keys, nnz={self.nnz}>"

    def display(self, max_triples: int = 20) -> str:
        """Human-readable triple listing (D4M ``disp``)."""
        rk, ck, v = self.find()
        lines = [f"Assoc with {v.size} triples:"]
        for i in range(min(max_triples, v.size)):
            lines.append(f"  ({rk[i]}, {ck[i]}) : {v[i]}")
        if v.size > max_triples:
            lines.append(f"  ... {v.size - max_triples} more")
        return "\n".join(lines)
