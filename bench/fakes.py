"""Test doubles for the smoke check."""

from __future__ import annotations


class RefusingIngestor:
    """A matrix whose ``update`` refuses every ``every``-th batch.

    Everything else is the wrapped matrix, so the harness drives it exactly as
    it drives a real one; the refused batches must surface as failed operations
    and a failed result check, never as a crash.
    """

    def __init__(self, matrix, every: int = 7):
        self._matrix = matrix
        self._every = every
        self._calls = 0

    def update(self, rows, cols, values=1):
        self._calls += 1
        if self._calls % self._every == 0:
            raise RuntimeError(f"refused batch {self._calls} (injected)")
        return self._matrix.update(rows, cols, values)

    def __getattr__(self, name):
        return getattr(self._matrix, name)
