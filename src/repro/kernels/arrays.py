"""Small NumPy helpers shared by the construction kernels and the NumPy
paths that sit beside their Python references (the core-tree parents and
the ``ForestLCA`` tour).

Light on purpose: loading a snapshot rebuilds the core-tree structure
through these, so importing this module pulls in nothing beyond NumPy.
"""

from __future__ import annotations

from itertools import chain

import numpy as np


def neighbor_csr(elimination) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, neighbors)``: the steps' neighbor ids as int64 CSR."""
    rows = [step.neighbors for step in elimination.steps]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    np.cumsum(counts, out=indptr[1:])
    neighbors = np.fromiter(
        chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1])
    )
    return indptr, neighbors


def optional_ids(values: list[int | None]) -> np.ndarray:
    """A position or parent list as int64, with ``None`` as ``-1``."""
    return np.fromiter(
        (-1 if v is None else v for v in values), dtype=np.int64, count=len(values)
    )


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``range(starts[i], starts[i] + counts[i])``."""
    ends = np.cumsum(counts)
    ramp = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64)
    return np.repeat(starts - (ends - counts), counts) + ramp
