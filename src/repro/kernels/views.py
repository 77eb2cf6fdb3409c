"""Zero-copy NumPy views onto the CSR flat stores.

``array.array`` exposes the buffer protocol, so ``np.frombuffer`` wraps
the store's typed arrays without copying a byte.  The resulting views
are marked read-only (the stores are immutable; the kernels must never
become a mutation path) and cached on the store itself — building them
once per store, not per query.

Two widenings are the only copies this module ever makes, both done
once at view-build time and only when needed:

* distance arrays narrower than 8 bytes (a v4 binary snapshot stores
  the narrowest sufficient typecode) are upcast to ``int64`` so kernel
  sums cannot overflow the storage width;
* integer tree-label distances are also materialized as ``float64``
  with the ``-1`` INF sentinel decoded to ``inf``, which lets the
  same-tree (d2) kernel min-combine runs without branching on the
  sentinel.

This module imports NumPy at module level; only import it after
:func:`repro.kernels.resolve_kernel` has selected the numpy kernel.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.storage.flat_labels import FlatLabelStore
from repro.storage.flat_tree import INF_SENTINEL, FlatTreeLabelStore

#: ``array`` typecodes describing float layouts (everything else stored
#: by the flat backend is an integer family).
FLOAT_TYPECODES = ("f", "d")


def as_ndarray(values) -> np.ndarray:
    """Read-only zero-copy view of one typed buffer.

    Accepts anything the flat stores hold: ``array.array`` (the
    builders' layout) or a :class:`~repro.storage.mapped.MappedArray`
    view over an mmap-loaded snapshot — the latter exposes its typed
    ``memoryview`` as ``.raw``, so the resulting ndarray reads the
    mapped file's pages directly (still zero copies between disk and
    kernel).
    """
    buffer = getattr(values, "raw", values)
    view = np.frombuffer(buffer, dtype=np.dtype(values.typecode))
    if view.flags.writeable:
        view.flags.writeable = False
    return view


def as_typed_array(typecode: str, values: np.ndarray) -> array:
    """``values`` copied into an ``array(typecode)`` of the same item layout.

    The inverse of :func:`as_ndarray`, for arrays a builder hands to a
    flat store.
    """
    out = array(typecode)
    out.frombytes(memoryview(np.ascontiguousarray(values)).cast("B"))
    return out


def _widened(view: np.ndarray, values: array) -> np.ndarray:
    """``view`` upcast so pairwise sums cannot overflow; no-op when wide.

    Integer distances widen to ``int64``, floats to ``float64`` —
    8-byte stores (the builders' native layout) come back unchanged,
    so the common case stays zero-copy.
    """
    wide = np.float64 if values.typecode in FLOAT_TYPECODES else np.int64
    if view.dtype == wide:
        return view
    return view.astype(wide)


class LabelViews:
    """NumPy views over one :class:`FlatLabelStore`'s CSR arrays."""

    __slots__ = ("offsets", "ranks", "dists", "integral", "n")

    def __init__(self, store: FlatLabelStore) -> None:
        order, offsets, hub_ranks, hub_dists = store.csr_arrays()
        self.offsets = as_ndarray(offsets)
        self.ranks = as_ndarray(hub_ranks)
        self.dists = _widened(as_ndarray(hub_dists), hub_dists)
        self.integral = hub_dists.typecode not in FLOAT_TYPECODES
        self.n = len(order)


class TreeViews:
    """NumPy views over one :class:`FlatTreeLabelStore`'s CSR arrays.

    ``dists_inf`` is the float64 working array with the integer INF
    sentinel decoded to ``np.inf`` — the form every tree kernel reads.
    """

    __slots__ = ("offsets", "targets", "dists_inf", "integral")

    def __init__(self, store: FlatTreeLabelStore) -> None:
        offsets, targets, dists = store.csr_arrays()
        self.offsets = as_ndarray(offsets)
        self.targets = as_ndarray(targets)
        self.integral = dists.typecode not in FLOAT_TYPECODES
        raw = as_ndarray(dists)
        decoded = raw.astype(np.float64)
        if self.integral:
            decoded[raw == INF_SENTINEL] = np.inf
        decoded.flags.writeable = False
        self.dists_inf = decoded


def label_views(store: FlatLabelStore) -> LabelViews:
    """The (lazily built, store-cached) views of a flat label store."""
    views = store._views
    if views is None:
        views = store._views = LabelViews(store)
    return views


def tree_views(store: FlatTreeLabelStore) -> TreeViews:
    """The (lazily built, store-cached) views of a flat tree store."""
    views = store._views
    if views is None:
        views = store._views = TreeViews(store)
    return views


__all__ = [
    "FLOAT_TYPECODES",
    "LabelViews",
    "TreeViews",
    "as_ndarray",
    "label_views",
    "tree_views",
]
