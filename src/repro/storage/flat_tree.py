"""CSR-packed tree-index labels — the forest half of the ``"flat"`` backend.

The dict backend stores one ``{target: δ^T}`` dict per forest position.
:class:`FlatTreeLabelStore` packs all of them into three shared arrays:

* ``offsets`` — ``array('q')``, position ``pos``'s run is
  ``offsets[pos] .. offsets[pos+1]``;
* ``targets`` — ``array('q')``, ascending node ids within each run (so a
  lookup is one binary search);
* ``dists`` — ``array('q')`` with ``-1`` encoding ``INF`` when every
  finite distance is an integer, ``array('d')`` (native ``inf``)
  otherwise.

The store is sequence-of-mappings compatible: ``store[pos]`` returns a
read-only :class:`TreeRunView` so code written against ``list[dict]``
(serialization, stats) iterates it unchanged, while the hot
``local_get`` path bisects the packed run directly.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from itertools import chain, islice

from repro.exceptions import StorageError
from repro.graphs.graph import INF, Weight
from repro.kernels import numpy_available
from repro.storage.flat_labels import (
    FLOAT_TYPECODES,
    INT_DIST_TYPECODE,
    OFFSET_TYPECODE,
)

#: Sentinel for ``INF`` inside an integer distance array (distances are
#: non-negative, so -1 is unambiguous).
INF_SENTINEL = -1


def pack_optional_inf(values: list[Weight]) -> array:
    """Pack distances that may include ``INF`` into a typed array."""
    if all(isinstance(value, int) or value == INF for value in values):
        return array(
            INT_DIST_TYPECODE,
            (INF_SENTINEL if value == INF else value for value in values),
        )
    return array("d", values)


class TreeRunView(Mapping):
    """Read-only mapping view of one position's packed label run."""

    __slots__ = ("_store", "_pos")

    def __init__(self, store: "FlatTreeLabelStore", pos: int) -> None:
        self._store = store
        self._pos = pos

    def __getitem__(self, target: int) -> Weight:
        found = self._store.local_get(self._pos, target, _MISSING)
        if found is _MISSING:
            raise KeyError(target)
        return found

    def get(self, target: int, default=None):
        return self._store.local_get(self._pos, target, default)

    def __iter__(self):
        return self._store.iter_targets(self._pos)

    def __len__(self) -> int:
        return self._store.run_size(self._pos)


_MISSING = object()


class FlatTreeLabelStore(Sequence):
    """Immutable CSR store of per-position tree labels.

    Indexing (``store[pos]``) yields :class:`TreeRunView` mappings;
    :meth:`local_get` is the direct lookup used by
    :meth:`repro.core.construction.TreeIndex.local_distance`.
    """

    storage_backend = "flat"

    __slots__ = ("_offsets", "_targets", "_dists", "_views")

    def __init__(
        self, offsets: array, targets: array, dists: array, *, validate: bool = True
    ) -> None:
        """Wrap CSR arrays; ``validate=False`` skips the per-entry scan.

        The cheap endpoint/length invariants are always checked.
        ``validate=False`` is reserved for arrays whose bytes were
        already integrity-verified — the mmap snapshot loader adopts
        CRC-checked views this way so opening a snapshot does not page
        in (or iterate) every label entry.
        """
        if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != len(targets):
            raise StorageError(
                f"tree-label offsets span "
                f"[{offsets[0] if len(offsets) else '?'}, "
                f"{offsets[-1] if len(offsets) else '?'}] "
                f"but the store holds {len(targets)} entries"
            )
        if len(targets) != len(dists):
            raise StorageError(
                f"{len(targets)} tree-label targets but {len(dists)} distances"
            )
        if validate and not (numpy_available() and _well_formed(offsets, targets)):
            _check_runs(offsets, targets)
        self._offsets = offsets
        self._targets = targets
        self._dists = dists
        # Lazily built, kernel-owned NumPy views (repro.kernels.views).
        self._views = None

    @classmethod
    def from_labels(cls, labels) -> "FlatTreeLabelStore":
        """Pack a sequence of ``{target: distance}`` mappings."""
        if isinstance(labels, cls):
            return labels
        if numpy_available():
            packed = _pack_numpy(labels)
            if packed is not None:
                return cls(*packed)
        offsets = array(OFFSET_TYPECODE, [0])
        targets = array(OFFSET_TYPECODE)
        dists: list[Weight] = []
        for label in labels:
            for target in sorted(label):
                targets.append(target)
                dists.append(label[target])
            offsets.append(len(targets))
        return cls(offsets, targets, pack_optional_inf(dists))

    def to_dicts(self) -> list[dict[int, Weight]]:
        """Unpack into the dict backend's ``list[dict]`` layout."""
        offsets = self._offsets.tolist()
        dists = self._dists
        if dists.typecode not in FLOAT_TYPECODES and INF_SENTINEL in dists:
            dists = (INF if value == INF_SENTINEL else value for value in dists)
        # Keys share one int object per node id, as the Python sweep's
        # labels share the elimination's node ids, instead of one per entry.
        targets = self._targets
        if len(targets) and min(targets) >= 0:
            targets = map(list(range(max(targets) + 1)).__getitem__, targets)
        pairs = zip(targets, dists)
        return [
            dict(islice(pairs, stop - start))
            for start, stop in zip(offsets, offsets[1:])
        ]

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, pos):
        if isinstance(pos, slice):
            return [TreeRunView(self, p) for p in range(*pos.indices(len(self)))]
        if pos < 0:
            pos += len(self)
        if not 0 <= pos < len(self):
            raise IndexError(pos)
        return TreeRunView(self, pos)

    # ------------------------------------------------------------------
    # Direct accessors
    # ------------------------------------------------------------------

    def run_size(self, pos: int) -> int:
        """Number of stored targets at ``pos``."""
        return self._offsets[pos + 1] - self._offsets[pos]

    def total_entries(self) -> int:
        """Stored (target, distance) pairs across all positions."""
        return len(self._targets)

    def iter_targets(self, pos: int):
        """Iterate the target ids of ``pos``'s run (ascending)."""
        start, stop = self._offsets[pos], self._offsets[pos + 1]
        targets = self._targets
        for i in range(start, stop):
            yield targets[i]

    def local_get(self, pos: int, target: int, default=None):
        """δ^T lookup: binary search ``target`` inside ``pos``'s run."""
        start, stop = self._offsets[pos], self._offsets[pos + 1]
        i = bisect_left(self._targets, target, start, stop)
        if i == stop or self._targets[i] != target:
            return default
        value = self._dists[i]
        if value == INF_SENTINEL and self._dists.typecode not in FLOAT_TYPECODES:
            return INF
        return value

    def resident_bytes(self) -> int:
        """Actual bytes held by the packed arrays (buffers + headers)."""
        return sum(
            sys.getsizeof(buf)
            for buf in (self._offsets, self._targets, self._dists)
        )

    def csr_arrays(self) -> tuple[array, array, array]:
        """``(offsets, targets, dists)`` backing arrays.

        Exposed for the binary snapshot writer; callers must not mutate.
        """
        return self._offsets, self._targets, self._dists

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlatTreeLabelStore):
            return NotImplemented
        return (
            list(self._offsets) == list(other._offsets)
            and list(self._targets) == list(other._targets)
            and list(self._dists) == list(other._dists)
        )

    def __hash__(self) -> int:  # pragma: no cover - stores are not dict keys
        return id(self)


def _check_runs(offsets, targets) -> None:
    """Raise on the first non-monotone offset or non-ascending run."""
    previous = 0
    for pos in range(len(offsets) - 1):
        start, stop = offsets[pos], offsets[pos + 1]
        if start != previous or stop < start:
            raise StorageError(f"tree-label offsets are not monotone at position {pos}")
        previous = stop
        last = -1
        for i in range(start, stop):
            if targets[i] <= last:
                raise StorageError(
                    f"tree-label run of position {pos} is not strictly "
                    f"ascending in target id"
                )
            last = targets[i]


def _well_formed(offsets, targets) -> bool:
    """:func:`_check_runs` as array operations: True when it would pass.

    A False answer sends the caller to :func:`_check_runs`, which names
    the offending position.
    """
    import numpy as np

    from repro.kernels.views import as_ndarray

    bounds = as_ndarray(offsets).astype(np.int64)
    if (bounds[1:] < bounds[:-1]).any():
        return False
    ids = as_ndarray(targets).astype(np.int64)
    ascending = np.ones(ids.size, dtype=bool)
    ascending[1:] = ids[1:] > ids[:-1]
    starts = bounds[:-1][bounds[1:] > bounds[:-1]]
    ascending[starts] = ids[starts] > -1
    return bool(ascending.all())


def _pack_numpy(labels):
    """:meth:`FlatTreeLabelStore.from_labels` arrays, sorted by (position,
    target) with one ``argsort`` unless the runs already ascend;
    ``None`` leaves non-integer targets and distances that are not all
    ``int`` to the Python packer."""
    import numpy as np

    from repro.kernels.views import as_typed_array

    sizes = np.fromiter(map(len, labels), dtype=np.int64, count=len(labels))
    total = int(sizes.sum())
    values = [label.values() for label in labels]
    if not set(map(type, chain.from_iterable(values))) <= {int}:
        return None
    try:
        targets = np.fromiter(chain.from_iterable(labels), dtype=np.int64, count=total)
        dists = np.fromiter(chain.from_iterable(values), dtype=np.int64, count=total)
    except (OverflowError, TypeError, ValueError):
        return None
    if total and targets.min() < 0:
        return None
    width = int(targets.max()) + 1 if total else 1
    key = np.repeat(np.arange(len(labels), dtype=np.int64) * width, sizes) + targets
    if not (key[1:] > key[:-1]).all():
        order = np.argsort(key)
        targets, dists = targets[order], dists[order]
    del key
    offsets = np.zeros(len(labels) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return (
        as_typed_array(OFFSET_TYPECODE, offsets),
        as_typed_array(OFFSET_TYPECODE, targets),
        as_typed_array(INT_DIST_TYPECODE, dists),
    )
