"""Versioned binary snapshots of built CT-Indexes (format version 4).

The JSON document of :mod:`repro.core.serialization` stays the
inspectable interchange format; this module adds the fast path: label
arrays written as raw little-endian machine words behind a checksummed
section table, so loading is ``array.frombytes`` instead of parsing
millions of JSON tokens.

Layout (full field-level description in ``docs/formats.md``)::

    header   8s magic ("RCTINDEX")  u32 version (4)  u32 section count
    table    per section: 12s name  u64 offset  u64 length  u32 crc32
    payload  concatenated section bodies

Sections: ``meta`` (small JSON: format tag, version, bandwidth, build
seconds), ``graph`` (original graph), ``reduction`` (reduced graph +
twin maps), ``elim`` (MDE steps + core adjacency), ``treelabels``
(CSR tree labels), ``core`` (vertex order + CSR 2-hop labels + core
graph).  Every typed array is prefixed with its typecode, item size and
count; every section's CRC-32 is verified before a single byte is
decoded, so truncated or bit-flipped snapshots raise
:class:`~repro.exceptions.SerializationError` instead of unpacking
garbage.

Version 4 writes every integer array with the *narrowest sufficient*
typecode of its signedness family (``b/h/i/q`` or ``B/H/I/Q``) instead
of fixed 8-byte words — on real graphs this roughly halves the
treelabels/core sections, which are almost entirely small distances and
node ids.  The loader reads versions 3 (always 8-byte/4-byte arrays)
and 4 alike: the typecode prefix already tells it the layout.

Loading defaults to the flat backend — the on-disk CSR arrays *are* the
in-memory representation — but ``backend="dict"`` unpacks into the
mutable dict layout.

``mmap=True`` goes one step further: the file is memory-mapped
read-only, every section's CRC is verified once against the mapped
pages, and the big CSR label sections (``treelabels``, ``core``) are
adopted as :class:`~repro.storage.mapped.MappedArray` views instead of
copies — the flat stores then read, and
:func:`repro.kernels.views.as_ndarray` wraps, the file's own pages.
N processes mapping one snapshot share a single resident copy through
the page cache (the ``repro.serving.fleet`` deployment shape).  See
``docs/formats.md`` for the view-vs-decode split and file-lifetime
rules.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import zlib
from array import array
from itertools import accumulate
from pathlib import Path
from typing import Union

from repro.exceptions import GraphError, ReproError, SerializationError
from repro.graphs.graph import INF, Graph, Weight, graph_from_edge_arrays
from repro.graphs.reductions import EquivalenceReduction
from repro.kernels import numpy_available
from repro.obs.tracing import span as obs_span, tracing_enabled
from repro.storage.flat_labels import FlatLabelStore
from repro.storage.flat_tree import INF_SENTINEL, FlatTreeLabelStore, pack_optional_inf
from repro.storage.mapped import LazyGraph, MappedArray, MappedSnapshot

PathLike = Union[str, os.PathLike]

#: First 8 bytes of every binary snapshot.
MAGIC = b"RCTINDEX"

#: Version written by :func:`save_ct_index_binary`.  Version 3 was the
#: first binary format (versions 1-2 are the JSON documents of
#: :mod:`repro.core.serialization`); version 4 narrows integer arrays
#: to their smallest sufficient typecode.
BINARY_FORMAT_VERSION = 4

#: Header versions :func:`load_ct_index_binary` accepts.
SUPPORTED_BINARY_VERSIONS = frozenset({3, 4})

_HEADER = struct.Struct("<8sII")
_SECTION = struct.Struct("<12sQQI")
_SECTION_NAMES = ("meta", "graph", "reduction", "elim", "treelabels", "core")

#: Typecode families a snapshot array may use.  v3 only ever wrote
#: ``q``/``I``/``B``/``d``; v4 narrows within the same signedness
#: family, so loaders accept the whole family wherever an integer
#: array is expected.
_SIGNED_INT_CODES = "bhiq"
_UNSIGNED_INT_CODES = "BHIQ"
_INT_CODES = _SIGNED_INT_CODES + _UNSIGNED_INT_CODES
#: Distance arrays: a signed integer family (with the -1 INF sentinel)
#: or float64.
_DIST_CODES = _SIGNED_INT_CODES + "d"
#: Hub-rank arrays: unsigned (v3 wrote 'I'; v4 narrows to B/H).
_RANK_CODES = "BHI"

#: twin_kind byte encoding (reduction section).
_TWIN_CODES = {None: 0, "true": 1, "false": 2}
_TWIN_KINDS = {code: kind for kind, code in _TWIN_CODES.items()}


# ----------------------------------------------------------------------
# Primitive writers / readers
# ----------------------------------------------------------------------


def _little_endian(values: array) -> array:
    """A little-endian copy of ``values`` (no-op on LE machines)."""
    if sys.byteorder == "big":  # pragma: no cover - no BE hardware in CI
        values = array(values.typecode, values)
        values.byteswap()
    return values


def _put_u64(buf: bytearray, value: int) -> None:
    buf += struct.pack("<Q", value)


def _put_array(buf: bytearray, values: array) -> None:
    """Typecode byte + item size byte + u64 count + raw LE items."""
    buf += values.typecode.encode("ascii")
    buf.append(values.itemsize)
    _put_u64(buf, len(values))
    buf += _little_endian(values).tobytes()


def _narrowed(values: array) -> array:
    """``values`` recoded to the narrowest typecode of its family.

    Integer arrays only — floats and empty arrays come back unchanged.
    Signed arrays stay signed (the -1 INF sentinel survives), unsigned
    stay unsigned.  With NumPy the bounds and the recoding run as array
    operations; the bytes are the same either way.
    """
    if values.typecode not in _INT_CODES or not len(values):
        return values
    signed = values.typecode in _SIGNED_INT_CODES
    if numpy_available():
        from repro.kernels.views import as_ndarray

        view = as_ndarray(values)
        lo, hi = int(view.min()), int(view.max())
    else:
        view = None
        lo, hi = min(values), max(values)
    for code in _SIGNED_INT_CODES if signed else _UNSIGNED_INT_CODES:
        bits = array(code).itemsize * 8
        if signed:
            fits = -(1 << (bits - 1)) <= lo and hi < 1 << (bits - 1)
        else:
            fits = hi < 1 << bits
        if fits:
            break
    if code == values.typecode:
        return values
    if view is None:
        return array(code, values)
    narrow = array(code)
    narrow.frombytes(view.astype(code).tobytes())
    return narrow


def _put_narrow(buf: bytearray, values: array) -> None:
    """:func:`_put_array` of the narrowest recoding (the v4 writer path)."""
    _put_array(buf, _narrowed(values))


def _put_blob(buf: bytearray, payload: bytes) -> None:
    _put_u64(buf, len(payload))
    buf += payload


class _Cursor:
    """Bounds-checked reader over one section's payload.

    ``data`` is ``bytes`` (copying load) or a ``memoryview`` over the
    mapped file.  With ``zero_copy=True`` (mmap mode, little-endian
    hosts) :meth:`typed_array` wraps the payload bytes in a
    :class:`~repro.storage.mapped.MappedArray` view instead of copying
    them into a private ``array.array``.
    """

    __slots__ = ("name", "data", "pos", "zero_copy")

    def __init__(self, name: str, data, *, zero_copy: bool = False) -> None:
        self.name = name
        self.data = data
        self.pos = 0
        self.zero_copy = zero_copy

    def _take(self, count: int) -> bytes:
        end = self.pos + count
        if count < 0 or end > len(self.data):
            raise SerializationError(
                f"section {self.name!r} is truncated "
                f"(needed {count} bytes at offset {self.pos})"
            )
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def typed_array(self, expected_typecode: str | None = None):
        typecode = bytes(self._take(1)).decode("ascii", "replace")
        itemsize = self._take(1)[0]
        count = self.u64()
        try:
            out = array(typecode)
        except ValueError as exc:
            raise SerializationError(
                f"section {self.name!r} holds an array of unknown "
                f"typecode {typecode!r}"
            ) from exc
        if expected_typecode is not None and typecode not in expected_typecode:
            raise SerializationError(
                f"section {self.name!r} holds a {typecode!r} array where "
                f"one of {expected_typecode!r} was expected"
            )
        if out.itemsize != itemsize:
            raise SerializationError(
                f"section {self.name!r} was written with {itemsize}-byte "
                f"{typecode!r} items; this platform uses {out.itemsize}-byte items"
            )
        chunk = self._take(count * itemsize)
        if self.zero_copy:
            return MappedArray(chunk, typecode)
        out.frombytes(chunk)
        return _little_endian(out)

    def skip_typed_array(self) -> None:
        """Advance past one typed array without decoding (or paging) it."""
        self._take(1)
        itemsize = self._take(1)[0]
        count = self.u64()
        if itemsize == 0:
            raise SerializationError(
                f"section {self.name!r} holds an array of zero-byte items"
            )
        self._take(count * itemsize)

    def blob(self) -> bytes:
        return self._take(self.u64())

    def done(self) -> None:
        if self.pos != len(self.data):
            raise SerializationError(
                f"section {self.name!r} has {len(self.data) - self.pos} "
                f"trailing bytes"
            )


def _weights_from_array(packed: array) -> list[Weight]:
    """Invert :func:`pack_optional_inf`; reject sub-sentinel garbage."""
    if packed.typecode in _SIGNED_INT_CODES:
        lowest = min(packed, default=0)
        if lowest >= 0:  # common case: no INF entries, no decode loop
            return list(packed)
        if lowest < INF_SENTINEL:
            raise SerializationError(
                f"negative distance {lowest} in integer weight array"
            )
        return [INF if value == INF_SENTINEL else value for value in packed]
    return list(packed)


# ----------------------------------------------------------------------
# Graph packing
# ----------------------------------------------------------------------


def _put_graph(buf: bytearray, graph: Graph) -> None:
    """Graph blob: ``n`` + the ``u < v`` edges in :meth:`Graph.edges` order."""
    _put_u64(buf, graph.n)
    if numpy_available():
        offsets, targets, weights = graph.csr_arrays()
        if weights is not None:
            for column in _upper_edge_columns(offsets, targets, weights):
                _put_narrow(buf, column)
            return
    us: list[int] = []
    vs: list[int] = []
    ws: list[Weight] = []
    for u, v, w in graph.edges():
        us.append(u)
        vs.append(v)
        ws.append(w)
    _put_narrow(buf, array("q", us))
    _put_narrow(buf, array("q", vs))
    _put_narrow(buf, pack_optional_inf(ws))


def _upper_edge_columns(offsets, targets, weights) -> list[array]:
    """The ``u``, ``v``, ``w`` columns of the ``u < v`` half of a CSR.

    Row-major with ascending targets, as :meth:`Graph.edges` yields them.
    """
    import numpy as np

    src = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))
    upper = src < targets
    columns = []
    for values in (src, targets, weights):
        column = array("q")
        column.frombytes(values[upper].tobytes())
        columns.append(column)
    return columns


def _read_graph(cursor: _Cursor) -> Graph:
    n = cursor.u64()
    us = cursor.typed_array(_INT_CODES)
    vs = cursor.typed_array(_INT_CODES)
    packed_ws = cursor.typed_array(_DIST_CODES)
    if n > 1 << 40:
        raise SerializationError(
            f"section {cursor.name!r} claims an implausible node count {n}"
        )
    if not len(us) == len(vs) == len(packed_ws):
        raise SerializationError(
            f"section {cursor.name!r} holds ragged edge arrays"
        )
    if numpy_available():
        from repro.kernels.views import as_ndarray

        w = as_ndarray(packed_ws)
        # Integer weights below zero are the INF sentinel (or garbage);
        # the loop below decodes and rejects them.
        if w.dtype.kind == "f" or not len(w) or int(w.min()) >= 0:
            try:
                return graph_from_edge_arrays(n, as_ndarray(us), as_ndarray(vs), w)
            except GraphError as exc:
                raise SerializationError(
                    f"section {cursor.name!r} holds an invalid graph: {exc}"
                ) from exc
    ws = _weights_from_array(packed_ws)
    # The writer dumps an already-normalized graph (each edge once), so
    # adjacency is assembled directly instead of re-deduplicating through
    # GraphBuilder — that difference is most of the binary loader's win
    # over JSON.  Every simple-graph invariant is enforced here against
    # the CRC-verified arrays — bounds and weights in bulk (C-speed
    # min/max), self-loops in the assembly loop, duplicates per sorted
    # row — so the graph is adopted through the trusted constructor
    # without a second per-element validation pass.
    if len(us) and not (
        0 <= min(us) and max(us) < n and 0 <= min(vs) and max(vs) < n
    ):
        raise SerializationError(
            f"section {cursor.name!r} holds an edge endpoint outside 0..{n - 1}"
        )
    if len(ws) and min(ws) <= 0:
        raise SerializationError(
            f"section {cursor.name!r} holds a non-positive edge weight"
        )
    unweighted = ws.count(1) == len(ws)
    adjacency: list[list[tuple[int, Weight]]] = [[] for _ in range(n)]
    for u, v, w in zip(us, vs, ws):
        if u == v:
            raise SerializationError(
                f"section {cursor.name!r} holds a self-loop on node {u}"
            )
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    adj_ids: list[tuple[int, ...]] = []
    adj_weights: list[tuple[Weight, ...]] = []
    for v, row in enumerate(adjacency):
        if not row:
            adj_ids.append(())
            adj_weights.append(())
            continue
        row.sort()
        ids, row_weights = zip(*row)
        if len(set(ids)) != len(ids):
            raise SerializationError(
                f"section {cursor.name!r} holds parallel edges at node {v}"
            )
        adj_ids.append(ids)
        adj_weights.append(row_weights)
    return Graph._from_trusted_rows(
        n, adj_ids, adj_weights, len(us), unweighted=unweighted
    )


def _skip_graph(cursor: _Cursor) -> tuple[int, object]:
    """Advance ``cursor`` past one graph blob without decoding it.

    Returns ``(n, span)`` where ``span`` is the undecoded payload slice
    — header-only bounds checks, no edge array is paged in or
    tuple-decoded.  Feeds :func:`_lazy_graph`.
    """
    start = cursor.pos
    n = cursor.u64()
    for _ in range(3):
        cursor.skip_typed_array()
    return n, cursor.data[start : cursor.pos]


def _lazy_graph(name: str, n: int, span) -> LazyGraph:
    """A :class:`~repro.storage.mapped.LazyGraph` decoding ``span`` on demand.

    The mapped load path defers every graph section this way: queries
    only ask the loaded graphs for ``n``, so adjacency decode — the
    bulk of snapshot decode time — moves off the start-up path
    entirely and runs (once) only if something walks the topology.
    """
    if n > 1 << 40:
        raise SerializationError(
            f"section {name!r} claims an implausible node count {n}"
        )

    def thunk() -> Graph:
        cursor = _Cursor(name, span)
        graph = _read_graph(cursor)
        cursor.done()
        return graph

    return LazyGraph(n, thunk)


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------


def save_ct_index_binary(index, path: PathLike) -> None:
    """Write ``index`` to ``path`` as a v4 binary snapshot.

    Works on either storage backend (dict-backed labels are packed on
    the way out); the snapshot itself is backend-agnostic, like the JSON
    document.
    """
    with obs_span("storage.binary_save") as save_span:
        snapshot = _encode_snapshot(index)
        Path(path).write_bytes(snapshot)
        save_span.set(bytes=len(snapshot))


def _encode_snapshot(index) -> bytes:
    """The whole v4 snapshot of ``index``: header, section table, bodies."""
    sections: dict[str, bytes] = {}

    meta = {
        "format": "repro-ct-index",
        "version": BINARY_FORMAT_VERSION,
        "bandwidth": index.bandwidth,
        "build_seconds": index.build_seconds,
    }
    sections["meta"] = json.dumps(meta, sort_keys=True).encode("utf-8")

    buf = bytearray()
    _put_graph(buf, index.graph)
    sections["graph"] = bytes(buf)

    reduction = index.reduction
    buf = bytearray()
    _put_graph(buf, reduction.reduced)
    _put_narrow(buf, array("q", reduction.representative))
    _put_narrow(buf, array("q", reduction.originals))
    try:
        twin_codes = array("B", (_TWIN_CODES[kind] for kind in reduction.twin_kind))
    except KeyError as exc:
        raise SerializationError(
            f"cannot encode twin kind {exc.args[0]!r} in a binary snapshot"
        ) from exc
    _put_array(buf, twin_codes)
    sections["reduction"] = bytes(buf)

    elimination = index.decomposition.elimination
    buf = bytearray()
    nodes: list[int] = []
    counts: list[int] = []
    flat_neighbors: list[int] = []
    flat_dists: list[Weight] = []
    for step in elimination.steps:
        nodes.append(step.node)
        counts.append(len(step.neighbors))
        flat_neighbors.extend(step.neighbors)
        flat_dists.extend(step.local_distance[u] for u in step.neighbors)
    _put_narrow(buf, array("q", nodes))
    _put_narrow(buf, array("q", counts))
    _put_narrow(buf, array("q", flat_neighbors))
    _put_narrow(buf, pack_optional_inf(flat_dists))
    core_nodes = elimination.core_nodes
    core_counts: list[int] = []
    core_targets: list[int] = []
    core_weights: list[Weight] = []
    for v in core_nodes:
        row = elimination.core_adjacency[v]
        core_counts.append(len(row))
        for u in sorted(row):
            core_targets.append(u)
            core_weights.append(row[u])
    _put_narrow(buf, array("q", core_nodes))
    _put_narrow(buf, array("q", core_counts))
    _put_narrow(buf, array("q", core_targets))
    _put_narrow(buf, pack_optional_inf(core_weights))
    sections["elim"] = bytes(buf)

    tree_store = FlatTreeLabelStore.from_labels(index.tree_index.labels)
    offsets, targets, dists = tree_store.csr_arrays()
    buf = bytearray()
    _put_narrow(buf, offsets)
    _put_narrow(buf, targets)
    _put_narrow(buf, dists)
    sections["treelabels"] = bytes(buf)

    core_store = FlatLabelStore.from_store(index.core_index.labels)
    order, offsets, hub_ranks, hub_dists = core_store.csr_arrays()
    buf = bytearray()
    _put_narrow(buf, array("q", index.core_originals))
    _put_narrow(buf, order)
    _put_narrow(buf, offsets)
    _put_narrow(buf, hub_ranks)
    _put_narrow(buf, hub_dists)
    _put_graph(buf, index.core_index.graph)
    sections["core"] = bytes(buf)

    table_bytes = _HEADER.size + _SECTION.size * len(_SECTION_NAMES)
    offset = table_bytes
    table = bytearray(_HEADER.pack(MAGIC, BINARY_FORMAT_VERSION, len(_SECTION_NAMES)))
    body = bytearray()
    for name in _SECTION_NAMES:
        payload = sections[name]
        table += _SECTION.pack(
            name.encode("ascii"), offset, len(payload), zlib.crc32(payload)
        )
        body += payload
        offset += len(payload)
    return bytes(table + body)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


def is_binary_snapshot(path: PathLike) -> bool:
    """True when ``path`` starts with the binary snapshot magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _read_sections(
    path: Path, *, use_mmap: bool = False
) -> tuple[int, dict[str, bytes], MappedSnapshot | None]:
    """Parse, validate, and CRC-check the section table of ``path``.

    Returns ``(version, sections, source)``.  In the copying mode
    (``use_mmap=False``) the whole file is read into private memory and
    section payloads are ``bytes``; with ``use_mmap=True`` the file is
    memory-mapped read-only, payloads are ``memoryview`` windows into
    the map, and ``source`` is the :class:`MappedSnapshot` keeping it
    alive.  Either way every section's CRC-32 is verified here, before
    a single byte is decoded — and the table itself is rejected when it
    repeats a section name or when two sections' byte ranges overlap
    (a crafted table could otherwise alias one payload under two names
    or smuggle a second copy of a section past the reader).
    """
    source: MappedSnapshot | None = None
    if use_mmap:
        source = MappedSnapshot(path)
        data = source.view()
    else:
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise SerializationError(f"cannot read index file {path}: {exc}") from exc
    if len(data) < _HEADER.size:
        raise SerializationError(f"{path} is too short to be a CT-Index snapshot")
    magic, version, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise SerializationError(f"{path} is not a CT-Index binary snapshot (bad magic)")
    if version not in SUPPORTED_BINARY_VERSIONS:
        raise SerializationError(
            f"unsupported binary snapshot version {version} in {path}; "
            f"this build reads versions {sorted(SUPPORTED_BINARY_VERSIONS)}"
        )
    table_end = _HEADER.size + _SECTION.size * count
    if count > 1024 or table_end > len(data):
        raise SerializationError(f"corrupt section table in {path}")
    entries: list[tuple[str, int, int, int]] = []
    for i in range(count):
        raw_name, offset, length, crc = _SECTION.unpack_from(
            data, _HEADER.size + _SECTION.size * i
        )
        name = raw_name.rstrip(b"\x00").decode("ascii", "replace")
        end = offset + length
        if offset < table_end or end > len(data):
            raise SerializationError(
                f"section {name!r} of {path} is truncated or out of bounds"
            )
        entries.append((name, offset, length, crc))
    names = [name for name, _, _, _ in entries]
    if len(set(names)) != len(names):
        duplicate = next(name for name in names if names.count(name) > 1)
        raise SerializationError(
            f"section table of {path} repeats section {duplicate!r}"
        )
    spans = sorted((offset, offset + length, name) for name, offset, length, _ in entries)
    for (_, prev_end, prev_name), (next_start, _, next_name) in zip(spans, spans[1:]):
        if next_start < prev_end:
            raise SerializationError(
                f"sections {prev_name!r} and {next_name!r} of {path} overlap"
            )
    sections: dict[str, bytes] = {}
    for name, offset, length, crc in entries:
        payload = data[offset : offset + length]
        if zlib.crc32(payload) != crc:
            raise SerializationError(
                f"checksum mismatch in section {name!r} of {path}"
            )
        sections[name] = payload
    missing = [name for name in _SECTION_NAMES if name not in sections]
    if missing:
        raise SerializationError(
            f"{path} is missing snapshot sections: {', '.join(missing)}"
        )
    return version, sections, source


def load_ct_index_binary(path: PathLike, *, backend: str = "flat", mmap: bool = False):
    """Reload a CT-Index written by :func:`save_ct_index_binary`.

    ``backend`` selects the label storage of the loaded index:
    ``"flat"`` (default — the arrays are adopted as-is) or ``"dict"``
    (unpacked into the mutable layout).

    ``mmap=True`` maps the file read-only instead of copying it: the
    CSR label sections become buffer-backed views over the mapped
    pages (zero resident duplication across processes mapping the same
    snapshot, no per-entry decode on the start-up path).  Every
    section's CRC is still verified at open; the returned index keeps
    the mapping alive through ``index.snapshot_source``.  Requires the
    flat backend — the dict layout is private memory by construction.
    """
    if backend not in ("dict", "flat"):
        raise SerializationError(
            f"unknown storage backend {backend!r}; expected 'dict' or 'flat'"
        )
    if mmap and backend != "flat":
        raise SerializationError(
            f"mmap=True requires backend='flat' (the {backend!r} layout "
            f"copies every entry into private memory, defeating the map)"
        )
    path = Path(path)
    with obs_span("storage.binary_load", backend=backend, mapped=mmap) as load_span:
        version, sections, source = _read_sections(path, use_mmap=mmap)
        if tracing_enabled():
            load_span.set(bytes=sum(len(body) for body in sections.values()))
        try:
            return _decode_snapshot(path, sections, backend, version, source=source)
        except SerializationError:
            raise
        except (
            KeyError,
            TypeError,
            ValueError,
            IndexError,
            AttributeError,
            OverflowError,
            struct.error,
            ReproError,
        ) as exc:
            # One library error for any malformed payload, mirroring the
            # JSON loader's contract.
            raise SerializationError(
                f"corrupt CT-Index snapshot in {path}: {exc!r}"
            ) from exc


def step_neighbor_fault(node: int, neighbors, n: int) -> str | None:
    """What is wrong with one step's neighbor ids, or ``None``."""
    for u in neighbors:
        if not 0 <= u < n:
            return f"neighbor id {u} outside [0, {n})"
    if node in neighbors:
        return f"its own node {node} as a neighbor"
    if len(set(neighbors)) != len(neighbors):
        return "a repeated neighbor id"
    return None


def _first_neighbor_fault(nodes, counts, flat_neighbors, n: int):
    """``(step, fault)`` for the first step whose neighbor ids are out of
    range, name the step's own node or repeat; ``None`` when all are
    sound.  With NumPy only the steps flagged by array checks (a bad id,
    or a run that is not strictly ascending) are re-checked one by one."""
    if numpy_available() and len(flat_neighbors):
        import numpy as np

        from repro.kernels.views import as_ndarray

        ids = as_ndarray(flat_neighbors).astype(np.int64)
        sizes = as_ndarray(counts).astype(np.int64)
        owner = np.repeat(np.arange(len(nodes), dtype=np.int64), sizes)
        own = as_ndarray(nodes).astype(np.int64)[owner]
        bad = (ids < 0) | (ids >= n) | (ids == own)
        unsorted = (owner[1:] == owner[:-1]) & (ids[1:] <= ids[:-1])
        flagged = np.zeros(len(nodes), dtype=bool)
        flagged[owner[bad]] = True
        flagged[owner[1:][unsorted]] = True
        flagged = np.flatnonzero(flagged)
        starts = np.cumsum(sizes) - sizes
        suspects = zip(flagged.tolist(), starts[flagged].tolist())
    else:
        suspects = zip(range(len(nodes)), accumulate(counts, initial=0))
    for i, start in suspects:
        neighbors = flat_neighbors[start : start + counts[i]]
        fault = step_neighbor_fault(nodes[i], neighbors, n)
        if fault is not None:
            return i, fault
    return None


def _decode_snapshot(
    path: Path,
    sections: dict[str, bytes],
    backend: str,
    version: int,
    *,
    source: MappedSnapshot | None = None,
):
    from repro.core.construction import TreeIndex
    from repro.core.ct_index import CTIndex
    from repro.labeling.pll import PrunedLandmarkLabeling
    from repro.treedec.core_tree import core_tree_decomposition
    from repro.treedec.elimination import EliminationResult, EliminationStep

    # Zero-copy adoption needs the on-disk byte order to be the native
    # one; on big-endian hosts a mapped load still works (the map was
    # CRC-verified) but label arrays are decoded via the copying path.
    zero_copy = source is not None and sys.byteorder == "little"

    try:
        meta = json.loads(bytes(sections["meta"]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(
            f"corrupt meta section in {path}: {exc}"
        ) from exc
    if meta.get("format") != "repro-ct-index":
        raise SerializationError(f"{path} is not a CT-Index snapshot")
    if meta.get("version") != version:
        raise SerializationError(
            f"meta section claims version {meta.get('version')!r} but the "
            f"header of {path} says {version}"
        )
    bandwidth = meta["bandwidth"]
    if not isinstance(bandwidth, int) or bandwidth < 0:
        raise SerializationError(f"invalid bandwidth {bandwidth!r} in {path}")

    cursor = _Cursor("graph", sections["graph"])
    if zero_copy:
        n_graph, graph_span = _skip_graph(cursor)
        graph = _lazy_graph("graph", n_graph, graph_span)
    else:
        graph = _read_graph(cursor)
    cursor.done()

    cursor = _Cursor("reduction", sections["reduction"])
    if zero_copy:
        n_reduced, reduced_span = _skip_graph(cursor)
        reduced = _lazy_graph("reduction", n_reduced, reduced_span)
    else:
        reduced = _read_graph(cursor)
    representative = list(cursor.typed_array(_INT_CODES))
    originals_map = list(cursor.typed_array(_INT_CODES))
    twin_codes = cursor.typed_array("B")
    cursor.done()
    try:
        twin_kind = [_TWIN_KINDS[code] for code in twin_codes]
    except KeyError as exc:
        raise SerializationError(
            f"unknown twin-kind code {exc.args[0]!r} in {path}"
        ) from exc
    reduction = EquivalenceReduction(
        original=graph,
        reduced=reduced,
        representative=representative,
        originals=originals_map,
        twin_kind=twin_kind,
    )

    cursor = _Cursor("elim", sections["elim"])
    nodes = cursor.typed_array(_INT_CODES)
    counts = cursor.typed_array(_INT_CODES)
    flat_neighbors = cursor.typed_array(_INT_CODES)
    flat_dists = _weights_from_array(cursor.typed_array(_DIST_CODES))
    core_nodes = list(cursor.typed_array(_INT_CODES))
    core_counts = cursor.typed_array(_INT_CODES)
    core_targets = cursor.typed_array(_INT_CODES)
    core_weights = _weights_from_array(cursor.typed_array(_DIST_CODES))
    cursor.done()
    if len(nodes) != len(counts) or sum(counts) != len(flat_neighbors):
        raise SerializationError(f"ragged elimination arrays in {path}")
    if len(flat_neighbors) != len(flat_dists):
        raise SerializationError(f"ragged elimination distance array in {path}")
    steps = []
    base = 0
    for node, count in zip(nodes, counts):
        neighbors = tuple(flat_neighbors[base : base + count])
        local = dict(zip(neighbors, flat_dists[base : base + count]))
        steps.append(
            EliminationStep(node=node, neighbors=neighbors, local_distance=local)
        )
        base += count
    position: list[int | None] = [None] * reduced.n
    for i, step in enumerate(steps):
        if not 0 <= step.node < reduced.n or position[step.node] is not None:
            raise SerializationError(
                f"elimination step {i} names node {step.node} outside the "
                f"reduced graph (or twice) in {path}"
            )
        position[step.node] = i
    fault = _first_neighbor_fault(nodes, counts, flat_neighbors, reduced.n)
    if fault is not None:
        raise SerializationError(f"elimination step {fault[0]} lists {fault[1]} in {path}")
    if core_nodes != sorted(set(core_nodes)):
        raise SerializationError(f"core node list of {path} is not sorted-unique")
    if len(core_nodes) != len(core_counts) or sum(core_counts) != len(core_targets):
        raise SerializationError(f"ragged core-adjacency arrays in {path}")
    core_adjacency: dict[int, dict[int, Weight]] = {}
    base = 0
    for v, count in zip(core_nodes, core_counts):
        core_adjacency[v] = dict(
            zip(core_targets[base : base + count], core_weights[base : base + count])
        )
        base += count
    elimination = EliminationResult(
        graph=reduced,
        steps=steps,
        position=position,
        core_nodes=core_nodes,
        core_adjacency=core_adjacency,
        bandwidth=bandwidth,
    )
    decomposition = core_tree_decomposition(reduced, bandwidth, elimination=elimination)

    cursor = _Cursor("treelabels", sections["treelabels"], zero_copy=zero_copy)
    tree_offsets = cursor.typed_array(_INT_CODES)
    tree_targets = cursor.typed_array(_INT_CODES)
    tree_dists = cursor.typed_array(_DIST_CODES)
    cursor.done()
    # The mapped path adopts CRC-verified views as-is; the per-entry
    # monotonicity scan would touch (and page in) every label at open,
    # defeating the instant-start-up contract.
    tree_store = FlatTreeLabelStore(
        tree_offsets, tree_targets, tree_dists, validate=not zero_copy
    )
    if len(tree_store) != decomposition.boundary:
        raise SerializationError(
            f"{path} stores {len(tree_store)} tree labels for a boundary "
            f"of {decomposition.boundary}"
        )
    tree_labels = tree_store if backend == "flat" else tree_store.to_dicts()
    tree_index = TreeIndex(decomposition, tree_labels)

    cursor = _Cursor("core", sections["core"], zero_copy=zero_copy)
    core_originals = list(cursor.typed_array(_INT_CODES))
    order = cursor.typed_array(_INT_CODES)
    offsets = cursor.typed_array(_INT_CODES)
    hub_ranks = cursor.typed_array(_RANK_CODES)
    hub_dists = cursor.typed_array(_DIST_CODES)
    if zero_copy:
        n_core, core_span = _skip_graph(cursor)
        core_graph = _lazy_graph("core", n_core, core_span)
    else:
        core_graph = _read_graph(cursor)
    cursor.done()
    if zero_copy:
        store = FlatLabelStore.adopt_arrays(order, offsets, hub_ranks, hub_dists)
    else:
        if hub_dists.typecode in _SIGNED_INT_CODES and any(d < 0 for d in hub_dists):
            raise SerializationError(f"negative core label distance in {path}")
        store = FlatLabelStore.from_arrays(order, offsets, hub_ranks, hub_dists)
    if store.n != core_graph.n or store.n != len(core_originals):
        raise SerializationError(
            f"core section of {path} is internally inconsistent "
            f"({store.n} labeled nodes, {core_graph.n} core-graph nodes, "
            f"{len(core_originals)} originals)"
        )
    labels = store if backend == "flat" else store.to_hub_labeling()
    core_index = PrunedLandmarkLabeling(core_graph, labels, list(order))
    compact = {orig: i for i, orig in enumerate(core_originals)}

    index = CTIndex(
        graph=graph,
        bandwidth=bandwidth,
        reduction=reduction,
        tree_index=tree_index,
        core_index=core_index,
        core_originals=core_originals,
        core_compact=compact,
    )
    index.build_seconds = float(meta.get("build_seconds", 0.0))
    index.snapshot_source = source
    return index
