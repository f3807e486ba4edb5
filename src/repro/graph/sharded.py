"""Out-of-core sharded CSR layout: memmap shard files plus a residency manager.

The in-memory :class:`~repro.graph.CSRGraph` caps graph size at RAM.  This
module persists a CSR as *contiguous node-range shards* — per shard one
``indptr``/``indices``/``weights`` file written with ``ndarray.tofile`` and a
JSON manifest recording shard boundaries, a degree summary, and per-file
content hashes — so the walk layer can stream a graph whose edge arrays are
many times larger than the configured :class:`~repro.framework.MemoryBudget`.

Three layers, deliberately separated:

* :class:`ShardedCSRGraph` — the on-disk layout.  Opens cheaply (O(|V|)
  global ``indptr`` is reconstructed in RAM; the O(|E|) ``indices`` and
  ``weights`` stay on disk) and validates file sizes up front, raising a
  typed :class:`~repro.exceptions.ShardLayoutError` on truncation instead
  of a numpy ``IndexError`` later.
* :class:`VirtualShardLayout` — the same shard surface over an in-memory
  :class:`~repro.graph.CSRGraph` (zero-copy slices).  The bucketed walk
  scheduler always runs against the shard surface, so the in-memory and
  on-disk paths execute identical code — the basis of the bit-identical
  equality contract.
* :class:`ShardResidencyManager` — the only place ``np.memmap`` views are
  created (enforced by the ``MEM002`` lint rule): every mapped shard is
  byte-accounted against a budget, pinned at most ``max_resident`` at a
  time, and evicted LRU-first, with load/eviction/bytes-read counters.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Union

import numpy as np

from ..exceptions import BudgetError, EmptyGraphError, ShardLayoutError
from .csr import CSRGraph


def _msan_trace(structure: str, nbytes: int, **dims: float) -> None:
    # Deferred import: repro.analysis pulls in layers that import the
    # graph package — binding at first shard load keeps the cycle open.
    from ..analysis.msan import trace_alloc

    trace_alloc(structure, nbytes, **dims)


MANIFEST_NAME = "manifest.json"
LAYOUT_FORMAT = "sharded-csr"
LAYOUT_VERSION = 1

_ROLES = ("indptr", "indices", "weights")
_DTYPES = {"indptr": np.int64, "indices": np.int64, "weights": np.float64}

#: Anything the residency manager can pin shards from.
ShardSource = Union["ShardedCSRGraph", "VirtualShardLayout"]


def _sha256_file(path: Path) -> str:
    """Hex SHA-256 of a file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(1 << 20)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


@dataclass(frozen=True)
class ShardFile:
    """One on-disk array of a shard (role is ``indptr``/``indices``/``weights``)."""

    role: str
    path: Path
    dtype: str
    count: int
    nbytes: int
    sha256: str


@dataclass(frozen=True)
class ShardSpec:
    """Loadable description of one shard.

    Exactly one of ``files`` (on-disk layout) or ``arrays`` (virtual
    in-memory layout) is set; the residency manager is the only consumer
    and the only component that turns a spec into resident arrays.
    """

    index: int
    start: int
    stop: int
    edge_offset: int
    num_edges: int
    nbytes: int
    files: tuple[ShardFile, ...] | None = None
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True)
class ShardData:
    """A resident shard: its node range plus local CSR arrays.

    ``indptr`` is shard-local (``indptr[0] == 0``); a global edge position
    ``p`` for a node in ``[start, stop)`` maps to local ``p - edge_offset``.
    """

    index: int
    start: int
    stop: int
    edge_offset: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    nbytes: int

    @property
    def num_nodes(self) -> int:
        """Nodes owned by this shard."""
        return self.stop - self.start

    @property
    def num_edges(self) -> int:
        """Stored edges whose source node lies in this shard."""
        return int(self.indptr[-1])


def _validate_boundaries(boundaries: np.ndarray, num_nodes: int) -> np.ndarray:
    """Check shard boundaries cover ``[0, num_nodes]`` strictly increasing."""
    boundaries = np.asarray(boundaries, dtype=np.int64)
    if (
        boundaries.ndim != 1
        or len(boundaries) < 2
        or int(boundaries[0]) != 0
        or int(boundaries[-1]) != num_nodes
        or bool(np.any(np.diff(boundaries) <= 0))
    ):
        raise ShardLayoutError(
            f"invalid shard boundaries {boundaries.tolist()!r} for "
            f"{num_nodes} nodes: must rise strictly from 0 to num_nodes"
        )
    return boundaries


def _shard_file_name(index: int, role: str) -> str:
    """Canonical file name of one shard array."""
    return f"shard_{index:05d}.{role}.bin"


def write_sharded_layout(
    graph: CSRGraph,
    path: str | Path,
    *,
    num_shards: int | None = None,
    partition: np.ndarray | None = None,
    boundaries: np.ndarray | None = None,
    overwrite: bool = False,
) -> "ShardedCSRGraph":
    """Persist ``graph`` as a sharded CSR layout under directory ``path``.

    The node ranges come from, in order of precedence: explicit
    ``boundaries``; a contiguous ``partition`` vector (see
    :func:`repro.distributed.partition.contiguous_partition` — interleaved
    partitions such as ``hash_partition`` output are rejected); or
    ``num_shards`` edge-balanced contiguous ranges (default 1).

    Files are written with ``ndarray.tofile`` (no ``np.memmap`` on the
    write path); the manifest — with per-file SHA-256 content hashes — is
    written last, so a torn write leaves an unopenable directory rather
    than a silently corrupt one.  Returns the reopened
    :class:`ShardedCSRGraph`.
    """
    if graph.num_nodes == 0:
        raise EmptyGraphError("cannot shard an empty graph")
    if boundaries is None:
        from ..distributed.partition import contiguous_partition, partition_boundaries

        if partition is not None:
            if len(partition) != graph.num_nodes:
                raise ShardLayoutError(
                    f"partition covers {len(partition)} nodes, graph has "
                    f"{graph.num_nodes}"
                )
            boundaries = partition_boundaries(partition)
        else:
            boundaries = partition_boundaries(
                contiguous_partition(graph.degrees, num_shards or 1)
            )
    boundaries = _validate_boundaries(boundaries, graph.num_nodes)

    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest_path = root / MANIFEST_NAME
    if manifest_path.exists() and not overwrite:
        raise ShardLayoutError(
            f"{manifest_path}: layout already exists (pass overwrite=True)"
        )

    degrees = graph.degrees
    shards: list[dict[str, Any]] = []
    for index in range(len(boundaries) - 1):
        start = int(boundaries[index])
        stop = int(boundaries[index + 1])
        edge_offset = int(graph.indptr[start])
        local_indptr = np.ascontiguousarray(
            graph.indptr[start : stop + 1] - graph.indptr[start], dtype=np.int64
        )
        local_indices = np.ascontiguousarray(
            graph.indices[graph.indptr[start] : graph.indptr[stop]], dtype=np.int64
        )
        local_weights = np.ascontiguousarray(
            graph.weights[graph.indptr[start] : graph.indptr[stop]],
            dtype=np.float64,
        )
        files: dict[str, dict[str, Any]] = {}
        for role, array in (
            ("indptr", local_indptr),
            ("indices", local_indices),
            ("weights", local_weights),
        ):
            name = _shard_file_name(index, role)
            array.tofile(root / name)
            files[role] = {
                "name": name,
                "dtype": array.dtype.str,
                "count": int(array.size),
                "bytes": int(array.nbytes),
                "sha256": _sha256_file(root / name),
            }
        shards.append(
            {
                "index": index,
                "start": start,
                "stop": stop,
                "edge_offset": edge_offset,
                "num_edges": int(local_indptr[-1]),
                "files": files,
            }
        )

    manifest = {
        "format": LAYOUT_FORMAT,
        "version": LAYOUT_VERSION,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "unit_weight": graph.is_unit_weight,
        "boundaries": [int(b) for b in boundaries],
        "degrees": {
            "max": int(degrees.max()) if len(degrees) else 0,
            "mean": float(degrees.mean()) if len(degrees) else 0.0,
            "isolated": int(np.count_nonzero(degrees == 0)),
        },
        "shards": shards,
    }
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return ShardedCSRGraph.open(root)


def _manifest_error(path: Path, detail: str) -> ShardLayoutError:
    """Uniform manifest-validation error."""
    return ShardLayoutError(f"{path}: {detail}")


class ShardedCSRGraph:
    """A CSR graph stored as contiguous node-range shards on disk.

    Only the O(|V|) structural arrays (global ``indptr`` and ``degrees``)
    are held in RAM; the O(|E|) adjacency lives in per-shard files that the
    :class:`ShardResidencyManager` maps on demand.  Construct via
    :meth:`open` (validates the manifest and every shard file's size) or
    :func:`write_sharded_layout`.
    """

    def __init__(
        self,
        path: Path,
        manifest: dict[str, Any],
        specs: tuple[ShardSpec, ...],
        indptr: np.ndarray,
    ) -> None:
        """Internal — use :meth:`open`."""
        self.path = path
        self._manifest = manifest
        self._specs = specs
        self.indptr = indptr
        self.degrees = np.diff(indptr)
        self.boundaries = np.asarray(manifest["boundaries"], dtype=np.int64)
        self._layout_signature: str | None = None

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: str | Path) -> "ShardedCSRGraph":
        """Open and validate a layout written by :func:`write_sharded_layout`.

        Validation is structural and O(|V| + shards): manifest schema,
        boundary/edge-offset consistency, per-file *size* checks (a
        truncated shard file fails here, typed), and a monotonicity check
        on each shard-local ``indptr`` while the global one is rebuilt.
        Content hashes are verified lazily on shard load (and exhaustively
        by :meth:`verify`).
        """
        root = Path(path)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.is_file():
            raise _manifest_error(root, "no sharded-csr manifest found")
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            raise _manifest_error(
                manifest_path, f"unreadable manifest: {exc}"
            ) from exc
        if not isinstance(manifest, dict) or manifest.get("format") != LAYOUT_FORMAT:
            raise _manifest_error(manifest_path, "not a sharded-csr manifest")
        if manifest.get("version") != LAYOUT_VERSION:
            raise _manifest_error(
                manifest_path,
                f"unsupported layout version {manifest.get('version')!r}",
            )
        try:
            num_nodes = int(manifest["num_nodes"])
            num_edges = int(manifest["num_edges"])
            boundaries = np.asarray(manifest["boundaries"], dtype=np.int64)
            shard_entries = list(manifest["shards"])
        except (KeyError, TypeError, ValueError) as exc:
            raise _manifest_error(manifest_path, f"missing field: {exc}") from exc
        boundaries = _validate_boundaries(boundaries, num_nodes)
        if len(shard_entries) != len(boundaries) - 1:
            raise _manifest_error(
                manifest_path,
                f"{len(shard_entries)} shard entries for "
                f"{len(boundaries) - 1} boundary ranges",
            )

        # The structural indptr is the one O(N) array deliberately kept
        # RAM-resident (paper Section 5: only edge payloads go out of
        # core) — it is layout metadata, not budget-governed shard state.
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        specs: list[ShardSpec] = []
        edge_offset = 0
        for index, entry in enumerate(shard_entries):
            spec = cls._load_spec(root, manifest_path, index, entry, boundaries)
            if spec.edge_offset != edge_offset:
                raise _manifest_error(
                    manifest_path,
                    f"shard {index}: edge_offset {spec.edge_offset} != "
                    f"running total {edge_offset}",
                )
            indptr_file = spec.files[0] if spec.files else None
            assert indptr_file is not None  # disk layout always has files
            local = np.fromfile(indptr_file.path, dtype=np.int64)
            if (
                len(local) != spec.stop - spec.start + 1
                or int(local[0]) != 0
                or int(local[-1]) != spec.num_edges
                or bool(np.any(np.diff(local) < 0))
            ):
                raise _manifest_error(
                    indptr_file.path, f"shard {index}: corrupt indptr array"
                )
            indptr[spec.start + 1 : spec.stop + 1] = local[1:] + edge_offset
            edge_offset += spec.num_edges
            specs.append(spec)
        if edge_offset != num_edges:
            raise _manifest_error(
                manifest_path,
                f"shards hold {edge_offset} edges, manifest says {num_edges}",
            )
        return cls(root, manifest, tuple(specs), indptr)

    @classmethod
    def _load_spec(
        cls,
        root: Path,
        manifest_path: Path,
        index: int,
        entry: dict[str, Any],
        boundaries: np.ndarray,
    ) -> ShardSpec:
        """Validate one manifest shard entry and its file sizes on disk."""
        try:
            start = int(entry["start"])
            stop = int(entry["stop"])
            shard_edges = int(entry["num_edges"])
            shard_offset = int(entry["edge_offset"])
            file_entries = dict(entry["files"])
        except (KeyError, TypeError, ValueError) as exc:
            raise _manifest_error(
                manifest_path, f"shard {index}: bad entry: {exc}"
            ) from exc
        if start != int(boundaries[index]) or stop != int(boundaries[index + 1]):
            raise _manifest_error(
                manifest_path,
                f"shard {index}: range [{start}, {stop}) does not match "
                "the manifest boundaries",
            )
        files: list[ShardFile] = []
        for role in _ROLES:
            try:
                info = file_entries[role]
                file_path = root / str(info["name"])
                dtype = str(info["dtype"])
                count = int(info["count"])
                nbytes = int(info["bytes"])
                sha256 = str(info["sha256"])
            except (KeyError, TypeError, ValueError) as exc:
                raise _manifest_error(
                    manifest_path, f"shard {index}: bad {role} file entry: {exc}"
                ) from exc
            if np.dtype(dtype) != np.dtype(_DTYPES[role]):
                raise _manifest_error(
                    manifest_path,
                    f"shard {index}: {role} dtype {dtype!r}, expected "
                    f"{np.dtype(_DTYPES[role]).str!r}",
                )
            expected_count = stop - start + 1 if role == "indptr" else shard_edges
            if count != expected_count or nbytes != count * 8:
                raise _manifest_error(
                    manifest_path,
                    f"shard {index}: {role} records {count} items / "
                    f"{nbytes} bytes, expected {expected_count} items",
                )
            if not file_path.is_file() or file_path.stat().st_size != nbytes:
                actual = file_path.stat().st_size if file_path.is_file() else -1
                raise _manifest_error(
                    file_path,
                    f"shard {index}: {role} file is "
                    f"{'missing' if actual < 0 else f'{actual} bytes'}, "
                    f"manifest says {nbytes} bytes (truncated or corrupt layout)",
                )
            files.append(
                ShardFile(
                    role=role,
                    path=file_path,
                    dtype=dtype,
                    count=count,
                    nbytes=nbytes,
                    sha256=sha256,
                )
            )
        return ShardSpec(
            index=index,
            start=start,
            stop=stop,
            edge_offset=shard_offset,
            num_edges=shard_edges,
            nbytes=sum(f.nbytes for f in files),
            files=tuple(files),
        )

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of stored directed edges across all shards."""
        return int(self.indptr[-1])

    @property
    def num_shards(self) -> int:
        """Number of contiguous node-range shards."""
        return len(self._specs)

    @property
    def is_unit_weight(self) -> bool:
        """True when every stored edge weight is exactly 1.0."""
        return bool(self._manifest.get("unit_weight", False))

    @property
    def total_bytes(self) -> int:
        """Summed size of every shard file (the layout's disk footprint)."""
        return sum(spec.nbytes for spec in self._specs)

    def degree(self, v: int) -> int:
        """Out-degree of node ``v``."""
        return int(self.degrees[v])

    def shard_of(self, nodes: "np.ndarray | int") -> "np.ndarray | int":
        """Shard index (or index array) owning each node."""
        result = np.searchsorted(self.boundaries, nodes, side="right") - 1
        if np.isscalar(nodes):
            return int(result)
        return np.asarray(result, dtype=np.int64)

    def shard_spec(self, index: int) -> ShardSpec:
        """The loadable description of shard ``index``."""
        return self._specs[index]

    def shard_nbytes(self, index: int) -> int:
        """Bytes shard ``index`` occupies when resident."""
        return self._specs[index].nbytes

    @property
    def layout_signature(self) -> str:
        """Content-addressed identity of this layout.

        SHA-256 over the canonical manifest structure *including every
        shard file's content hash* — two layouts agree iff they store the
        same graph in the same shard geometry.  Recorded in checkpoint
        signatures so a resume against a different layout is refused.
        """
        if self._layout_signature is None:
            payload = {
                "format": LAYOUT_FORMAT,
                "num_nodes": self.num_nodes,
                "num_edges": self.num_edges,
                "boundaries": self.boundaries.tolist(),
                "files": [
                    [f.sha256 for f in (spec.files or ())] for spec in self._specs
                ],
            }
            canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            self._layout_signature = hashlib.sha256(
                canonical.encode("utf-8")
            ).hexdigest()
        return self._layout_signature

    # ------------------------------------------------------------------
    def verify(self, index: int | None = None) -> None:
        """Re-hash shard files and compare against the manifest.

        Checks one shard, or all of them when ``index`` is None; raises
        :class:`ShardLayoutError` on the first mismatch.
        """
        targets = self._specs if index is None else (self._specs[index],)
        for spec in targets:
            for shard_file in spec.files or ():
                actual = _sha256_file(shard_file.path)
                if actual != shard_file.sha256:
                    raise ShardLayoutError(
                        f"{shard_file.path}: content hash mismatch "
                        f"(expected {shard_file.sha256[:12]}…, "
                        f"got {actual[:12]}…)"
                    )

    def read_shard(self, index: int) -> ShardData:
        """Read one shard's arrays fully into memory (no memmap, no pin).

        A transient full read for inspection and :meth:`materialize`; the
        walk path pins shards through :class:`ShardResidencyManager`
        instead so residency is byte-accounted.
        """
        spec = self._specs[index]
        arrays: dict[str, np.ndarray] = {}
        for shard_file in spec.files or ():
            arrays[shard_file.role] = np.fromfile(
                shard_file.path, dtype=np.dtype(shard_file.dtype)
            )
        return ShardData(
            index=spec.index,
            start=spec.start,
            stop=spec.stop,
            edge_offset=spec.edge_offset,
            indptr=arrays["indptr"],
            indices=arrays["indices"],
            weights=arrays["weights"],
            nbytes=spec.nbytes,
        )

    def materialize(self) -> CSRGraph:
        """Reassemble the full in-memory :class:`CSRGraph` (hash-verified)."""
        self.verify()
        # Materialising is the explicit opt-out from out-of-core mode:
        # the caller asks for the whole O(E) graph in RAM, so these two
        # buffers are intentionally outside the residency budget.
        indices = np.empty(self.num_edges, dtype=np.int64)
        weights = np.empty(self.num_edges, dtype=np.float64)
        for index in range(self.num_shards):
            shard = self.read_shard(index)
            lo = shard.edge_offset
            hi = lo + shard.num_edges
            indices[lo:hi] = shard.indices
            weights[lo:hi] = shard.weights
        return CSRGraph(self.indptr, indices, weights)

    def __repr__(self) -> str:
        return (
            f"ShardedCSRGraph(path={str(self.path)!r}, "
            f"num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"num_shards={self.num_shards}, "
            f"total_bytes={self.total_bytes})"
        )


class VirtualShardLayout:
    """The shard-layout surface over an in-memory :class:`CSRGraph`.

    Shard "loads" are zero-copy array slices, but the geometry, the spec
    protocol, and the residency accounting are identical to the on-disk
    layout — the bucketed scheduler cannot tell them apart, which is what
    makes ``sharded == in-memory`` a bit-identity statement about *data
    placement only*, with every other code path shared.
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        boundaries: np.ndarray | None = None,
        num_shards: int | None = None,
    ) -> None:
        """Wrap ``graph``; default geometry is a single shard."""
        if graph.num_nodes == 0:
            raise EmptyGraphError("cannot shard an empty graph")
        if boundaries is None:
            if num_shards is not None and num_shards > 1:
                from ..distributed.partition import (
                    contiguous_partition,
                    partition_boundaries,
                )

                boundaries = partition_boundaries(
                    contiguous_partition(graph.degrees, num_shards)
                )
            else:
                boundaries = np.asarray([0, graph.num_nodes], dtype=np.int64)
        self.graph = graph
        self.boundaries = _validate_boundaries(boundaries, graph.num_nodes)
        self.indptr = graph.indptr
        self.degrees = graph.degrees
        self._layout_signature: str | None = None

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of stored directed edges."""
        return self.graph.num_edges

    @property
    def num_shards(self) -> int:
        """Number of virtual shards."""
        return len(self.boundaries) - 1

    @property
    def is_unit_weight(self) -> bool:
        """True when every stored edge weight is exactly 1.0."""
        return self.graph.is_unit_weight

    @property
    def total_bytes(self) -> int:
        """Resident footprint the equivalent on-disk layout would have."""
        return sum(self.shard_nbytes(i) for i in range(self.num_shards))

    def degree(self, v: int) -> int:
        """Out-degree of node ``v``."""
        return self.graph.degree(v)

    def shard_of(self, nodes: "np.ndarray | int") -> "np.ndarray | int":
        """Shard index (or index array) owning each node."""
        result = np.searchsorted(self.boundaries, nodes, side="right") - 1
        if np.isscalar(nodes):
            return int(result)
        return np.asarray(result, dtype=np.int64)

    def shard_nbytes(self, index: int) -> int:
        """Bytes shard ``index`` occupies when resident: the resident-shard
        formula at the shard files' widths, as on disk."""
        # Deferred import: repro.cost imports the graph package.
        from ..cost import CostParams, resident_shard_memory

        start = int(self.boundaries[index])
        stop = int(self.boundaries[index + 1])
        num_edges = int(self.indptr[stop] - self.indptr[start])
        widths = CostParams(
            float_bytes=np.dtype(_DTYPES["weights"]).itemsize,
            int_bytes=np.dtype(_DTYPES["indices"]).itemsize,
        )
        return int(resident_shard_memory(widths, stop - start, num_edges))

    def shard_spec(self, index: int) -> ShardSpec:
        """Zero-copy spec of virtual shard ``index``."""
        start = int(self.boundaries[index])
        stop = int(self.boundaries[index + 1])
        edge_offset = int(self.indptr[start])
        local_indptr = self.indptr[start : stop + 1] - edge_offset
        indices = self.graph.indices[edge_offset : int(self.indptr[stop])]
        weights = self.graph.weights[edge_offset : int(self.indptr[stop])]
        return ShardSpec(
            index=index,
            start=start,
            stop=stop,
            edge_offset=edge_offset,
            num_edges=int(local_indptr[-1]),
            nbytes=self.shard_nbytes(index),
            arrays=(local_indptr, indices, weights),
        )

    @property
    def layout_signature(self) -> str:
        """Structural identity (geometry only — in-memory arrays are not hashed)."""
        if self._layout_signature is None:
            payload = {
                "format": LAYOUT_FORMAT,
                "virtual": True,
                "num_nodes": self.num_nodes,
                "num_edges": self.num_edges,
                "boundaries": self.boundaries.tolist(),
            }
            canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            self._layout_signature = hashlib.sha256(
                canonical.encode("utf-8")
            ).hexdigest()
        return self._layout_signature

    def materialize(self) -> CSRGraph:
        """The wrapped in-memory graph."""
        return self.graph

    def __repr__(self) -> str:
        return (
            f"VirtualShardLayout(num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges}, num_shards={self.num_shards})"
        )


class ShardResidencyManager:
    """Pins shards in memory under a byte budget and a residency cap.

    The single owner of ``np.memmap`` construction in the codebase (lint
    rule ``MEM002``): every mapping is charged against ``budget`` before it
    is created, least-recently-used shards are evicted to make room, and a
    shard larger than the whole budget raises
    :class:`~repro.exceptions.BudgetError` instead of silently
    overcommitting.  Counts loads, evictions, and bytes read so the walk
    layer can report I/O cost per corpus.
    """

    def __init__(
        self,
        source: ShardSource,
        *,
        budget: Any = None,
        max_resident: int | None = None,
        verify_hashes: bool = True,
    ) -> None:
        """``budget`` is a byte count, a ``MemoryBudget``, or None (unbounded)."""
        total = getattr(budget, "total_bytes", budget)
        budget_bytes = float("inf") if total is None else float(total)
        if not budget_bytes > 0:  # catches NaN, zero, and negatives
            raise BudgetError(
                f"shard residency budget must be positive, got {budget_bytes!r}"
            )
        if max_resident is not None and max_resident < 1:
            raise BudgetError(
                f"max_resident must be >= 1, got {max_resident}"
            )
        self.source = source
        self.budget_bytes = budget_bytes
        self.max_resident = max_resident
        self.verify_hashes = verify_hashes
        self._resident: "OrderedDict[int, ShardData]" = OrderedDict()
        self._resident_bytes = 0
        self._verified: set[int] = set()
        self._loads = 0
        self._evictions = 0
        self._bytes_read = 0

    # ------------------------------------------------------------------
    @property
    def resident_shards(self) -> tuple[int, ...]:
        """Currently pinned shard indices, least recently used first."""
        return tuple(self._resident)

    @property
    def resident_bytes(self) -> int:
        """Bytes currently charged for pinned shards."""
        return self._resident_bytes

    def is_resident(self, index: int) -> bool:
        """Whether shard ``index`` is currently pinned."""
        return index in self._resident

    def counters(self) -> dict[str, int]:
        """Monotonic I/O counters (summable across chunk deltas)."""
        return {
            "shard_loads": self._loads,
            "shard_evictions": self._evictions,
            "shard_bytes_read": self._bytes_read,
        }

    # ------------------------------------------------------------------
    def acquire(self, index: int) -> ShardData:
        """Return shard ``index`` resident, loading and evicting as needed."""
        shard = self._resident.get(index)
        if shard is not None:
            self._resident.move_to_end(index)
            return shard
        spec = self.source.shard_spec(index)
        if spec.nbytes > self.budget_bytes:
            raise BudgetError(
                f"shard {index} needs {spec.nbytes} bytes but the residency "
                f"budget is {self.budget_bytes:.0f} — use more shards or a "
                "larger budget"
            )
        while self._resident and (
            self._resident_bytes + spec.nbytes > self.budget_bytes
            or (
                self.max_resident is not None
                and len(self._resident) >= self.max_resident
            )
        ):
            self._evict_lru()
        shard = self._load(spec)
        _msan_trace(
            "resident_shard",
            int(
                shard.indptr.nbytes
                + shard.indices.nbytes
                + shard.weights.nbytes
            ),
            n_s=spec.stop - spec.start,
            E_s=spec.num_edges,
            b_i=shard.indices.itemsize,
            b_f=shard.weights.itemsize,
        )
        self._resident[index] = shard
        self._resident_bytes += shard.nbytes
        self._loads += 1
        self._bytes_read += shard.nbytes
        return shard

    def evict_all(self) -> None:
        """Drop every pinned shard (chunk-boundary reset)."""
        while self._resident:
            self._evict_lru()

    def _evict_lru(self) -> None:
        """Release the least-recently-used shard and its byte charge."""
        _, shard = self._resident.popitem(last=False)
        self._resident_bytes -= shard.nbytes
        self._evictions += 1

    def _load(self, spec: ShardSpec) -> ShardData:
        """Map one shard's arrays under this manager's budget accounting.

        The only ``np.memmap`` call site in the package: a mapping exists
        only while its bytes are charged against ``self.budget_bytes``
        (see :meth:`acquire`), which is exactly the invariant MEM002
        lints for.
        """
        if spec.arrays is not None:
            local_indptr, indices, weights = spec.arrays
            return ShardData(
                index=spec.index,
                start=spec.start,
                stop=spec.stop,
                edge_offset=spec.edge_offset,
                indptr=local_indptr,
                indices=indices,
                weights=weights,
                nbytes=spec.nbytes,
            )
        if self.verify_hashes and spec.index not in self._verified:
            self.source.verify(spec.index)  # type: ignore[union-attr]
            self._verified.add(spec.index)
        arrays: dict[str, np.ndarray] = {}
        for shard_file in spec.files or ():
            if shard_file.count == 0:
                arrays[shard_file.role] = np.empty(
                    0, dtype=np.dtype(shard_file.dtype)
                )
                continue
            try:
                # np.asarray makes a zero-copy ndarray *view* of the mapped
                # buffer (the mmap stays alive via .base): pages are still
                # faulted lazily, but downstream kernels — numba included —
                # see the exact ndarray type they are compiled for.  The
                # path goes in as a str: numpy resolves a Path (one lstat
                # per component) on every map.
                arrays[shard_file.role] = np.asarray(
                    np.memmap(
                        str(shard_file.path),
                        dtype=np.dtype(shard_file.dtype),
                        mode="r",
                        shape=(shard_file.count,),
                    )
                )
            except (OSError, ValueError) as exc:
                raise ShardLayoutError(
                    f"{shard_file.path}: cannot map shard {spec.index} "
                    f"{shard_file.role} array: {exc}"
                ) from exc
        return ShardData(
            index=spec.index,
            start=spec.start,
            stop=spec.stop,
            edge_offset=spec.edge_offset,
            indptr=np.asarray(arrays["indptr"]),
            indices=arrays["indices"],
            weights=arrays["weights"],
            nbytes=spec.nbytes,
        )
