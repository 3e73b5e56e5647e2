"""Versioned on-disk CSR snapshots, served memory-mapped.

A snapshot is a directory holding the two CSR arrays as ``.npy`` files plus a
JSON manifest describing them::

    snapshot/
        manifest.json    format name, version, counts, file inventory
        indptr.npy       int64 row pointers, length n + 1
        indices.npy      int64 column indices, length indptr[-1]
        node_ids.json    (only when ids are not exactly 0..n-1)
        attributes.json  (only when any node carries attributes)

:func:`save_snapshot` compiles any graph source into this layout;
:func:`load_snapshot` opens one and returns a :class:`MmapCSRBackend`, a
:class:`~repro.api.backend.CSRBackend` whose arrays are ``np.load(...,
mmap_mode="r")`` memory maps — pages are faulted in on demand, so opening a
snapshot is O(1) in the graph size and graphs larger than RAM walk through the
existing middleware stack unchanged.  The manifest pins a format version so a
future layout change fails loudly instead of mis-reading old files.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..api.backend import CSRBackend, GraphBackend, InMemoryBackend
from ..exceptions import SnapshotError
from ..graphs.graph import Graph
from ..types import NodeId

PathLike = Union[str, Path]

#: Format identifier written into (and demanded from) every manifest.
SNAPSHOT_FORMAT = "repro-csr-snapshot"
#: Current layout version; bump on any incompatible change.
SNAPSHOT_VERSION = 1
MANIFEST_NAME = "manifest.json"
_INDPTR_NAME = "indptr.npy"
_INDICES_NAME = "indices.npy"
_NODE_IDS_NAME = "node_ids.json"
_ATTRIBUTES_NAME = "attributes.json"


class MmapCSRBackend(CSRBackend):
    """A :class:`CSRBackend` whose arrays live in a memory-mapped snapshot.

    Behaviourally identical to an in-RAM ``CSRBackend`` over the same arrays
    (the conformance suite asserts bit-identical records, walks and query
    accounting); only the storage of ``indptr`` / ``indices`` differs.  Build
    one with :func:`load_snapshot` or :meth:`open`.
    """

    #: The mapped files are only ever replaced (a new inode), never rewritten
    #: in place, so a snapshot's records never change while it is open.
    immutable_records = True

    def __init__(self, *args, directory: Optional[Path] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.directory = Path(directory) if directory is not None else None

    @classmethod
    def open(cls, directory: PathLike) -> "MmapCSRBackend":
        """Open a snapshot directory written by :func:`save_snapshot`."""
        return load_snapshot(directory, mmap=True)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"MmapCSRBackend(name={self.name!r}, nodes={len(self)}, "
            f"edges={self.number_of_edges}, directory={str(self.directory)!r})"
        )


def _to_csr(source, name: Optional[str]) -> CSRBackend:
    """Compile any snapshot-able source into a :class:`CSRBackend`."""
    if isinstance(source, CSRBackend):
        return source
    if isinstance(source, InMemoryBackend):
        source = source.graph
    if isinstance(source, Graph):
        return CSRBackend.from_graph(source, name=name)
    raise TypeError(
        f"cannot snapshot {type(source).__name__}; accepted types: Graph, "
        "InMemoryBackend, or CSRBackend"
    )


def encode_json_exact(value) -> Optional[str]:
    """Encode ``value`` as JSON, or return ``None`` if the encoding is lossy.

    The on-disk formats store node ids and attributes as JSON; anything JSON
    degrades (tuples to lists, int dict keys to strings) or cannot encode at
    all must be rejected loudly at *save* time, or the write would report
    success and the load would return different — or unreadable — records.
    Returning the already-validated string lets callers write it directly
    instead of serializing the same value twice.
    """
    try:
        encoded = json.dumps(value)
        return encoded if json.loads(encoded) == value else None
    except (TypeError, ValueError):
        return None


def _write_array(directory: Path, filename: str, array: np.ndarray) -> None:
    """Atomically (re)write one ``.npy`` file via a temp file + rename.

    ``np.save`` straight onto the target would truncate the existing inode —
    which may still back the ``np.memmap`` arrays of a live (possibly the
    *source*) :class:`MmapCSRBackend`.  Writing a sibling temp file and
    ``os.replace``-ing it keeps the old inode alive for existing maps, so
    re-saving a snapshot over itself is safe.
    """
    tmp_path = directory / (filename + ".tmp")
    with open(tmp_path, "wb") as handle:
        np.save(handle, array)
    os.replace(tmp_path, directory / filename)


def save_snapshot(source, directory: PathLike, name: Optional[str] = None) -> Path:
    """Write ``source`` as a versioned CSR snapshot and return the directory.

    ``source`` may be a :class:`~repro.graphs.graph.Graph`, an
    :class:`~repro.api.backend.InMemoryBackend` or any
    :class:`~repro.api.backend.CSRBackend` (including an already-mmapped one,
    which copies the snapshot — even onto its own directory).  Graph sources
    are compiled with :meth:`CSRBackend.from_graph`, so neighbor order — and
    therefore every seeded walk — is preserved exactly across the round trip.
    """
    csr = _to_csr(source, name)
    # Validate the JSON-encoded parts before touching the disk, so a
    # rejected save never leaves a half-written snapshot behind.  The
    # identity flag comes from the backend (never materialise n ids just to
    # learn they are 0..n-1 — the common case for huge snapshots).
    identity = csr.identity_ids
    ids_json: Optional[str] = None
    if not identity:
        ids_json = encode_json_exact(csr.node_ids())
        if ids_json is None:
            raise SnapshotError(
                "snapshot node ids must survive a JSON round trip (int or "
                "str); relabel the graph (e.g. relabel_consecutively) first"
            )
    attributes = {node: attrs for node, attrs in csr.node_attributes.items() if attrs}
    # JSON objects force string keys; a pair list keeps int ids intact.
    attributes_json: Optional[str] = None
    if attributes:
        attributes_json = encode_json_exact(
            [[node, attrs] for node, attrs in attributes.items()]
        )
        if attributes_json is None:
            raise SnapshotError(
                "snapshot attributes must survive a JSON round trip "
                "(JSON-native values with string keys); found a value that "
                "does not"
            )
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # e.g. the path (or a parent) exists as a regular file.
        raise SnapshotError(f"cannot create snapshot directory {directory}: {exc}") from exc
    indptr = np.ascontiguousarray(csr.indptr, dtype=np.int64)
    indices = np.ascontiguousarray(csr.indices, dtype=np.int64)
    _write_array(directory, _INDPTR_NAME, indptr)
    _write_array(directory, _INDICES_NAME, indices)
    if ids_json is not None:
        (directory / _NODE_IDS_NAME).write_text(ids_json, encoding="utf-8")
    else:
        (directory / _NODE_IDS_NAME).unlink(missing_ok=True)  # stale overwrite
    if attributes_json is not None:
        (directory / _ATTRIBUTES_NAME).write_text(attributes_json, encoding="utf-8")
    else:
        (directory / _ATTRIBUTES_NAME).unlink(missing_ok=True)  # stale overwrite
    # The "mmap:" prefix is a display marker added by load_snapshot; strip it
    # before persisting so copy/reload cycles don't accrete "mmap:mmap:..." .
    manifest_name = name or csr.name
    if manifest_name.startswith("mmap:"):
        manifest_name = manifest_name[len("mmap:"):]
    manifest: Dict[str, Any] = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "name": manifest_name,
        "nodes": len(csr),
        "entries": int(indices.size),
        "dtype": "int64",
        "identity_ids": identity,
        "has_attributes": bool(attributes),
        "files": {
            "indptr": _INDPTR_NAME,
            "indices": _INDICES_NAME,
            **({"node_ids": _NODE_IDS_NAME} if not identity else {}),
            **({"attributes": _ATTRIBUTES_NAME} if attributes else {}),
        },
    }
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    return directory


def read_manifest(directory: PathLike) -> Dict[str, Any]:
    """Read and validate the manifest of a snapshot directory."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        raise SnapshotError(
            f"{directory} is not a CSR snapshot (missing {MANIFEST_NAME})"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"unreadable snapshot manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise SnapshotError(
            f"{manifest_path} is not a snapshot manifest (expected a JSON "
            f"object, got {type(manifest).__name__})"
        )
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"{manifest_path} is not a {SNAPSHOT_FORMAT} manifest "
            f"(format={manifest.get('format')!r})"
        )
    version = manifest.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot {directory} has format version {version!r}; this build "
            f"reads version {SNAPSHOT_VERSION}"
        )
    return manifest


def load_snapshot(directory: PathLike, mmap: bool = True) -> CSRBackend:
    """Open a snapshot directory written by :func:`save_snapshot`.

    With ``mmap=True`` (the default) the arrays are memory-mapped read-only
    and the returned backend is a :class:`MmapCSRBackend`: opening costs a
    manifest read plus two ``.npy`` header reads, independent of graph size.
    ``mmap=False`` loads the arrays fully into RAM (a plain
    :class:`CSRBackend`), trading the cold-start win for in-memory speed.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    files = manifest.get("files", {})
    declared_dtype = manifest.get("dtype", "int64")
    if declared_dtype != "int64":
        raise SnapshotError(
            f"snapshot {directory} declares dtype {declared_dtype!r}; this "
            f"build reads int64 arrays"
        )
    mode = "r" if mmap else None
    try:
        indptr = np.load(directory / files.get("indptr", _INDPTR_NAME), mmap_mode=mode)
        indices = np.load(directory / files.get("indices", _INDICES_NAME), mmap_mode=mode)
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"unreadable snapshot arrays in {directory}: {exc}") from exc
    if indptr.dtype != np.int64 or indices.dtype != np.int64:
        # A non-int64 array would be silently copied into RAM by the int64
        # coercion in CSRBackend.__init__ — the opposite of a memory map.
        raise SnapshotError(
            f"snapshot arrays in {directory} are {indptr.dtype}/{indices.dtype}, "
            f"expected int64"
        )
    try:
        expected_nodes = int(manifest["nodes"])
        expected_entries = int(manifest["entries"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(
            f"snapshot manifest {directory / MANIFEST_NAME} is missing valid "
            f"'nodes'/'entries' counts: {exc!r}"
        ) from exc
    if indptr.size != expected_nodes + 1 or indices.size != expected_entries:
        raise SnapshotError(
            f"snapshot {directory} is inconsistent: manifest promises "
            f"{expected_nodes} nodes / {expected_entries} entries, arrays "
            f"hold {indptr.size - 1} / {indices.size}"
        )
    node_ids: Optional[List[NodeId]] = None
    attributes: Optional[Dict[NodeId, Dict[str, Any]]] = None
    try:
        if not manifest.get("identity_ids", True):
            node_ids = json.loads(
                (directory / files.get("node_ids", _NODE_IDS_NAME)).read_text(encoding="utf-8")
            )
        if manifest.get("has_attributes"):
            pairs = json.loads(
                (directory / files.get("attributes", _ATTRIBUTES_NAME)).read_text(
                    encoding="utf-8"
                )
            )
            attributes = {node: attrs for node, attrs in pairs}
    except (OSError, ValueError, UnicodeDecodeError, TypeError) as exc:
        raise SnapshotError(
            f"unreadable snapshot node_ids/attributes in {directory}: {exc}"
        ) from exc
    name = manifest.get("name") or directory.name
    try:
        if mmap:
            return MmapCSRBackend(
                indptr, indices, node_ids=node_ids, attributes=attributes,
                name=f"mmap:{name}", directory=directory,
            )
        return CSRBackend(indptr, indices, node_ids=node_ids, attributes=attributes, name=name)
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"snapshot {directory} is inconsistent: {exc}") from exc
