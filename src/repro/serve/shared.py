"""Zero-copy index sharing for multi-process serving.

A saved index is one ``.npz`` of flat arrays plus a JSON meta dict (see
:mod:`repro.core.persistence`).  Deserialising it once *per worker
process* multiplies resident memory by the pool size — exactly what a
"millions of users" deployment cannot afford, since the corpus / tree
arrays dominate a serving process.  :class:`SharedIndexArrays` publishes
those arrays once and lets every worker attach without copying:

* ``backing="shm"`` (default) — the parent decompresses the ``.npz``
  once and copies each array into a :class:`multiprocessing.shared_memory`
  segment; workers map the segments by name.  One physical copy in RAM,
  any number of attached processes.
* ``backing="mmap"`` — the parent materialises each array as a raw
  ``.npy`` file in a spill directory; workers ``np.load(...,
  mmap_mode="r")`` them.  One physical copy in the page cache, and the
  kernel may drop cold pages under pressure — the right trade when the
  index outgrows RAM.

Either way the worker-side arrays are **read-only**: both index families
treat their stored arrays as immutable after assembly, and marking the
views non-writeable turns any future violation of that contract into an
immediate ``ValueError`` instead of silent cross-process corruption.

The handshake is picklable plain data: the parent ships a
:class:`SharedIndexManifest` (array specs + index meta + fingerprint) to
each worker, the worker calls :meth:`SharedIndexArrays.attach` and
assembles its index via :func:`repro.core.persistence.assemble_index`.
Ownership: the *creating* process unlinks the segments / spill files
(:meth:`SharedIndexArrays.unlink`); attached processes only ``close()``.
"""

from __future__ import annotations

import itertools
import json
import tempfile
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.persistence import PathLike, read_index_arrays
from repro.exceptions import ServeError

BACKINGS = ("shm", "mmap")

#: Distinguishes successive republished spill files of one array name.
_REPUBLISH_SEQ = itertools.count(1)


@dataclass(frozen=True)
class SharedArraySpec:
    """Where one named array lives: a shm segment or a spilled ``.npy``."""

    name: str
    shape: Tuple[int, ...]
    dtype: str
    shm_name: Optional[str] = None  # backing="shm"
    path: Optional[str] = None  # backing="mmap"


@dataclass(frozen=True)
class SharedIndexManifest:
    """The picklable handshake a worker needs to attach zero-copy.

    ``kind``/``meta`` mirror the ``.npz`` metadata; ``fingerprint`` is
    the source file's identity token so worker result-cache keys line up
    with the parent's.
    """

    kind: str
    meta: dict
    fingerprint: str
    backing: str
    specs: Tuple[SharedArraySpec, ...]


def _unregister_from_resource_tracker(shm: shared_memory.SharedMemory) -> None:
    """Detach a non-owning attach from the resource tracker.

    ``SharedMemory(name=...)`` registers the segment with the process's
    resource tracker, which would tear it down when *this* process exits
    — but the segment belongs to the pool parent.  CPython grows a
    ``track=False`` parameter only in 3.13; on earlier versions
    unregistering is the established idiom.  Only call this in processes
    with their *own* tracker (spawn-started children): fork children and
    same-process attaches share the creator's tracker, where the
    attach-side registration dedupes away and unregistering here would
    strip the creator's own entry.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


class SharedIndexArrays:
    """One published set of index arrays plus this process's views.

    Create in the pool parent with :meth:`create` (reads the ``.npz``
    once), ship :attr:`manifest` to workers, attach there with
    :meth:`attach`.  :attr:`arrays` then maps member names to read-only
    ``np.ndarray`` views backed by the shared storage.
    """

    def __init__(
        self,
        manifest: SharedIndexManifest,
        arrays: Dict[str, np.ndarray],
        segments: Dict[str, shared_memory.SharedMemory],
        owner: bool,
        spill_dir: Optional[Path] = None,
    ):
        self.manifest = manifest
        self.arrays = arrays
        self._segments = segments
        self._owner = owner
        self._spill_dir = spill_dir
        self._closed = False

    # -- parent side ---------------------------------------------------

    @classmethod
    def create(
        cls,
        path: PathLike,
        backing: str = "shm",
        fingerprint: Optional[str] = None,
        spill_dir: Optional[PathLike] = None,
    ) -> "SharedIndexArrays":
        """Publish the index at ``path`` for zero-copy attachment.

        ``fingerprint`` defaults to ``IndexCache.fingerprint(path)``
        semantics (``<resolved>@<mtime_ns>``) computed here without the
        import cycle.  ``spill_dir`` (mmap backing) defaults to a fresh
        temporary directory owned — and deleted — by this object.
        """
        if backing not in BACKINGS:
            raise ServeError(
                f"backing must be one of {BACKINGS}, got {backing!r}"
            )
        kind, meta, raw = read_index_arrays(path)
        if fingerprint is None:
            resolved = Path(path).resolve()
            if resolved.suffix != ".npz":
                resolved = resolved.with_name(resolved.name + ".npz")
            fingerprint = f"{resolved}@{resolved.stat().st_mtime_ns}"

        specs = []
        arrays: Dict[str, np.ndarray] = {}
        segments: Dict[str, shared_memory.SharedMemory] = {}
        spill: Optional[Path] = None
        if backing == "mmap":
            spill = Path(
                spill_dir
                if spill_dir is not None
                else tempfile.mkdtemp(prefix="repro-index-")
            )
            spill.mkdir(parents=True, exist_ok=True)
        try:
            for name, arr in raw.items():
                arr = np.ascontiguousarray(arr)
                if backing == "shm":
                    seg = shared_memory.SharedMemory(
                        create=True, size=max(arr.nbytes, 1)
                    )
                    view = np.ndarray(
                        arr.shape, dtype=arr.dtype, buffer=seg.buf
                    )
                    view[...] = arr
                    view.flags.writeable = False
                    segments[name] = seg
                    arrays[name] = view
                    specs.append(SharedArraySpec(
                        name=name, shape=tuple(arr.shape),
                        dtype=arr.dtype.str, shm_name=seg.name,
                    ))
                else:
                    npy = spill / f"{name}.npy"
                    np.save(npy, arr)
                    arrays[name] = np.load(npy, mmap_mode="r")
                    specs.append(SharedArraySpec(
                        name=name, shape=tuple(arr.shape),
                        dtype=arr.dtype.str, path=str(npy),
                    ))
        except BaseException:
            for seg in segments.values():
                seg.close()
                seg.unlink()
            raise
        manifest = SharedIndexManifest(
            kind=kind,
            # A json round-trip guarantees the meta stays plain data and
            # cheap to pickle into every worker.
            meta=json.loads(json.dumps(meta)),
            fingerprint=fingerprint,
            backing=backing,
            specs=tuple(specs),
        )
        return cls(manifest, arrays, segments, owner=True, spill_dir=spill)

    def republish(
        self,
        kind: str,
        meta: dict,
        arrays: Dict[str, np.ndarray],
        fingerprint: str,
    ) -> Tuple["SharedIndexArrays", "SharedIndexArrays"]:
        """A successor publication that reuses every unchanged segment.

        For each array, the existing storage is kept when the new array
        is the published view itself (zero-copy pass-through, detected by
        ``np.shares_memory``) or byte-identical to it; only genuinely
        changed arrays get fresh segments / spill files.  This is what
        lets a streaming update republish an index while touching only
        the corpus or tree segments, leaving pivot/anchor storage — and
        the workers' mappings of it — alone.

        Returns ``(successor, retired)``.  ``successor`` owns all live
        storage (reused + new) and carries the new manifest; ``retired``
        owns only the *replaced* storage and must be kept until every
        worker attached to the old manifest has stopped, then
        ``retired.unlink()``.  ``self`` is consumed: its resources have
        been transferred and it is left closed and ownerless.
        """
        if not self._owner:
            raise ServeError("only the owning publication can republish")
        if self._closed:
            raise ServeError("cannot republish a closed publication")
        backing = self.manifest.backing
        old_specs = {s.name: s for s in self.manifest.specs}
        seq = next(_REPUBLISH_SEQ)
        new_specs = []
        new_arrays: Dict[str, np.ndarray] = {}
        new_segments: Dict[str, shared_memory.SharedMemory] = {}
        reused: set = set()
        try:
            for name, arr in arrays.items():
                arr = np.ascontiguousarray(arr)
                old_view = self.arrays.get(name)
                spec = old_specs.get(name)
                if (
                    spec is not None
                    and old_view is not None
                    and tuple(arr.shape) == tuple(spec.shape)
                    and arr.dtype.str == spec.dtype
                    and (
                        np.shares_memory(arr, old_view)
                        # NaN-equal: a cut pivot's estimate row is NaN.
                        or np.array_equal(
                            arr, old_view, equal_nan=arr.dtype.kind == "f"
                        )
                    )
                ):
                    reused.add(name)
                    new_specs.append(spec)
                    new_arrays[name] = old_view
                    if backing == "shm":
                        new_segments[name] = self._segments[name]
                    continue
                if backing == "shm":
                    seg = shared_memory.SharedMemory(
                        create=True, size=max(arr.nbytes, 1)
                    )
                    view = np.ndarray(
                        arr.shape, dtype=arr.dtype, buffer=seg.buf
                    )
                    view[...] = arr
                    view.flags.writeable = False
                    new_segments[name] = seg
                    new_arrays[name] = view
                    new_specs.append(SharedArraySpec(
                        name=name, shape=tuple(arr.shape),
                        dtype=arr.dtype.str, shm_name=seg.name,
                    ))
                else:
                    assert self._spill_dir is not None
                    npy = self._spill_dir / f"{name}.r{seq}.npy"
                    np.save(npy, arr)
                    new_arrays[name] = np.load(npy, mmap_mode="r")
                    new_specs.append(SharedArraySpec(
                        name=name, shape=tuple(arr.shape),
                        dtype=arr.dtype.str, path=str(npy),
                    ))
        except BaseException:
            for name, seg in new_segments.items():
                if name not in reused:
                    seg.close()
                    seg.unlink()
            raise
        successor = SharedIndexArrays(
            SharedIndexManifest(
                kind=kind,
                meta=json.loads(json.dumps(meta)),
                fingerprint=fingerprint,
                backing=backing,
                specs=tuple(new_specs),
            ),
            new_arrays,
            new_segments,
            owner=True,
            spill_dir=self._spill_dir,
        )
        retired = SharedIndexArrays(
            SharedIndexManifest(
                kind=self.manifest.kind,
                meta=self.manifest.meta,
                fingerprint=self.manifest.fingerprint,
                backing=backing,
                specs=tuple(
                    s for n, s in old_specs.items() if n not in reused
                ),
            ),
            {},
            {
                n: seg for n, seg in self._segments.items()
                if n not in reused
            },
            owner=True,
            # Spec-listed spill files are deleted on unlink; the spill
            # directory itself now belongs to the successor (the rmdir
            # attempt on a non-empty dir is a tolerated no-op).
            spill_dir=self._spill_dir,
        )
        # self is consumed: everything it owned now lives in successor or
        # retired, and double-close/unlink must not touch either.
        self.arrays = {}
        self._segments = {}
        self._owner = False
        self._spill_dir = None
        self._closed = True
        return successor, retired

    # -- worker side ---------------------------------------------------

    @classmethod
    def attach(
        cls, manifest: SharedIndexManifest, untrack: bool = False
    ) -> "SharedIndexArrays":
        """Map a published manifest in this process (no copies).

        Pass ``untrack=True`` from spawn-started worker processes (their
        private resource tracker would otherwise destroy the segments
        when the worker exits); leave it ``False`` in fork children and
        in the creating process itself, which share the creator's
        tracker.
        """
        arrays: Dict[str, np.ndarray] = {}
        segments: Dict[str, shared_memory.SharedMemory] = {}
        try:
            for spec in manifest.specs:
                dtype = np.dtype(spec.dtype)
                if manifest.backing == "shm":
                    if spec.shm_name is None:
                        raise ServeError(
                            f"manifest entry {spec.name} has no shm segment"
                        )
                    seg = shared_memory.SharedMemory(name=spec.shm_name)
                    if untrack:
                        _unregister_from_resource_tracker(seg)
                    n_bytes = int(np.prod(spec.shape, dtype=np.int64)) * (
                        dtype.itemsize
                    )
                    view = np.ndarray(
                        spec.shape, dtype=dtype, buffer=seg.buf[:n_bytes]
                    )
                    view.flags.writeable = False
                    segments[spec.name] = seg
                    arrays[spec.name] = view
                else:
                    if spec.path is None:
                        raise ServeError(
                            f"manifest entry {spec.name} has no spill path"
                        )
                    arrays[spec.name] = np.load(spec.path, mmap_mode="r")
        except BaseException:
            for seg in segments.values():
                seg.close()
            raise
        return cls(manifest, arrays, segments, owner=False)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Drop this process's mappings (the storage itself survives)."""
        if self._closed:
            return
        self._closed = True
        # The numpy views hold buffer references; release them before
        # closing the segments so mmap teardown doesn't raise.
        self.arrays = {}
        for seg in self._segments.values():
            try:
                seg.close()
            except (OSError, BufferError):  # pragma: no cover - best effort
                pass
        self._segments = {}

    def unlink(self) -> None:
        """Destroy the shared storage (owner only; implies close)."""
        if not self._owner:
            raise ServeError("only the creating process may unlink")
        segments = dict(self._segments)
        self.close()
        for seg in segments.values():
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        if self._spill_dir is not None:
            for spec in self.manifest.specs:
                if spec.path is not None:
                    Path(spec.path).unlink(missing_ok=True)
            try:
                self._spill_dir.rmdir()
            except OSError:  # pragma: no cover - foreign files present
                pass
            self._spill_dir = None

    @property
    def nbytes(self) -> int:
        """Total bytes published (one copy, however many attachments)."""
        return sum(
            int(np.prod(s.shape, dtype=np.int64)) * np.dtype(s.dtype).itemsize
            for s in self.manifest.specs
        )

    def __enter__(self) -> "SharedIndexArrays":
        return self

    def __exit__(self, *exc_info) -> bool:
        if self._owner:
            self.unlink()
        else:
            self.close()
        return False


def attach_index(manifest: SharedIndexManifest, network, untrack: bool = False):
    """Worker-side convenience: attach + assemble in one call.

    Returns ``(handle, index)``; the caller owns closing the handle when
    the index is no longer needed (the index keeps views into it).  See
    :meth:`SharedIndexArrays.attach` for ``untrack``.
    """
    from repro.core.persistence import assemble_index

    handle = SharedIndexArrays.attach(manifest, untrack=untrack)
    index = assemble_index(
        manifest.kind,
        network,
        manifest.meta,
        handle.arrays,
        source=f"shared index {manifest.fingerprint}",
    )
    return handle, index
