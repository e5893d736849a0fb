"""Caches for the online serving layer.

Two caches with different lifetimes and keys:

* :class:`IndexCache` — an LRU of *loaded* offline indexes, keyed by
  ``(path, mtime_ns)``.  Loading an index file costs a corpus/tree
  deserialisation plus the inverted-index or k-d-tree rebuild, so a
  serving process must pay it once per file, not once per query batch.
  The mtime in the key makes rebuilt index files invalidate naturally:
  a new build at the same path gets a new key and the stale entry is
  dropped.  Entries are tagged with the file's ``kind`` (``"ris"`` /
  ``"mia"``), and a caller that requires one kind gets a clear
  :class:`~repro.exceptions.ServeError` when pointed at the other.
  Cold loads run *outside* the cache lock behind a per-key future
  (double-checked locking): concurrent misses on the same key coalesce
  into one load, and a slow load never blocks hits or misses on other
  keys.

* :class:`ResultCache` — an LRU of query *results*, keyed by
  ``(index fingerprint, index generation, quantized query cell, kind,
  k-or-budget[, mask/cost fingerprint])`` — see
  :func:`repro.core.querykind.cache_extra` for the kind-discriminating
  tail.  Nearby queries produce the same seed set because node weights
  vary smoothly in the query location (the same locality the paper's
  pivot/anchor structures exploit); quantizing the location to a grid
  cell turns that locality into exact key equality.  The cell size
  bounds the approximation: two queries in one cell differ in
  distance-to-any-node by at most the cell diagonal.  The kind tail
  keeps distinct query semantics at one cell from colliding: a targeted
  query carries a digest of its target set, a budgeted query its budget
  and cost structure; heuristic answers are never cached at all.
  Trajectory waypoints share the ``point`` keyspace deliberately — a
  waypoint's answer *is* the point answer for that location.  The
  engine owns the grid; this class is a plain keyed LRU.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from pathlib import Path
from typing import Any, Dict, Hashable, Optional, Tuple, Union

from repro.core.mia_da import MiaDaIndex
from repro.core.persistence import PathLike, load_index
from repro.core.ris_da import RisDaIndex
from repro.exceptions import ServeError
from repro.network.graph import GeoSocialNetwork
from repro.serve.metrics import MetricsRegistry

AnyIndex = Union[RisDaIndex, MiaDaIndex]


class IndexCache:
    """An LRU cache of loaded on-disk indexes, keyed by path + mtime.

    ``capacity`` bounds how many deserialised indexes stay resident (they
    dominate a serving process's memory).  ``metrics`` (optional) records
    ``index_cache.hits`` / ``.misses`` / ``.evictions``.
    """

    def __init__(
        self,
        capacity: int = 4,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if capacity <= 0:
            raise ServeError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.metrics = metrics
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, int], Tuple[str, AnyIndex]]" = (
            OrderedDict()
        )
        # One in-flight load per key; the lock only guards the maps, the
        # deserialisation itself runs lock-free behind the future.
        self._loads: Dict[Tuple[str, int], "Future[Tuple[str, AnyIndex]]"] = {}

    @staticmethod
    def _key(path: PathLike) -> Tuple[str, int]:
        resolved = Path(path).resolve()
        if resolved.suffix != ".npz":  # mirror persistence's normalisation
            resolved = resolved.with_name(resolved.name + ".npz")
        try:
            mtime_ns = resolved.stat().st_mtime_ns
        except OSError as exc:
            raise ServeError(f"cannot stat index file {resolved}: {exc}")
        return str(resolved), mtime_ns

    @staticmethod
    def fingerprint(path: PathLike) -> str:
        """A stable identity token for the file's *current* content.

        Used as the index component of result-cache keys, so results
        cached against an old build never survive a rebuild of the file.
        """
        resolved, mtime_ns = IndexCache._key(path)
        return f"{resolved}@{mtime_ns}"

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self,
        path: PathLike,
        network: GeoSocialNetwork,
        kind: Optional[str] = None,
    ) -> Tuple[str, AnyIndex]:
        """The loaded index at ``path``; ``(kind, index)``.

        ``kind`` (``"ris"`` or ``"mia"``), when given, asserts what the
        caller can serve: a mismatching file raises :class:`ServeError`
        instead of handing a MIA index to a RIS engine (or vice versa).
        A file modified since it was cached is reloaded (the mtime is
        part of the key) and the stale entry is dropped.

        A miss deserialises *outside* the lock: the first thread to miss
        a key becomes its loader and publishes through a per-key future;
        concurrent misses on the same key wait on that future (counted
        as ``index_cache.coalesced``) instead of loading again, and
        threads after other keys — cached or not — proceed unblocked.
        """
        if kind is not None and kind not in ("ris", "mia"):
            raise ServeError(f"kind must be 'ris' or 'mia', got {kind!r}")
        key = self._key(path)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                if self.metrics is not None:
                    self.metrics.inc("index_cache.hits")
                self._check_kind(path, entry[0], kind)
                return entry
            pending = self._loads.get(key)
            if pending is None:
                pending = self._loads[key] = Future()
                loader = True
                if self.metrics is not None:
                    self.metrics.inc("index_cache.misses")
            else:
                loader = False
                if self.metrics is not None:
                    self.metrics.inc("index_cache.coalesced")

        if not loader:
            loaded_kind, index = pending.result()
            self._check_kind(path, loaded_kind, kind)
            return loaded_kind, index

        try:
            loaded_kind, index = load_index(path, network)
        except BaseException as exc:
            with self._lock:
                self._loads.pop(key, None)  # a later get may retry
            pending.set_exception(exc)
            raise
        with self._lock:
            self._loads.pop(key, None)
            # Drop stale versions of the same file before inserting the
            # fresh one; capacity then evicts true LRU entries only.
            for stale in [k for k in self._entries if k[0] == key[0]]:
                del self._entries[stale]
            self._entries[key] = (loaded_kind, index)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                if self.metrics is not None:
                    self.metrics.inc("index_cache.evictions")
        pending.set_result((loaded_kind, index))
        self._check_kind(path, loaded_kind, kind)
        return loaded_kind, index

    @staticmethod
    def _check_kind(path: PathLike, actual: str, expected: Optional[str]) -> None:
        if expected is not None and actual != expected:
            raise ServeError(
                f"{path} holds a {actual.upper()}-DA index but this engine "
                f"serves {expected.upper()}-DA queries; point it at a "
                f"matching index (or build one with "
                f"'repro build-{expected}')"
            )


class ResultCache:
    """A thread-safe LRU of query answers keyed by the caller.

    The engine keys entries by ``(index fingerprint, grid cell, k)`` and
    stores ``(SeedResult, guarantee_met, certified_ratio)`` triples; the
    cache itself only requires keys to be hashable.  ``metrics``
    (optional) records ``result_cache.hits`` / ``.misses``.
    """

    def __init__(
        self,
        capacity: int = 1024,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if capacity <= 0:
            raise ServeError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.metrics = metrics
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                if self.metrics is not None:
                    self.metrics.inc("result_cache.misses")
                return None
            self._entries.move_to_end(key)
        if self.metrics is not None:
            self.metrics.inc("result_cache.hits")
        return result

    def put(self, key: Hashable, result: Any) -> None:
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
