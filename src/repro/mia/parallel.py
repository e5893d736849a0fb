"""Parallel MIIA construction over a multiprocessing worker pool.

Building one ``MIIA(v)`` per node — a theta-pruned Dijkstra over the whole
graph, ``n`` times — dominates MIA-DA's offline cost and is parallel by
construction: every arborescence is an independent computation.
:class:`ParallelMiaBuilder` fans the node range out over worker processes
while keeping the output **bit-identical** to the serial build:

* the node range ``[0, n)`` is split into a deterministic *chunk plan*
  (a function of ``n`` and ``n_workers`` only) of contiguous root ranges;
* each chunk travels back as one flat CSR block — ``(members, parents,
  edge_probs, path_probs, offsets)``, the exact layout
  :class:`~repro.mia.pmia.MiaModel` flattens into — one pickle per chunk
  instead of one per tree;
* chunk results are concatenated in plan order, which is node order, so
  scheduler jitter can never reorder the index.

MIIA construction is deterministic (no RNG), so unlike RR sampling the
output does not even depend on ``n_workers``: every ``(n_workers,
execution mode)`` combination — pool, fallback, ``force_serial`` —
produces the same bytes the serial build would.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.mia.arborescence import build_miia
from repro.mia.pmia import FlatTrees, MiaModel
from repro.network.graph import GeoSocialNetwork
from repro.obs.progress import Heartbeat
from repro.obs.trace import SpanContext, get_tracer, span_context, worker_span

#: One chunk's CSR block plus its (optional) finished worker span dict.
ChunkResult = Tuple[FlatTrees, Optional[Dict[str, Any]]]

#: Chunks per worker in one build: > 1 so a slow chunk (hub-heavy trees)
#: doesn't leave the other workers idle at the tail of the build.
_CHUNKS_PER_WORKER = 4

#: Below this node count pool dispatch costs more than it saves; the
#: chunk plan is unchanged, only the execution stays in-process.
_MIN_PARALLEL_NODES = 256

# Per-worker-process state, set once by the pool initializer so each task
# message carries only (start, count).
_worker_network: GeoSocialNetwork | None = None
_worker_theta: float = 0.05


def _init_worker(network: GeoSocialNetwork, theta: float) -> None:
    global _worker_network, _worker_theta
    _worker_network = network
    _worker_theta = theta


def _build_chunk(
    network: GeoSocialNetwork,
    theta: float,
    start: int,
    count: int,
    ctx: Optional[SpanContext] = None,
) -> ChunkResult:
    """``MIIA(v)`` for roots ``start .. start+count`` as one CSR block.

    ``ctx`` is the parent build span's propagated context; when set, the
    chunk's timing comes back as a finished span dict for the parent
    tracer to adopt.  Tree construction is unaffected.
    """
    start_unix = time.time()
    t0 = time.perf_counter()
    trees = [build_miia(network, v, theta) for v in range(start, start + count)]
    sizes = np.asarray([len(t) for t in trees], dtype=np.int64)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    if trees:
        members = np.concatenate([t.nodes for t in trees])
        parents = np.concatenate([t.parent for t in trees])
        edge_probs = np.concatenate([t.edge_prob for t in trees])
        path_probs = np.concatenate([t.path_prob for t in trees])
    else:
        members = np.empty(0, dtype=np.int64)
        parents = np.empty(0, dtype=np.int64)
        edge_probs = np.empty(0, dtype=float)
        path_probs = np.empty(0, dtype=float)
    span = worker_span(
        "mia.build_chunk", ctx, start_unix,
        (time.perf_counter() - t0) * 1e3,
        {"start": start, "count": count},
    )
    return (members, parents, edge_probs, path_probs, offsets), span


def _pool_task(args: tuple[int, int, Optional[SpanContext]]) -> ChunkResult:
    start, count, ctx = args
    assert _worker_network is not None, "worker pool not initialised"
    return _build_chunk(_worker_network, _worker_theta, start, count, ctx)


def _concat_chunks(parts: List[FlatTrees]) -> FlatTrees:
    members = np.concatenate([p[0] for p in parts])
    parents = np.concatenate([p[1] for p in parts])
    edge_probs = np.concatenate([p[2] for p in parts])
    path_probs = np.concatenate([p[3] for p in parts])
    sizes = np.concatenate([np.diff(p[4]) for p in parts])
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return members, parents, edge_probs, path_probs, offsets


class ParallelMiaBuilder:
    """Builds all ``MIIA(v)`` trees in parallel, bit-identical to serial.

    The design: a deterministic chunk plan, flat-array chunk transfer,
    lazy pool start, and an in-process fallback — engaged when
    ``n_workers <= 1``, when ``force_serial`` is set, when the graph is
    too small to amortise pool dispatch, or when the pool cannot start
    (restricted environments) — that executes the identical chunk plan.

    Parameters
    ----------
    network:
        The network whose arborescences to build.
    theta:
        MIP pruning threshold, as for :class:`~repro.mia.pmia.MiaModel`.
    n_workers:
        Worker-process count.  ``1`` never starts a pool.
    force_serial:
        Execute the chunk plan in-process even when ``n_workers > 1``
        (useful in sandboxes that forbid subprocesses).

    Determinism contract: the flat index is bit-identical across all
    ``n_workers`` values and execution modes — MIIA construction has no
    randomness, and concatenation in plan order restores node order.
    """

    def __init__(
        self,
        network: GeoSocialNetwork,
        theta: float = 0.05,
        n_workers: int = 1,
        force_serial: bool = False,
    ):
        if n_workers < 1:
            raise GraphError(f"n_workers must be at least 1, got {n_workers}")
        if not 0.0 < theta <= 1.0:
            raise GraphError(f"theta must be in (0, 1], got {theta}")
        self.network = network
        self.theta = float(theta)
        self.n_workers = int(n_workers)
        self.force_serial = bool(force_serial)
        self._pool = None
        self._pool_broken = False

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def build_flat(self) -> FlatTrees:
        """All ``n`` arborescences as one :data:`FlatTrees` CSR block."""
        n = self.network.n
        if n == 0:
            empty_i = np.empty(0, dtype=np.int64)
            empty_f = np.empty(0, dtype=float)
            return (
                empty_i,
                empty_i.copy(),
                empty_f,
                empty_f.copy(),
                np.zeros(1, dtype=np.int64),
            )
        plan = self._chunk_plan(n)
        tracer = get_tracer()
        with tracer.span(
            "mia.build_trees",
            {"n": n, "n_chunks": len(plan), "n_workers": self.n_workers,
             "theta": self.theta},
        ) as span:
            ctx = span_context(span)
            tasks = [(start, count, ctx) for start, count in plan]
            parts, chunk_spans = self._run_tasks(tasks, n)
            tracer.adopt(chunk_spans)
        return _concat_chunks(parts)

    def build_model(self) -> MiaModel:
        """A :class:`MiaModel` assembled from the (possibly pooled) build."""
        return MiaModel.from_flat_trees(
            self.network, self.theta, self.build_flat()
        )

    def _chunk_plan(self, n: int) -> List[Tuple[int, int]]:
        """Contiguous ``(start, count)`` root ranges covering ``[0, n)``."""
        n_chunks = max(1, min(n, self.n_workers * _CHUNKS_PER_WORKER))
        base, extra = divmod(n, n_chunks)
        plan: List[Tuple[int, int]] = []
        start = 0
        for i in range(n_chunks):
            count = base + (1 if i < extra else 0)
            plan.append((start, count))
            start += count
        return plan

    def _run_tasks(
        self, tasks: List[Tuple[int, int, Optional[SpanContext]]], n: int
    ) -> Tuple[List[FlatTrees], List[Optional[Dict[str, Any]]]]:
        if n >= _MIN_PARALLEL_NODES:
            pool = self._ensure_pool()
            if pool is not None:
                try:
                    # imap keeps plan order (node order) while letting the
                    # heartbeat tick as chunk results are collected.
                    hb = Heartbeat("mia.trees", total=n, unit="trees")
                    results: List[ChunkResult] = []
                    for task, chunk in zip(
                        tasks, pool.imap(_pool_task, tasks)
                    ):
                        results.append(chunk)
                        hb.advance(task[1])
                    hb.finish()
                    return (
                        [r[0] for r in results],
                        [r[1] for r in results],
                    )
                except Exception:
                    # A dead/poisoned pool (e.g. a worker was killed) must
                    # not lose the build: mark it broken and replay the
                    # identical chunk plan in-process.
                    self._teardown_pool(broken=True)
        hb = Heartbeat("mia.trees", total=n, unit="trees")
        parts: List[FlatTrees] = []
        spans: List[Optional[Dict[str, Any]]] = []
        for start, count, ctx in tasks:
            block, span = _build_chunk(
                self.network, self.theta, start, count, ctx
            )
            parts.append(block)
            spans.append(span)
            hb.advance(count)
        hb.finish()
        return parts, spans

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _ensure_pool(self):
        if self.force_serial or self.n_workers <= 1 or self._pool_broken:
            return None
        if self._pool is None:
            try:
                methods = multiprocessing.get_all_start_methods()
                # fork shares the network copy-on-write; elsewhere the
                # initializer ships it once per worker.
                ctx = multiprocessing.get_context(
                    "fork" if "fork" in methods else None
                )
                self._pool = ctx.Pool(
                    self.n_workers,
                    initializer=_init_worker,
                    initargs=(self.network, self.theta),
                )
            except (OSError, ValueError, RuntimeError, PermissionError):
                self._pool_broken = True
                return None
        return self._pool

    def close(self) -> None:
        """Release the worker pool (restarted lazily if building resumes)."""
        self._teardown_pool(broken=False)

    def _teardown_pool(self, broken: bool) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.terminate()
                pool.join()
            except Exception:
                pass
        if broken:
            self._pool_broken = True

    @property
    def pool_active(self) -> bool:
        """Whether a worker pool is currently running."""
        return self._pool is not None

    def __enter__(self) -> "ParallelMiaBuilder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self._teardown_pool(broken=False)
        except Exception:
            pass
