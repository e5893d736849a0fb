"""MIA-DA: the index-based MIA approach (Section 3).

Offline, the index holds:

* the :class:`~repro.mia.pmia.MiaModel` (all arborescences, as PMIA does);
* :class:`~repro.core.bounds.AnchorBounds` over ``|L|`` sampled anchor
  locations (paper default 300);
* :class:`~repro.core.bounds.RegionBounds` for the heavy nodes (paper's
  ``tau = 200`` region-based estimation).

Online, a query runs the *priority-based search*: candidates live in a
max-heap keyed by the best-known upper bound of their marginal influence —
initially the anchor/region bound (Rule 1), later stale exact marginals
(Rule 2, valid upper bounds by submodularity, CELF-style).  A node is
selected when its bound is exact at the current iteration, or when its
*lower* bound already dominates every other candidate's upper bound (the
lower-bound shortcut of Rule 1).  Nodes whose upper bound never reaches
the top of the heap are pruned without ever being evaluated — that is the
speed-up over PMIA that Figure 4 measures.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.bounds import AnchorBounds, RegionBounds
from repro.core.query import DaimQuery, SeedResult
from repro.exceptions import QueryError
from repro.geo.point import PointLike
from repro.geo.sampling import sample_density_pivots, sample_uniform_points
from repro.geo.weights import DistanceDecay
from repro.mia.influence import activation_probabilities, linear_coefficients
from repro.mia.parallel import ParallelMiaBuilder
from repro.mia.pmia import MiaModel
from repro.network.graph import GeoSocialNetwork
from repro.obs.log import get_logger
from repro.obs.trace import get_tracer
from repro.rng import as_generator


@dataclass(frozen=True)
class MiaQueryDiagnostics:
    """Side-channel information about one MIA-DA query.

    ``setup_seconds`` is the per-query bound setup (node weights plus the
    anchor/region bound evaluation) that :attr:`SeedResult.elapsed`
    deliberately excludes — MIA-DA's ``elapsed`` is *selection only*.
    ``heap_pops`` counts priority-queue pops; together with
    ``evaluations`` it measures how well the bounds prune.
    """

    evaluations: int
    heap_pops: int
    setup_seconds: float


@dataclass(frozen=True)
class MiaDaConfig:
    """Build-time parameters of the MIA-DA index.

    ``n_anchors`` is the paper's ``|L|`` (default 300), ``tau`` the region
    count for heavy-node bounds (default 200), ``theta`` the MIP pruning
    threshold (default 0.05).  ``n_heavy`` bounds how many nodes get a
    region index; ``None`` picks ``max(32, n // 20)``.  ``n_workers`` fans
    the arborescence build over that many worker processes (``1`` builds
    serially in-process; the index is bit-identical either way).
    """

    theta: float = 0.05
    n_anchors: int = 300
    tau: int = 200
    n_heavy: Optional[int] = None
    anchor_strategy: str = "uniform"
    seed: int = 0
    n_workers: int = 1

    def __post_init__(self) -> None:
        if self.n_anchors <= 0:
            raise QueryError(f"n_anchors must be positive, got {self.n_anchors}")
        if self.tau <= 0:
            raise QueryError(f"tau must be positive, got {self.tau}")
        if self.n_heavy is not None and self.n_heavy <= 0:
            raise QueryError(
                f"n_heavy must be positive (or None for automatic sizing), "
                f"got {self.n_heavy}"
            )
        if self.n_workers < 1:
            raise QueryError(f"n_workers must be at least 1, got {self.n_workers}")
        if self.anchor_strategy not in ("uniform", "density"):
            raise QueryError(
                f"anchor_strategy must be 'uniform' or 'density', "
                f"got {self.anchor_strategy!r}"
            )


class _LazyMiaState:
    """Per-query MIA greedy state with *lazy* per-root refresh.

    Unlike :class:`~repro.mia.pmia.MiaGreedyState`, no global gain vector
    is maintained — marginals are computed only for the nodes the priority
    search actually asks about.
    """

    def __init__(self, model: MiaModel, weights: np.ndarray):
        self.model = model
        self.weights = weights
        self.seeds: list[int] = []
        self._seed_set: Set[int] = set()
        self._ap: Dict[int, np.ndarray] = {}
        self._alpha: Dict[int, np.ndarray] = {}
        self._dirty: Set[int] = set()
        self._touched_roots: Set[int] = set()

    def marginal(self, u: int) -> float:
        """Exact ``I_q^m(u | S)`` at the current seed set."""
        u = int(u)
        roots, probs = self.model.reach_of(u)
        if not self.seeds:
            # No seeds yet: marginal == singleton influence, a dot product.
            return float(np.dot(probs, self.weights[roots]))
        total = 0.0
        for v in roots:
            v = int(v)
            wv = float(self.weights[v])
            if wv == 0.0:
                continue
            ap, alpha = self._tree_state(v)
            tree = self.model.trees[v]
            i = tree.local_index(u)
            total += float(alpha[i]) * (1.0 - float(ap[i])) * wv
        return total

    def add_seed(self, u: int) -> None:
        u = int(u)
        if u in self._seed_set:
            raise QueryError(f"node {u} is already a seed")
        self._seed_set.add(u)
        self.seeds.append(u)
        roots, _ = self.model.reach_of(u)
        for v in roots:
            v = int(v)
            self._dirty.add(v)
            self._touched_roots.add(v)

    def spread(self) -> float:
        """``I_q^m(S)`` over all roots any seed can reach."""
        total = 0.0
        for v in self._touched_roots:
            ap, _ = self._tree_state(v)
            total += float(ap[0]) * float(self.weights[v])
        return total

    def _tree_state(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        if v in self._ap and v not in self._dirty:
            return self._ap[v], self._alpha[v]
        tree = self.model.trees[v]
        # Roots untouched by any seed keep the closed-form empty state.
        if v not in self._touched_roots:
            ap = np.zeros(len(tree), dtype=float)
            alpha = tree.path_prob
        else:
            ap = activation_probabilities(tree, self._seed_set)
            alpha = linear_coefficients(tree, self._seed_set, ap)
        self._ap[v] = ap
        self._alpha[v] = alpha
        self._dirty.discard(v)
        return ap, alpha


class MiaDaIndex:
    """The MIA-DA offline index and its online query processor."""

    def __init__(
        self,
        network: GeoSocialNetwork,
        decay: DistanceDecay | None = None,
        config: MiaDaConfig | None = None,
        model: MiaModel | None = None,
    ):
        self.network = network
        self.decay = decay if decay is not None else DistanceDecay()
        self.config = config if config is not None else MiaDaConfig()
        #: Bumped by :meth:`update`; serving folds it into cache keys so
        #: result-cache entries die when the in-memory index changes.
        self.generation = 0
        tracer = get_tracer()
        logger = get_logger()
        if logger.enabled:
            logger.event(
                "build_start", phase="mia.build", n=network.n,
                theta=self.config.theta, n_anchors=self.config.n_anchors,
                n_workers=self.config.n_workers,
            )
        build_start = time.perf_counter()
        with tracer.span(
            "mia.build",
            {"n": network.n, "theta": self.config.theta,
             "n_anchors": self.config.n_anchors, "tau": self.config.tau,
             "n_workers": self.config.n_workers},
        ):
            if model is not None:
                self.model = model
            elif self.config.n_workers > 1:
                # ParallelMiaBuilder emits its own "mia.build_trees" span
                # (with re-parented per-chunk worker spans) inside ours.
                with ParallelMiaBuilder(
                    network, self.config.theta,
                    n_workers=self.config.n_workers,
                ) as builder:
                    self.model = builder.build_model()
            else:
                with tracer.span("mia.build_trees", {"n": network.n}):
                    self.model = MiaModel(network, self.config.theta)
            rng = as_generator(self.config.seed)
            if self.config.anchor_strategy == "uniform":
                anchors = sample_uniform_points(
                    network.bounding_box(), self.config.n_anchors, rng
                )
            else:
                anchors = sample_density_pivots(
                    network.coords, self.config.n_anchors, rng
                )
            with tracer.span(
                "mia.anchor_bounds", {"n_anchors": len(anchors)}
            ):
                self.anchor_bounds = AnchorBounds(
                    self.model, self.decay, anchors
                )
            n_heavy = self.config.n_heavy
            if n_heavy is None:
                n_heavy = max(32, network.n // 20)
            n_heavy = min(n_heavy, network.n)
            # Heavy = largest influence seen at any anchor (a cheap, robust
            # proxy for "influential anywhere").
            peak = self.anchor_bounds.influence.max(axis=0)
            heavy = np.argpartition(
                peak, network.n - n_heavy
            )[network.n - n_heavy :]
            with tracer.span(
                "mia.region_bounds",
                {"n_heavy": int(n_heavy), "tau": self.config.tau},
            ):
                self.region_bounds = RegionBounds(
                    self.model, self.decay, heavy, self.config.tau
                )
        self.build_seconds = time.perf_counter() - build_start
        if logger.enabled:
            logger.event(
                "build_end", phase="mia.build",
                seconds=round(self.build_seconds, 3), n=network.n,
            )

    # ------------------------------------------------------------------
    # Streaming maintenance
    # ------------------------------------------------------------------

    def update(
        self,
        edges=None,
        probabilities=None,
        removed=None,
        checkins=None,
        *,
        delta=None,
    ) -> "UpdateStats":
        """Fold a graph delta into the index without a full rebuild.

        Only the *dirty* arborescences are rebuilt: a changed edge
        ``<u, w>`` can alter ``MIIA(v)`` only if the tree already
        contains a changed-edge endpoint (a maximum-influence path
        through the edge enters ``v`` via ``w``'s unchanged MIP suffix,
        which must clear ``theta`` — so ``w`` sits in the old tree).
        Those trees are found through the flat membership index
        (:meth:`MiaModel.reach_of`) and rebuilt over the new network;
        every other tree is reused as-is.  The anchor and region bounds
        are then recomputed through the same constructors a fresh build
        runs (they are vectorized and cheap next to ``n`` Dijkstras), so
        the updated index is **bit-identical** to a from-scratch rebuild
        on the final graph.

        Accepts either loose arguments (as in
        :meth:`repro.stream.GraphDelta.make`) or a prepared ``delta``.
        Returns :class:`repro.stream.UpdateStats`; bumps
        :attr:`generation` so serving caches invalidate.
        """
        from repro.mia.arborescence import build_miia
        from repro.stream.delta import GraphDelta, UpdateStats, apply_delta

        start = time.perf_counter()
        if delta is None:
            delta = GraphDelta.make(
                edges=edges, probabilities=probabilities,
                removed=removed, checkins=checkins,
            )
        applied = apply_delta(self.network, delta)
        cfg = self.config
        dirty_roots: Set[int] = set()
        for d in applied.dirty_nodes:
            roots, _ = self.model.reach_of(int(d))
            dirty_roots.update(int(v) for v in roots)
        net = applied.network
        trees = [
            build_miia(net, v, cfg.theta) if v in dirty_roots
            else self.model.trees[v]
            for v in range(net.n)
        ]
        self.network = net
        self.model = MiaModel(net, cfg.theta, trees=trees)
        # Geometry-dependent structures are recomputed wholesale through
        # the build's exact code path (same RNG consumption, new bounding
        # box) — that is what buys bit-identical rebuild parity even when
        # check-ins move the bounding box.
        rng = as_generator(cfg.seed)
        if cfg.anchor_strategy == "uniform":
            anchors = sample_uniform_points(
                net.bounding_box(), cfg.n_anchors, rng
            )
        else:
            anchors = sample_density_pivots(net.coords, cfg.n_anchors, rng)
        self.anchor_bounds = AnchorBounds(self.model, self.decay, anchors)
        n_heavy = cfg.n_heavy
        if n_heavy is None:
            n_heavy = max(32, net.n // 20)
        n_heavy = min(n_heavy, net.n)
        peak = self.anchor_bounds.influence.max(axis=0)
        heavy = np.argpartition(peak, net.n - n_heavy)[net.n - n_heavy:]
        self.region_bounds = RegionBounds(
            self.model, self.decay, heavy, cfg.tau
        )
        self.generation += 1
        stats = UpdateStats(
            generation=self.generation,
            dirty_nodes=int(len(applied.dirty_nodes)),
            dirty_fraction=float(len(applied.dirty_nodes)) / net.n,
            moved_nodes=int(len(applied.moved_nodes)),
            samples_retired=0,
            samples_added=0,
            trees_rebuilt=int(len(dirty_roots)),
            seconds=time.perf_counter() - start,
            updated_unix=time.time(),
        )
        logger = get_logger()
        if logger.enabled:
            logger.event(
                "index_update", kind="mia",
                generation=stats.generation,
                dirty_nodes=stats.dirty_nodes,
                trees_rebuilt=stats.trees_rebuilt,
                seconds=round(stats.seconds, 4),
            )
        return stats

    # ------------------------------------------------------------------

    def node_bounds(self, q: PointLike) -> Tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` singleton-influence bounds for every node.

        Anchor bounds refined by region bounds on the heavy nodes.  Exposed
        for tests (bound validity) and ablations.
        """
        lower, upper = self.anchor_bounds.bounds(q)
        d_min, d_max = self.region_bounds.cell_distances(q)
        for u in self.region_bounds.nodes:
            lo, hi = self.region_bounds.bounds_for(int(u), d_min, d_max)
            u = int(u)
            upper[u] = min(upper[u], hi)
            lower[u] = max(lower[u], lo)
        return lower, upper

    def query(
        self,
        q: PointLike | DaimQuery,
        k: int | None = None,
        return_diagnostics: bool = False,
    ) -> SeedResult | Tuple[SeedResult, MiaQueryDiagnostics]:
        """Answer a DAIM query with the priority-based search.

        Accepts either ``query(DaimQuery(loc, k))`` or ``query(loc, k)``.
        With ``return_diagnostics`` the result comes with a
        :class:`MiaQueryDiagnostics` (pruning stats, bound-setup time).
        ``SeedResult.elapsed`` covers seed *selection* only; the bound
        setup is measured separately as ``diagnostics.setup_seconds``.
        """
        if isinstance(q, DaimQuery):
            location, k = q.location, q.k
        else:
            if k is None:
                raise QueryError("k is required when passing a bare location")
            location = q
        return self._priority_query(location, k, return_diagnostics, mask=None)

    def query_masked(
        self,
        q: PointLike,
        k: int,
        mask: np.ndarray,
        return_diagnostics: bool = False,
    ) -> SeedResult | Tuple[SeedResult, MiaQueryDiagnostics]:
        """A targeted (bichromatic) query under a per-node weight mask.

        MIA influence is linear in the node weights (``sigma_q(u) =
        sum_v ap_u(v) * w(v, q)``), so masking multiplies the weights
        into the lazy marginals and scales the anchor/region bounds:
        ``lower * min(mask)`` and ``upper * max(mask)`` remain valid
        singleton bounds.  With an all-ones mask both scalings are by
        exactly 1.0, so the search is bit-identical to :meth:`query`.
        """
        mask = self._validate_mask(mask)
        return self._priority_query(q, k, return_diagnostics, mask=mask)

    def _validate_mask(self, mask: np.ndarray) -> np.ndarray:
        mask = np.asarray(mask, dtype=float)
        if mask.shape != (self.network.n,):
            raise QueryError(
                f"mask must have shape ({self.network.n},), got {mask.shape}"
            )
        if not np.all(mask >= 0):
            raise QueryError("mask entries must be >= 0")
        return mask

    def _priority_query(
        self,
        location: PointLike,
        k: int,
        return_diagnostics: bool,
        mask: np.ndarray | None,
    ) -> SeedResult | Tuple[SeedResult, MiaQueryDiagnostics]:
        if not 0 < k <= self.network.n:
            raise QueryError(f"k must be in [1, {self.network.n}], got {k}")

        setup_start = time.perf_counter()
        weights = self.decay.weights(self.network.coords, location)
        lower, upper = self.node_bounds(location)
        if mask is not None:
            weights = weights * mask
            # Influence is linear in weights, so scaling by the mask's
            # range keeps the bounds valid (and exact for 0/1 extremes).
            lower = lower * float(mask.min())
            upper = upper * float(mask.max())
        setup_seconds = time.perf_counter() - setup_start

        start = time.perf_counter()
        state = _LazyMiaState(self.model, weights)

        # Priority heap: (-bound, node, version); version == number of
        # seeds at which the bound became an *exact* marginal, -1 for the
        # initial index bound.
        heap: list[tuple[float, int, int]] = [
            (-float(upper[u]), u, -1) for u in range(self.network.n)
        ]
        heapq.heapify(heap)
        seeds: list[int] = []
        evaluations = 0
        heap_pops = 0
        selected: Set[int] = set()
        estimate = 0.0

        while len(seeds) < k and heap:
            neg_bound, u, version = heapq.heappop(heap)
            heap_pops += 1
            if u in selected:
                continue
            if version == len(seeds):
                # Exact at the current iteration: dominates all remaining
                # upper bounds, select it (Rules 1 & 2 success path).  Its
                # key is the exact marginal, so the objective accumulates
                # for free — no post-hoc spread recomputation needed.
                state.add_seed(u)
                seeds.append(u)
                selected.add(u)
                estimate += -neg_bound
                continue
            if version == -1 and not seeds and heap:
                # Rule 1 lower-bound shortcut for the first seed: if u's
                # lower bound beats the next candidate's upper bound, u is
                # provably the best node — select without competing it
                # through the heap (its exact gain is still computed once,
                # for the objective value).
                next_bound = -heap[0][0]
                if float(lower[u]) >= next_bound:
                    gain = state.marginal(u)
                    evaluations += 1
                    state.add_seed(u)
                    seeds.append(u)
                    selected.add(u)
                    estimate += gain
                    continue
            gain = state.marginal(u)
            evaluations += 1
            heapq.heappush(heap, (-gain, u, len(seeds)))

        if len(seeds) < k:
            raise QueryError(
                f"could not select {k} seeds (graph has {self.network.n} nodes)"
            )
        elapsed = time.perf_counter() - start
        result = SeedResult(
            seeds=seeds,
            estimate=estimate,
            method="MIA-DA",
            elapsed=elapsed,
            evaluations=evaluations,
        )
        if return_diagnostics:
            return result, MiaQueryDiagnostics(
                evaluations=evaluations,
                heap_pops=heap_pops,
                setup_seconds=setup_seconds,
            )
        return result

    def query_budgeted(
        self,
        q: PointLike,
        budget: float,
        costs: np.ndarray,
        return_diagnostics: bool = False,
    ) -> SeedResult | Tuple[SeedResult, MiaQueryDiagnostics]:
        """Cost-aware priority search: ratio-keyed CELF under a budget.

        The heap is keyed by ``bound / cost`` instead of the raw bound;
        stale exact marginals remain valid upper bounds by submodularity,
        so the CELF invariant carries over ratio-for-ratio (costs are
        fixed).  Selection stops when the budget affords no remaining
        candidate.  Nodes costing more than the *remaining* budget are
        dropped permanently on pop — the remaining budget only shrinks.
        With uniform power-of-two costs ``c`` and budget ``k * c`` the
        ratio ordering equals the bound ordering (exact division), so
        the selection matches :meth:`query` seed-for-seed; the Rule 1
        lower-bound shortcut is not taken here, which can change
        ``evaluations`` but never the seeds.
        """
        n = self.network.n
        costs = np.asarray(costs, dtype=float)
        if costs.shape != (n,):
            raise QueryError(f"costs must have shape ({n},), got {costs.shape}")
        if not np.all(costs > 0):
            raise QueryError("all node costs must be positive")
        budget = float(budget)
        if not budget > 0:
            raise QueryError(f"budget must be positive, got {budget}")
        if budget < float(costs.min()):
            raise QueryError(
                f"budget {budget} cannot afford any node (cheapest costs "
                f"{float(costs.min())})"
            )

        setup_start = time.perf_counter()
        weights = self.decay.weights(self.network.coords, q)
        _, upper = self.node_bounds(q)
        setup_seconds = time.perf_counter() - setup_start

        start = time.perf_counter()
        state = _LazyMiaState(self.model, weights)
        # (-bound/cost, node, version, bound): version as in query();
        # the raw bound rides along so a selection can accumulate the
        # exact marginal rather than un-dividing the ratio (float
        # division does not invert exactly).
        heap: list[tuple[float, int, int, float]] = [
            (-float(upper[u]) / float(costs[u]), u, -1, float(upper[u]))
            for u in range(n)
        ]
        heapq.heapify(heap)
        seeds: list[int] = []
        evaluations = 0
        heap_pops = 0
        selected: Set[int] = set()
        estimate = 0.0
        remaining = budget
        while heap:
            neg_ratio, u, version, bound = heapq.heappop(heap)
            heap_pops += 1
            if u in selected:
                continue
            if float(costs[u]) > remaining:
                continue
            if version == len(seeds):
                state.add_seed(u)
                seeds.append(u)
                selected.add(u)
                estimate += bound
                remaining -= float(costs[u])
                continue
            gain = state.marginal(u)
            evaluations += 1
            heapq.heappush(
                heap, (-gain / float(costs[u]), u, len(seeds), gain)
            )
        elapsed = time.perf_counter() - start
        result = SeedResult(
            seeds=seeds,
            estimate=estimate,
            method="MIA-DA",
            elapsed=elapsed,
            evaluations=evaluations,
        )
        if return_diagnostics:
            return result, MiaQueryDiagnostics(
                evaluations=evaluations,
                heap_pops=heap_pops,
                setup_seconds=setup_seconds,
            )
        return result

    def query_trajectory(
        self,
        waypoints: Sequence[PointLike],
        k: int,
        return_diagnostics: bool = False,
    ) -> list[SeedResult] | list[Tuple[SeedResult, MiaQueryDiagnostics]]:
        """One seed set per waypoint.

        MIA-DA's per-query state (weights, bounds, lazy tree states) all
        depend on the location, so unlike the RIS backend there is no
        cross-waypoint work to share — this is the plain loop, present
        so both index families expose the same trajectory surface.
        """
        if not len(waypoints):
            raise QueryError("trajectory needs at least one waypoint")
        return [
            self.query(wp, k, return_diagnostics=return_diagnostics)
            for wp in waypoints
        ]  # type: ignore[return-value]

    def query_many(
        self,
        locations: Sequence[PointLike],
        k: int,
        return_diagnostics: bool = False,
    ) -> list[SeedResult] | list[Tuple[SeedResult, MiaQueryDiagnostics]]:
        """Answer a batch of queries with the same budget.

        Query state is per-location (the bounds and the greedy state both
        depend on ``q``), so this is a convenience loop; it exists so
        batch callers do not have to reimplement error handling.  For
        cached, concurrent, metered batches, wrap the index in a
        :class:`repro.serve.QueryEngine` (see :meth:`serve`) instead.
        """
        return [
            self.query(q, k, return_diagnostics=return_diagnostics)
            for q in locations
        ]  # type: ignore[return-value]

    def serve(self, config=None, metrics=None, **kwargs):
        """A :class:`repro.serve.QueryEngine` over this index.

        Convenience for ``QueryEngine(index, ...)``; the serving layer is
        imported lazily to keep ``repro.core`` free of the dependency.
        Extra keyword arguments (``tracer``, ``logger``, ``slow_log``)
        pass straight through to the engine.
        """
        from repro.serve.engine import QueryEngine

        return QueryEngine(self, config=config, metrics=metrics, **kwargs)
