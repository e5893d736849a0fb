"""MIA-DA: the index-based MIA approach (Section 3).

Offline, the index holds:

* the :class:`~repro.mia.pmia.MiaModel` (all arborescences, as PMIA does);
* :class:`~repro.core.bounds.AnchorBounds` over ``|L|`` sampled anchor
  locations (paper default 300);
* :class:`~repro.core.bounds.RegionBounds` for the heavy nodes (paper's
  ``tau = 200`` region-based estimation).

A fresh build and :meth:`MiaDaIndex.update` build the anchor and region
bounds through one method, :meth:`MiaDaIndex._build_bounds`.

Online, every query kind runs one *priority-based search*,
:meth:`MiaDaIndex._search`; top-``k`` is the unit-cost case of a budgeted
search with budget ``k``.  Candidates live in a heap keyed by the
best-known upper bound of their marginal influence per unit cost —
initially the anchor/region bound (Rule 1), later stale exact marginals
(Rule 2, valid upper bounds by submodularity, CELF-style).  A node is
selected when its key is exact at the current iteration, or when its
*lower* bound per cost already reaches every other candidate's key (the
lower-bound shortcut of Rule 1).  The search stops once the remaining
budget affords no node.  Nodes whose upper bound never reaches the top
of the heap are pruned without ever being evaluated — that is the
speed-up over PMIA that Figure 4 measures.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.bounds import AnchorBounds, RegionBounds
from repro.core.query import (
    DaimQuery,
    SeedResult,
    validate_budget,
    validate_costs,
    validate_k,
    validate_mask,
)
from repro.exceptions import QueryError
from repro.geo.point import PointLike
from repro.geo.sampling import sample_density_pivots, sample_uniform_points
from repro.geo.weights import DistanceDecay
from repro.mia.forest import MiaForestState
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
    region index; ``None`` picks ``max(32, n // 20)``.
    """

    theta: float = 0.05
    n_anchors: int = 300
    tau: int = 200
    n_heavy: Optional[int] = None
    anchor_strategy: str = "uniform"
    seed: int = 0

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
        if self.anchor_strategy not in ("uniform", "density"):
            raise QueryError(
                f"anchor_strategy must be 'uniform' or 'density', "
                f"got {self.anchor_strategy!r}"
            )


class _BoundQueue:
    """Min-first heap of ``(key, node, version)`` candidate tuples.

    Pops in exactly the order one heap would if every node were pushed up
    front at ``(keys[node], node, -1)``, without building
    those ``n`` tuples.  The initial entries are released in sorted runs
    (smallest keys first, ties by node id as tuple order breaks them) and
    fed to the heap one at a time: it always holds the smallest initial
    entry not yet popped, which is all a min-heap needs.  A search that
    stops after a few hundred pops sorts only a few hundred keys.
    """

    def __init__(self, keys: np.ndarray):
        self._keys = keys
        self._released = 0  # initial entries already sorted into runs
        self._cut = 0.0     # largest key released so far
        self._run: list[int] = []
        self._next = 0      # position in the current run
        self._heap: list[tuple] = []
        self._feed()

    def __bool__(self) -> bool:
        return bool(self._heap)

    def _feed(self) -> None:
        """Push the next initial entry, if any."""
        if self._next == len(self._run):
            self._release()
            if self._next == len(self._run):
                return
        u = self._run[self._next]
        self._next += 1
        heapq.heappush(self._heap, (float(self._keys[u]), u, -1))

    def _release(self) -> None:
        """Sort the next run: every unreleased key up to the next cut."""
        keys = self._keys
        n = len(keys)
        if self._released == n:
            return
        upto = min(n, max(64, 2 * self._released)) - 1
        cut = np.partition(keys, upto)[upto]
        pending = keys <= cut
        if self._released:
            pending &= keys > self._cut
        run = np.flatnonzero(pending)  # ascending node ids
        self._run = run[np.argsort(keys[run], kind="stable")].tolist()
        self._next = 0
        self._released += len(run)
        self._cut = cut

    def peek(self) -> tuple:
        """The smallest entry (the queue must be non-empty)."""
        return self._heap[0]

    def pop(self) -> tuple:
        item = heapq.heappop(self._heap)
        if item[2] == -1:
            self._feed()
        return item

    def push(self, item: tuple) -> None:
        heapq.heappush(self._heap, item)


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
            )
        build_start = time.perf_counter()
        with tracer.span(
            "mia.build",
            {"n": network.n, "theta": self.config.theta,
             "n_anchors": self.config.n_anchors, "tau": self.config.tau},
        ):
            if model is not None:
                self.model = model
            else:
                with tracer.span("mia.build_trees", {"n": network.n}) as span:
                    self.model = MiaModel(network, self.config.theta)
                    span.set_attribute("rounds", self.model.build_rounds)
                    span.set_attribute("tie_roots", self.model.tie_roots)
            self._build_bounds()
        self.build_seconds = time.perf_counter() - build_start
        if logger.enabled:
            logger.event(
                "build_end", phase="mia.build",
                seconds=round(self.build_seconds, 3), n=network.n,
                rounds=self.model.build_rounds,
                tie_roots=self.model.tie_roots,
            )

    def _build_bounds(self) -> None:
        """Sample the anchors and build the anchor and region bounds.

        The one path of both a fresh build and :meth:`update`: the same
        RNG draws over the current network (its bounding box included),
        so an updated index equals a rebuild bit for bit.
        """
        cfg = self.config
        net = self.network
        tracer = get_tracer()
        rng = as_generator(cfg.seed)
        if cfg.anchor_strategy == "uniform":
            anchors = sample_uniform_points(
                net.bounding_box(), cfg.n_anchors, rng
            )
        else:
            anchors = sample_density_pivots(net.coords, cfg.n_anchors, rng)
        with tracer.span("mia.anchor_bounds", {"n_anchors": len(anchors)}):
            self.anchor_bounds = AnchorBounds(self.model, self.decay, anchors)
        n_heavy = cfg.n_heavy
        if n_heavy is None:
            n_heavy = max(32, net.n // 20)
        n_heavy = min(n_heavy, net.n)
        # Heavy = largest influence seen at any anchor (a cheap, robust
        # proxy for "influential anywhere").
        peak = self.anchor_bounds.influence.max(axis=0)
        heavy = np.argpartition(peak, net.n - n_heavy)[net.n - n_heavy:]
        with tracer.span(
            "mia.region_bounds", {"n_heavy": int(n_heavy), "tau": cfg.tau}
        ):
            self.region_bounds = RegionBounds(
                self.model, self.decay, heavy, cfg.tau
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
        (:meth:`MiaModel.reach_of`), rebuilt over the new network and
        spliced into the flat arrays (:meth:`MiaModel.rebuilt`); every
        other tree is reused as-is.  The anchor and region bounds
        are then rebuilt wholesale by the fresh build's own
        :meth:`_build_bounds` (vectorized and cheap next to the trees), so
        the updated index is **bit-identical** to a from-scratch rebuild
        on the final graph.

        Accepts either loose arguments (as in
        :meth:`repro.stream.GraphDelta.make`) or a prepared ``delta``.
        Returns :class:`repro.stream.UpdateStats`; bumps
        :attr:`generation` so serving caches invalidate.
        """
        from repro.stream.delta import GraphDelta, UpdateStats, apply_delta

        start = time.perf_counter()
        if delta is None:
            delta = GraphDelta.make(
                edges=edges, probabilities=probabilities,
                removed=removed, checkins=checkins,
            )
        applied = apply_delta(self.network, delta)
        dirty_roots: Set[int] = set()
        for d in applied.dirty_nodes:
            roots, _ = self.model.reach_of(int(d))
            dirty_roots.update(int(v) for v in roots)
        net = applied.network
        self.model = self.model.rebuilt(net, sorted(dirty_roots))
        self.network = net
        self._build_bounds()
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
        heavy = self.region_bounds.nodes
        lo, hi = self.region_bounds.bounds(q)
        upper[heavy] = np.minimum(upper[heavy], hi)
        lower[heavy] = np.maximum(lower[heavy], lo)
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
        validate_k(k, self.network.n)
        return self._search(location, k, return_diagnostics)

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
        into the marginals and scales the anchor/region bounds:
        ``lower * min(mask)`` and ``upper * max(mask)`` remain valid
        singleton bounds.  With an all-ones mask both scalings are by
        exactly 1.0, so the search is bit-identical to :meth:`query`.
        """
        mask = validate_mask(mask, self.network.n)
        validate_k(k, self.network.n)
        return self._search(q, k, return_diagnostics, mask=mask)

    def query_budgeted(
        self,
        q: PointLike,
        budget: float,
        costs: np.ndarray,
        return_diagnostics: bool = False,
    ) -> SeedResult | Tuple[SeedResult, MiaQueryDiagnostics]:
        """Cost-aware priority search: ratio-keyed CELF under a budget.

        The search of :meth:`query` with every key divided by the node's
        cost (see :meth:`_search`).  With uniform power-of-two costs ``c``
        and budget ``k * c`` the ratio ordering equals the bound ordering
        (exact division) and ``k`` exact subtractions drain the budget, so
        the answer matches :meth:`query` seed for seed, estimate,
        ``evaluations`` and ``heap_pops`` included.
        """
        costs = validate_costs(costs, self.network.n)
        budget = validate_budget(budget)
        if budget < float(costs.min()):
            raise QueryError(
                f"budget {budget} cannot afford any node (cheapest costs "
                f"{float(costs.min())})"
            )
        return self._search(q, budget, return_diagnostics, costs=costs)

    def _search(
        self,
        location: PointLike,
        budget: float,
        return_diagnostics: bool,
        costs: np.ndarray | None = None,
        mask: np.ndarray | None = None,
    ) -> SeedResult | Tuple[SeedResult, MiaQueryDiagnostics]:
        """The priority-based search under a budget (Rules 1 and 2).

        Every node enters a min-heap keyed by ``-upper / cost`` (unit cost
        when ``costs`` is None: top-``k`` is budget ``k``).  A pop whose
        key is an exact marginal of the current seed set is selected; any
        other is evaluated and pushed back under its exact ratio, a valid
        bound from then on by submodularity (CELF).  Rule 1's shortcut
        selects the first seed outright when its ``lower / cost`` reaches
        the next key.  A node costing more than the remaining budget is
        dropped on pop (the budget only shrinks), and the search stops
        once the budget is below the cheapest cost — for top-``k``, once
        ``k`` seeds are chosen.
        """
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
        state = MiaForestState(self.model.forest, weights)
        if costs is None:
            cost = None
            cheapest = 1.0
            heap = _BoundQueue(-upper)
        else:
            cost = costs.tolist()
            cheapest = min(cost)
            heap = _BoundQueue(-upper / costs)
        # Heap entries are (-bound / cost, node, version); version is the
        # seed count at which the bound became an *exact* marginal (kept
        # in ``gains``), -1 for the initial index bound.  Every node has
        # exactly one live entry until it is selected or dropped.
        gains: dict[int, float] = {}
        seeds: list[int] = []
        evaluations = 0
        heap_pops = 0
        estimate = 0.0
        remaining = float(budget)
        while heap and remaining >= cheapest:
            _, u, version = heap.pop()
            heap_pops += 1
            c = 1.0 if cost is None else cost[u]
            if c > remaining:
                continue
            if version == len(seeds):
                # Exact at the current iteration: dominates every other
                # key (Rules 1 & 2 success path), and its exact marginal
                # accumulates into the objective.
                gain = gains[u]
            else:
                gain = state.marginal(u)
                evaluations += 1
                # Rule 1 lower-bound shortcut for the first seed: if u's
                # lower bound beats every other candidate's upper bound,
                # u is provably the best node — select without competing
                # it through the heap.
                if not (version == -1 and not seeds and heap
                        and float(lower[u]) / c >= -heap.peek()[0]):
                    gains[u] = gain
                    heap.push((-gain / c, u, len(seeds)))
                    continue
            state.add_seed(u)
            seeds.append(u)
            estimate += gain
            remaining -= c
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

        MIA-DA's per-query state (weights, bounds, forest state) all
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

    def serve(self, config=None, metrics=None, **kwargs):
        """A :class:`repro.serve.QueryEngine` over this index.

        Convenience for ``QueryEngine(index, ...)``; the serving layer is
        imported lazily to keep ``repro.core`` free of the dependency.
        Extra keyword arguments (``tracer``, ``logger``, ``slow_log``)
        pass straight through to the engine.
        """
        from repro.serve.engine import QueryEngine

        return QueryEngine(self, config=config, metrics=metrics, **kwargs)
