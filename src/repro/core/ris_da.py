"""RIS-DA: the sampling-based index with theoretical guarantees (Section 4).

Offline (:meth:`RisDaIndex.build`, run by the constructor):

1. **Pivot phase** (Algorithm 4) — sample pivot locations; for each pivot
   ``p`` derive a certain lower bound ``L_p^k`` of ``OPT_p^k`` with
   Algorithm 3 (LB-EST), grow the shared sample pool to the Lemma 7 size,
   run the weighted greedy (Algorithm 2) and record the estimated spread
   ``I_hat_p(S_p^k)`` for every ``k`` up to ``k_max`` (greedy seed sets are
   nested, so one run yields the whole curve).
2. **Worst-case sizing** (Algorithm 5) — partition space into the pivots'
   Voronoi cells; for each cell take the location furthest from its pivot,
   transfer the pivot's estimate there with Lemma 8 (or, from a pivot
   whose prefix ``max_index_samples`` cut short, shrink its certain
   LB-EST bound by ``exp(-alpha d)``), and size the pool for the worst
   (cell, k) combination.  The pool then suffices for *any* online query.

Online (:meth:`RisDaIndex.query` and every other kind, all through the one
body :meth:`RisDaIndex._answer`): evaluate the query's node weights,
bound ``OPT_q^k`` from below by the better of the nearest pivot's Lemma 8
transfer (where that pivot's premise holds) and Algorithm 3 (LB-EST) at
the query's own weights, compute the
(much smaller) sample prefix Lemma 7 implies, and run Algorithm 2 over
that prefix only — the paper's key observation that building the
coverage structures dominates online cost, so using fewer samples than
indexed is the main lever.  A targeted (masked) query is sized by LB-EST
at the masked weights alone, and so is every query once :meth:`update`
has changed the graph under the build's pivot estimates.

Guarantee: ``1 - 1/e - epsilon`` with probability ``>= 1 - delta`` for any
query location and any ``k <= k_max`` (Lemma 9) — LB-EST never fails, so
the union bound is still ``delta_pivot + (delta - delta_pivot)`` — provided
the pool was not truncated by ``max_index_samples`` (a practical memory
valve the paper's C++ implementation does not need at its scale; when it
engages, the flag :attr:`RisDaIndex.truncated` is set and queries needing
more samples than indexed report ``guarantee_met=False`` in their
diagnostics).  Targeted queries carry the certificate whenever their
prefix fits; budgeted queries only in the uniform-cost case that is the
top-``k`` greedy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.multi_location import multi_location_weights
from repro.core.query import DaimQuery, SeedResult, validate_mask
from repro.exceptions import QueryError, SamplingError
from repro.geo.kdtree import KDTree
from repro.geo.point import Point, PointLike, as_point
from repro.geo.sampling import sample_uniform_points
from repro.geo.voronoi import VoronoiDiagram
from repro.geo.weights import DistanceDecay
from repro.kernels import resolve_backend
from repro.network.graph import GeoSocialNetwork
from repro.obs.log import get_logger
from repro.obs.progress import Heartbeat
from repro.obs.trace import get_tracer
from repro.ris.corpus import RRCorpus
from repro.ris.coupled import CoupledRRSampler, quantize_probability
from repro.ris.coverage import weighted_budgeted_cover, weighted_greedy_cover
from repro.ris.lower_bound import lb_est, lb_est_lt
from repro.ris.sample_size import lemma8_lower_bound, required_sample_size
from repro.rng import as_generator


@dataclass(frozen=True)
class RisDaConfig:
    """Build-time parameters of the RIS-DA index.

    Paper defaults: 2000 pivots, ``epsilon_pivot = 0.1``,
    ``delta_pivot = 1/(10n)``, online ``epsilon = 0.5``, ``delta = 1/n``.
    ``n_pivots`` and ``epsilon_pivot`` here default to laptop-scaled
    values; pass the paper's numbers explicitly to reproduce them.

    ``lb_k_grid`` controls at which ``k`` values Algorithm 3 is re-run per
    pivot (LB-EST is monotone in ``k``, so the bound at the largest grid
    point below ``k`` remains valid for ``k``); 0 means every ``k``.
    ``max_index_samples`` caps the pool size (memory valve; see module
    docs).  Pivots are sampled uniformly over the network's bounding
    box, as in the paper.
    """

    k_max: int = 50
    n_pivots: int = 100
    epsilon_pivot: float = 0.25
    delta_pivot: Optional[float] = None
    epsilon: float = 0.5
    delta: Optional[float] = None
    max_index_samples: int = 300_000
    lb_k_grid: int = 8
    diffusion: str = "ic"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.diffusion not in ("ic", "lt"):
            raise QueryError(
                f"diffusion must be 'ic' or 'lt', got {self.diffusion!r}"
            )
        if self.k_max <= 0:
            raise QueryError(f"k_max must be positive, got {self.k_max}")
        if self.n_pivots <= 0:
            raise QueryError(f"n_pivots must be positive, got {self.n_pivots}")
        if self.max_index_samples <= 0:
            raise QueryError("max_index_samples must be positive")

    def resolved_deltas(self, n: int) -> Tuple[float, float]:
        """``(delta_pivot, delta_online)`` with the paper's defaults."""
        dp = self.delta_pivot if self.delta_pivot is not None else 1.0 / (10.0 * n)
        d = self.delta if self.delta is not None else 1.0 / n
        if not 0 < dp < d < 1:
            raise SamplingError(
                f"need 0 < delta_pivot ({dp}) < delta ({d}) < 1 so that the "
                "online union bound delta - delta_pivot stays positive"
            )
        return dp, d


@dataclass(frozen=True)
class QueryTimings:
    """Per-stage wall-clock seconds of one online query.

    ``sizing`` is the nearest-pivot lookup, the Lemma 8 transfer, the
    LB-EST call and the Lemma 7 prefix sizing; ``weight_eval`` is the
    distance-decay evaluation over the ``n`` nodes (times a genuine mask)
    plus its gather to the prefix roots; ``score_build`` / ``selection``
    / ``bound`` come from the greedy cover (see
    :class:`repro.ris.coverage.SelectionTimings`); ``total`` is the whole
    query, sizing included.
    """

    sizing: float
    weight_eval: float
    score_build: float
    selection: float
    bound: float
    total: float

    def as_dict(self) -> dict:
        return {
            "sizing": self.sizing,
            "weight_eval": self.weight_eval,
            "score_build": self.score_build,
            "selection": self.selection,
            "bound": self.bound,
            "total": self.total,
        }


@dataclass(frozen=True)
class QueryDiagnostics:
    """Side-channel information about one RIS-DA query.

    ``lower_bound`` is the ``L`` the query was sized by (see
    :meth:`RisDaIndex._lower_bound`), ``samples_required`` its Lemma 7
    prefix — ``None`` when ``L <= 0``, which no prefix certifies — and
    ``guarantee_met`` whether the ``1 - 1/e - epsilon`` certificate
    holds: the corpus reached ``samples_required`` and the selector is
    the top-``k`` greedy.

    ``timings`` is excluded from equality: two runs of the same query are
    diagnostically identical even though their wall clocks never are.
    """

    pivot_index: int
    pivot_distance: float
    lower_bound: float
    samples_required: Optional[int]
    samples_used: int
    guarantee_met: bool
    timings: Optional[QueryTimings] = field(default=None, compare=False)


class _Plan(NamedTuple):
    """One online query as :meth:`RisDaIndex._answer` runs it.

    Every kind is the same recipe with three knobs: the node-space weight
    transform (``w(v, q)``, the max over several ``locations`` for
    multi-location, times ``mask[v]`` for a genuine target mask), the
    sizing ``k`` (``k_eff`` for budgeted), and the selector (top-``k``
    greedy, or the gain/cost greedy when ``costs`` is set).
    """

    locations: Tuple[Point, ...]
    k: int
    mask: Optional[np.ndarray] = None
    costs: Optional[np.ndarray] = None
    budget: float = 0.0
    method: str = "RIS-DA"


class RisDaIndex:
    """The RIS-DA offline index and its online query processor."""

    def __init__(
        self,
        network: GeoSocialNetwork,
        decay: DistanceDecay | None = None,
        config: RisDaConfig | None = None,
    ):
        self.network = network
        self.decay = decay if decay is not None else DistanceDecay()
        self.config = config if config is not None else RisDaConfig()
        #: This host's native-kernel backend ("numpy" or "numba"); stamped
        #: into serving metrics and ``repro info``.
        self.kernel_backend = resolve_backend()
        #: Bumped by :meth:`update`; serving folds it into cache keys so
        #: result-cache entries die when the in-memory index changes.
        self.generation = 0
        self._build()

    # ------------------------------------------------------------------
    # Offline phase
    # ------------------------------------------------------------------

    def _build(self) -> None:
        cfg = self.config
        net = self.network
        n = net.n
        k_max = min(cfg.k_max, n)
        # Resolved once; both the pivot phase and the Voronoi sizing below
        # reuse the same pair (it depends only on the network size).
        delta_pivot, delta_online = cfg.resolved_deltas(n)
        rng = as_generator(cfg.seed)
        tracer = get_tracer()
        logger = get_logger()
        if logger.enabled:
            logger.event(
                "build_start", phase="ris.build", n=n, k_max=k_max,
                n_pivots=cfg.n_pivots,
            )
        start = time.perf_counter()
        with tracer.span(
            "ris.build",
            {"n": n, "k_max": k_max, "n_pivots": cfg.n_pivots,
             "diffusion": cfg.diffusion},
        ) as build_span:
            self._build_phases(
                cfg, net, n, k_max, delta_pivot, delta_online, rng,
                tracer, start,
            )
            build_span.set_attribute("samples", len(self.corpus))
            build_span.set_attribute("truncated", self.truncated)
        self.build_seconds = time.perf_counter() - start
        self.k_max = k_max
        if logger.enabled:
            logger.event(
                "build_end", phase="ris.build",
                seconds=round(self.build_seconds, 3),
                samples=len(self.corpus), truncated=self.truncated,
            )

    def _build_phases(
        self, cfg, net, n, k_max, delta_pivot, delta_online, rng,
        tracer, start,
    ) -> None:
        box = net.bounding_box()
        pivots = sample_uniform_points(box, cfg.n_pivots, rng)
        self.pivots = pivots
        self._pivot_tree = KDTree(pivots)

        # Counter-based sampler: every slot is a pure function of
        # (seed, key, graph), which is what lets update() regenerate only
        # the dirty slots instead of resampling a corpus-sized pass (see
        # repro.ris.coupled).
        self.sampler = self._coupled_sampler(net)
        self.corpus = RRCorpus(self.sampler)

        # ---- Algorithm 4: pivot information ----
        w_max = self.decay.w_max
        self.pivot_estimates = np.zeros((len(pivots), k_max), dtype=float)
        self.pivot_lower_bounds = np.zeros((len(pivots), k_max), dtype=float)
        self.truncated = False
        with tracer.span("ris.pivot_phase", {"n_pivots": len(pivots)}):
            hb = Heartbeat("ris.pivot_phase", total=len(pivots),
                           unit="pivots")
            for pi, p in enumerate(pivots):
                loc = (float(p[0]), float(p[1]))
                weights = self.decay.weights(net.coords, loc)
                lbs = self._lb_curve(weights, k_max)
                self.pivot_lower_bounds[pi] = lbs
                l_p = self._capped(self._pivot_sample_size(lbs))
                self.corpus.ensure(l_p)
                # The pivot phase only needs the estimate curve, never the
                # certification bound — skip the per-iteration partitions.
                cover = weighted_greedy_cover(
                    self.corpus, weights[self.corpus.roots[:l_p]], k_max,
                    prefix=l_p, compute_bound=False,
                    backend=self.kernel_backend,
                )
                # Greedy is nested: prefix estimates give the whole k curve.
                self.pivot_estimates[pi] = [
                    cover.estimate_for_prefix(k, n)
                    for k in range(1, k_max + 1)
                ]
                hb.advance()
            hb.finish()
        self.lemma8_ok = self._lemma8_pivots()
        self.pivot_seconds = time.perf_counter() - start

        # ---- Algorithm 5: Voronoi worst-case sizing ----
        vstart = time.perf_counter()
        with tracer.span("ris.voronoi_sizing"):
            self.voronoi = VoronoiDiagram(pivots, box)
            l_max = 0
            delta_query = delta_online - delta_pivot
            for cell in self.voronoi.cells:
                pi = cell.site_index
                d_worst = cell.worst_distance
                for k in range(1, k_max + 1):
                    lb = lemma8_lower_bound(
                        float(self.pivot_estimates[pi, k - 1]), d_worst,
                        self.decay.alpha, cfg.epsilon_pivot, delta_pivot,
                        n, k,
                    ) if self.lemma8_ok[pi] else 0.0
                    # The certain fallback: w(v, q) >= w(v, p) *
                    # exp(-alpha d(p, q)), so LB-EST at the pivot shrinks
                    # to a bound anywhere in its cell.
                    if lb <= 0:
                        lb = float(
                            self.pivot_lower_bounds[pi, k - 1]
                        ) * np.exp(-self.decay.alpha * d_worst)
                    if lb <= 0:
                        continue
                    l_max = max(
                        l_max,
                        required_sample_size(n, k, w_max, cfg.epsilon,
                                             delta_query, lb),
                    )
            self.index_samples_required = l_max
            l_final = self._capped(max(l_max, len(self.corpus)))
            self.corpus.ensure(l_final)
        with tracer.span("ris.inverted_index"):
            # Pay the inverted-index build offline; queries then only
            # binary-search prefix cutoffs instead of re-sorting.
            self.corpus.inverted()
        self.voronoi_seconds = time.perf_counter() - vstart

    def _coupled_sampler(self, network: GeoSocialNetwork) -> CoupledRRSampler:
        return CoupledRRSampler(
            network, seed=self.config.seed,
            kernel_backend=self.kernel_backend,
            diffusion=self.config.diffusion,
        )

    def _capped(self, l: int) -> int:
        if l > self.config.max_index_samples:
            self.truncated = True
            return self.config.max_index_samples
        return l

    def _pivot_sample_size(self, lower_bounds: np.ndarray) -> int:
        """Algorithm 4's uncapped Lemma 7 size at one pivot: one prefix
        long enough for every ``k`` of its ``L_p^k`` curve."""
        cfg = self.config
        n = self.network.n
        delta_pivot, _ = cfg.resolved_deltas(n)
        return max(
            required_sample_size(n, k, self.decay.w_max, cfg.epsilon_pivot,
                                 delta_pivot, float(lb))
            for k, lb in enumerate(lower_bounds, start=1)
        )

    def _lemma8_pivots(self) -> np.ndarray:
        """Per pivot, whether Lemma 8 may transfer its estimates.

        Lemma 8 holds only if the pivot's greedy ran on at least
        ``l(eps_pivot, delta_pivot, p, k, OPT_p^k)`` samples.  The pivot
        phase cuts every prefix at ``max_index_samples``, so only pivots
        whose uncapped size fits the cap qualify.  A pure function of
        ``pivot_lower_bounds`` and the config: the build and the loader
        both derive it, and no file stores it.
        """
        cap = self.config.max_index_samples
        return np.array(
            [self._pivot_sample_size(lbs) <= cap
             for lbs in self.pivot_lower_bounds],
            dtype=bool,
        )

    def _lb_curve(self, weights: np.ndarray, k_max: int) -> np.ndarray:
        """``L_p^k`` for k = 1..k_max via Algorithm 3 on a k-grid.

        LB-EST is monotone in k (adding seeds only adds weight), so for
        off-grid k the bound at the largest grid point <= k is still a
        valid (slightly looser) lower bound.
        """
        grid = self.config.lb_k_grid
        if grid <= 0:
            ks = list(range(1, k_max + 1))
        else:
            ks = sorted(set([1, k_max] + list(range(1, k_max + 1, grid))))
        curve = np.zeros(k_max, dtype=float)
        last = 0.0
        values = {k: self._lb_est(weights, k) for k in ks}
        for k in range(1, k_max + 1):
            if k in values:
                # Guard monotonicity against tie-breaking jitter in the
                # seed ranking.
                last = max(last, values[k])
            curve[k - 1] = last
        return curve

    def _lb_est(self, weights: np.ndarray, k: int) -> float:
        """Algorithm 3 on the current graph, for the index's diffusion."""
        bound_fn = lb_est if self.config.diffusion == "ic" else lb_est_lt
        return bound_fn(self.network, weights, k, self.decay.w_max)

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

        Coupled corpus refresh: each sample slot's randomness is a pure
        function of ``(seed, key)``, with IC coins keyed by edge
        *endpoints* and LT choices keyed by node
        (:mod:`repro.ris.coupled`).  Only slots whose reverse-reach set
        contains the **head** of a changed edge can replay differently —
        a reverse traversal draws only on the in-edge rows of nodes it
        reached, and a delta only rewrites the in-edge rows of
        changed-edge heads.  Those slots are located via the inverted
        index (under IC, narrowed further to the slots whose own coin
        for the edge flips) and re-run in place against the new network;
        every other slot replays bit-identically and needs no work.
        Re-run slots are exact fresh RR sets of the new graph, slots stay
        i.i.d., and the cost scales with the dirty fraction instead of
        the corpus size.  Growth to the Algorithm 5 worst-case size
        (Lemmas 5–7) then appends slots under fresh keys.  Moved
        check-ins require no sample work: distance-decay weights are
        evaluated at query time from ``self.network.coords``.

        A keyless corpus (restored from a file saved without slot keys)
        is re-keyed wholesale on its first update: every slot ``i``
        becomes slot key ``i`` traversed on the new graph — an exact
        fresh pool — and all of them count as retired and added.

        Pivot estimates are *not* recomputed — they remain the build's
        Algorithm 4 snapshot, and a delta that lowers or removes edges
        or moves check-ins can push ``OPT`` below them, where the Lemma 8
        transfer no longer bounds it.  Once :attr:`generation` is
        positive, queries are therefore sized by LB-EST on the current
        graph alone (a certain bound); the corpus keeps the build's
        Algorithm 5 size.

        Accepts either loose arguments (``edges``/``probabilities``/
        ``removed``/``checkins`` as in
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
        prior = len(self.corpus)
        retired, added = self._refresh(applied, delta, prior)
        # Rebuild the inverted index eagerly, mirroring _build_phases:
        # the next update's dirty-sample query (and first query's prefix
        # cuts) should not pay for it inline.
        self.corpus.inverted()
        self.generation += 1
        stats = UpdateStats(
            generation=self.generation,
            dirty_nodes=int(len(applied.dirty_nodes)),
            dirty_fraction=float(len(applied.dirty_nodes)) / self.network.n,
            moved_nodes=int(len(applied.moved_nodes)),
            samples_retired=int(retired),
            samples_added=int(added),
            trees_rebuilt=0,
            seconds=time.perf_counter() - start,
            updated_unix=time.time(),
        )
        logger = get_logger()
        if logger.enabled:
            logger.event(
                "index_update", kind="ris",
                generation=stats.generation,
                dirty_nodes=stats.dirty_nodes,
                samples_retired=stats.samples_retired,
                samples_added=stats.samples_added,
                seconds=round(stats.seconds, 4),
            )
        return stats

    def _refresh(self, applied, delta, prior: int) -> tuple[int, int]:
        """Regenerate dirty slots in place (or re-key a keyless corpus).

        Returns ``(slots regenerated, slots regenerated + slots grown)``
        for the stats accounting — regenerated slots are fresh draws, so
        they count on both sides.
        """
        keyed = self.corpus.keyed
        dirty = self._flipped_slots(delta) if keyed else None
        # Built before any state changes: an LT delta pushing a node's
        # in-weights past 1 fails here and leaves the index as it was.
        sampler = self._coupled_sampler(applied.network)
        self.network = applied.network
        self.sampler = sampler
        if keyed:
            self.corpus.replace_sampler(sampler)
            retired = self.corpus.regenerate(dirty)
        else:
            self.corpus = RRCorpus(sampler)
            retired = prior
        target = self._capped(max(self.index_samples_required, prior))
        self.corpus.ensure(target)
        return retired, retired + max(0, target - prior)

    def _flipped_slots(self, delta) -> np.ndarray:
        """Slot ids whose replay may change under ``delta``.

        Only slots whose stored set contains a changed edge's *head* can
        change — a reverse traversal draws only on the in-edge rows of
        nodes it reached, and a delta rewrites exactly the heads' rows.
        Under LT every such slot is returned: regeneration is pure, so
        re-running a superset is still exact.  Under IC a second exact
        filter stacks: only the candidates whose hashed coin for that
        edge flips liveness (lands between the old and new probability)
        replay differently, since every other coin in the row is
        endpoint-keyed and untouched.  Must run against the *old*
        network (it reads the old probabilities).
        """
        corpus = self.corpus
        old = self.network
        keys = corpus.keys
        # Last-wins change resolution, mirroring apply_delta.
        final: dict = {}
        for (u, v), p in zip(delta.edges, delta.probabilities):
            final[(int(u), int(v))] = float(p)
        for u, v in delta.removed:
            final[(int(u), int(v))] = 0.0
        heads, flipped = [], []
        for (u, v), p_new in final.items():
            lo = int(old.in_offsets[v])
            hi = int(old.in_offsets[v + 1])
            at = np.flatnonzero(old.in_sources[lo:hi] == u)
            p_old = float(old.in_probs[lo + int(at[0])]) if len(at) else 0.0
            if p_old == p_new:
                continue
            if self.config.diffusion == "lt":
                heads.append(v)
                continue
            cand = corpus.samples_touching(np.asarray([v]))
            if not len(cand):
                continue
            bits = self.sampler.edge_coin_bits(keys[cand], u, v)
            t_lo = quantize_probability(min(p_old, p_new))
            t_hi = quantize_probability(max(p_old, p_new))
            flips = cand[(bits >= t_lo) & (bits < t_hi)]
            if len(flips):
                flipped.append(flips)
        if heads:
            flipped.append(corpus.samples_touching(heads))
        if not flipped:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(flipped))

    # ------------------------------------------------------------------
    # Online phase
    # ------------------------------------------------------------------

    def _answer(
        self, plans: Sequence[_Plan], return_diagnostics: bool
    ) -> list:
        """The one online body every RIS-DA query kind runs.

        Per plan: evaluate the Eq. 9 node weights (the max over a
        multi-location plan's locations, times a genuine mask), size the
        plan by :meth:`_lower_bound` and Lemma 7, and run its selector
        over that prefix.  A sample's weight depends only on its root,
        so the weights are evaluated once per *node* and then gathered
        per sample, ``w_node[roots[:l]]``: the same floats as evaluating
        ``w(v_i, q)`` per sample, at O(n) instead of O(l) distance and
        ``exp`` work.  A plan's ``total`` covers its own weights, sizing
        and selection.
        """
        cfg = self.config
        n = self.network.n
        delta_pivot, delta_online = cfg.resolved_deltas(n)
        coords = self.network.coords
        roots = self.corpus.roots
        out = []
        for plan in plans:
            t_start = time.perf_counter()
            k = plan.k
            if not 0 < k <= self.k_max:
                raise QueryError(f"k must be in [1, {self.k_max}], got {k}")
            w_node = multi_location_weights(
                self.decay, coords, plan.locations
            )
            w_cap = self.decay.w_max
            if plan.mask is not None:
                w_node *= plan.mask
                w_cap *= float(plan.mask.max())
            t_sizing = time.perf_counter()
            lb, pi, dist = self._lower_bound(plan, w_node, delta_pivot)
            # No positive bound (e.g. an all-zero mask): no prefix
            # certifies, so answer from the whole corpus, uncertified.
            l_required = (
                required_sample_size(
                    n, k, w_cap, cfg.epsilon, delta_online - delta_pivot, lb
                )
                if lb > 0 else None
            )
            l_used = (
                len(self.corpus) if l_required is None
                else min(l_required, len(self.corpus))
            )
            start = time.perf_counter()
            sizing = start - t_sizing
            weights = w_node[roots[:l_used]]
            weight_eval = (t_sizing - t_start) + (time.perf_counter() - start)
            if plan.costs is None:
                # Serving default: no certification bound (certify.py
                # draws its own fresh samples and requests it there).
                cover = weighted_greedy_cover(
                    self.corpus, weights, plan.k, prefix=l_used,
                    compute_bound=False, backend=self.kernel_backend,
                )
            else:
                cover = weighted_budgeted_cover(
                    self.corpus, weights, plan.costs, plan.budget,
                    prefix=l_used, backend=self.kernel_backend,
                )
            elapsed = time.perf_counter() - t_start
            result = SeedResult(
                seeds=cover.seeds,
                estimate=cover.estimate,
                method=plan.method,
                elapsed=elapsed,
                samples_used=l_used,
            )
            if not return_diagnostics:
                out.append(result)
                continue
            ct = cover.timings
            out.append((result, QueryDiagnostics(
                pivot_index=pi,
                pivot_distance=dist,
                lower_bound=lb,
                samples_required=l_required,
                samples_used=l_used,
                guarantee_met=(
                    l_required is not None and l_used >= l_required
                    and self._top_k_objective(plan)
                ),
                timings=QueryTimings(
                    sizing=sizing,
                    weight_eval=weight_eval,
                    score_build=ct.score_build if ct else 0.0,
                    selection=ct.selection if ct else 0.0,
                    bound=ct.bound if ct else 0.0,
                    total=elapsed,
                ),
            )))
        return out

    def _lower_bound(
        self, plan: _Plan, w_node: np.ndarray, delta_pivot: float
    ) -> Tuple[float, int, float]:
        """``(L, pivot index, pivot distance)``: the plan's Lemma 7 bound.

        ``L`` is the best of two lower bounds on the plan's ``OPT^k``
        (Lemma 7 accepts any): Algorithm 3 (LB-EST) at the plan's own
        weights ``w_node``, which holds with certainty, and the Lemma 8
        transfer of the nearest pivot's estimate (the max over a
        multi-location plan's locations, since ``OPT_Q^k >= OPT_q^k``
        for every ``q`` in ``Q``), which holds w.p. ``>= 1 - delta_pivot``.
        Lemma 8 is skipped where it does not bound the plan's optimum:
        from a pivot whose Algorithm 4 prefix the cap cut short (see
        :meth:`_lemma8_pivots`), under a genuine mask (it bounds the
        unmasked one) and once :meth:`update` has changed the graph (the
        pivot estimates are the build's snapshot).  The pivot fields
        name the nearest pivot of the location with the best transfer.
        """
        cfg = self.config
        n = self.network.n
        k = plan.k
        transfer = plan.mask is None and self.generation == 0
        best = None
        for loc in plan.locations:
            pi, dist = self._pivot_tree.nearest(loc)
            lb = lemma8_lower_bound(
                float(self.pivot_estimates[pi, k - 1]), dist,
                self.decay.alpha, cfg.epsilon_pivot, delta_pivot, n, k,
            ) if transfer and self.lemma8_ok[pi] else 0.0
            if best is None or lb > best[0]:
                best = (lb, pi, dist)
        return max(best[0], self._lb_est(w_node, k)), best[1], best[2]

    def _top_k_objective(self, plan: _Plan) -> bool:
        """Whether the plan's selector is the top-``k`` greedy the
        ``1 - 1/e - epsilon`` certificate speaks about.

        The gain/cost ratio greedy has no such factor for non-uniform
        costs, and ``L^{k_eff}`` bounds the cardinality optimum, not the
        budgeted one.  With equal costs ``c`` and ``floor(budget / c) <=
        k_max`` the budgeted cover *is* the top-``k_eff`` greedy.
        """
        if plan.costs is None:
            return True
        c = float(plan.costs[0])
        return bool(np.all(plan.costs == c)) and plan.budget // c <= self.k_max

    def query(
        self,
        q: PointLike | DaimQuery,
        k: int | None = None,
        return_diagnostics: bool = False,
    ) -> SeedResult | Tuple[SeedResult, QueryDiagnostics]:
        """Answer a DAIM query from the indexed samples.

        Accepts either ``query(DaimQuery(loc, k))`` or ``query(loc, k)``.
        """
        if isinstance(q, DaimQuery):
            location, k = q.location, q.k
        else:
            if k is None:
                raise QueryError("k is required when passing a bare location")
            location = as_point(q)
        return self._answer([_Plan((location,), k)], return_diagnostics)[0]

    def query_masked(
        self,
        q: PointLike,
        k: int,
        mask: np.ndarray,
        return_diagnostics: bool = False,
    ) -> SeedResult | Tuple[SeedResult, QueryDiagnostics]:
        """A targeted (bichromatic) query: Eq. 9 over masked node weights.

        ``mask`` is a per-node weight multiplier (0/1 for a target
        subset): sample ``i``'s weight becomes ``w(v_i, q) * mask[v_i]``,
        so only influence landing on masked-in nodes counts.  With an
        all-ones mask this is bit-identical to :meth:`query` (multiplying
        by 1.0 is exact, so the mask is simply dropped).  A genuine mask
        is sized by LB-EST at the masked weights alone — Lemma 8 bounds
        the unmasked optimum — so ``guarantee_met`` holds whenever that
        prefix fits in the corpus; an all-zero mask has no positive bound
        and answers from the whole corpus, uncertified.
        """
        mask = validate_mask(mask, self.network.n)
        plan = _Plan(
            (as_point(q),), k,
            mask=None if bool(np.all(mask == 1.0)) else mask,
        )
        return self._answer([plan], return_diagnostics)[0]

    def query_budgeted(
        self,
        q: PointLike,
        budget: float,
        costs: np.ndarray,
        return_diagnostics: bool = False,
    ) -> SeedResult | Tuple[SeedResult, QueryDiagnostics]:
        """Cost-aware seed selection under a total budget.

        ``costs`` is a dense per-node cost vector; selection is the
        gain/cost ratio greedy of
        :func:`repro.ris.coverage.weighted_budgeted_cover` over the same
        sized sample prefix a top-``k_eff`` query would use, where
        ``k_eff = min(k_max, floor(budget / min cost))`` bounds how many
        seeds the budget can possibly buy.  With uniform costs ``c`` and
        budget ``k * c`` the answer is bit-identical to ``query(q, k)``,
        and only then (``floor(budget / c) <= k_max``) does
        ``guarantee_met`` carry the certificate: the ratio greedy has no
        ``1 - 1/e`` factor for non-uniform costs.
        """
        n = self.network.n
        location = as_point(q)
        budget = float(budget)
        if not math.isfinite(budget):
            raise QueryError(f"budget must be finite, got {budget}")
        costs = np.asarray(costs, dtype=float)
        if costs.shape != (n,):
            raise QueryError(f"costs must have shape ({n},), got {costs.shape}")
        if not np.all(costs > 0):
            raise QueryError("all node costs must be positive")
        k_eff = min(self.k_max, int(budget // float(costs.min())))
        if k_eff < 1:
            raise QueryError(
                f"budget {budget} cannot afford any node (cheapest costs "
                f"{float(costs.min())})"
            )
        plan = _Plan((location,), k_eff, costs=costs, budget=budget)
        return self._answer([plan], return_diagnostics)[0]

    def query_trajectory(
        self,
        waypoints: Sequence[PointLike],
        k: int,
        return_diagnostics: bool = False,
    ) -> list[SeedResult] | list[Tuple[SeedResult, QueryDiagnostics]]:
        """Answer a trajectory: one seed set per waypoint, shared setup.

        Equivalent to ``[query(wp, k) for wp in waypoints]`` bit-for-bit;
        it is :meth:`query_many` except that an empty trajectory is an
        error.
        """
        if not len(waypoints):
            raise QueryError("trajectory needs at least one waypoint")
        return self.query_many(waypoints, k, return_diagnostics)

    def query_many(
        self,
        locations: Sequence[PointLike],
        k: int,
        return_diagnostics: bool = False,
    ) -> list[SeedResult] | list[Tuple[SeedResult, QueryDiagnostics]]:
        """Answer a batch of queries with the same budget.

        Bit-identical to looping :meth:`query`; with
        ``return_diagnostics`` each element is the same
        ``(SeedResult, QueryDiagnostics)`` pair :meth:`query` returns.
        The batch shares one delta resolution (see :meth:`_answer`);
        each query evaluates its own node-space weights.  For cached,
        concurrent, metered batches, wrap the index in a
        :class:`repro.serve.QueryEngine` (see :meth:`serve`) instead.
        """
        return self._answer(
            [_Plan((as_point(q),), k) for q in locations], return_diagnostics
        )

    def serve(self, config=None, metrics=None, **kwargs):
        """A :class:`repro.serve.QueryEngine` over this index.

        Convenience for ``QueryEngine(index, ...)``; the serving layer is
        imported lazily to keep ``repro.core`` free of the dependency.
        Extra keyword arguments (``tracer``, ``logger``, ``slow_log``)
        pass straight through to the engine.
        """
        from repro.serve.engine import QueryEngine

        return QueryEngine(self, config=config, metrics=metrics, **kwargs)
