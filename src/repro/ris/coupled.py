"""Counter-based RR sampling: the one RR sampler of the library.

An RR set (Definitions 3–4) is everything that reaches a uniform random
root in a random live-edge instance of the graph; a reverse traversal
from the root draws the instance lazily, touching only the part it
reaches.  The RIS-DA index, the ad-hoc query and certification all
sample with :class:`CoupledRRSampler`.

A sequential sampler draws every sample from one RNG stream, so after a
graph delta an update cannot re-derive a stored sample's randomness.
This sampler removes the sequential stream entirely.  Each sample slot
carries an integer **key**, and the slot is a *pure function* of
``(seed, key, graph)``:

* the root is a hash of ``(seed, key)``;
* under IC, the coin of in-edge ``u -> x`` is a hash of ``(seed, key,
  u, x)`` — keyed by the edge's *endpoints*, not its storage position,
  so the coin survives CSR re-layout when unrelated edges are upserted;
* under LT (a triggering model whose live-edge law picks at most one
  in-neighbour per node), node ``x``'s single choice is a hash of
  ``(seed, key, x)`` compared against the running sum of ``x``'s
  in-weights, so an LT RR set is a reverse walk with one draw per step.

Two properties follow.  **Independence**: distinct keys share no
randomness, so the corpus is an i.i.d. RR-set pool — replacements need
no conditioning and no shuffle.  **Coupling** (common random numbers):
re-running a slot on an updated graph reuses the identical randomness
for every node and edge.  A reverse traversal only examines the in-edge
row of nodes it has already reached, and a delta only rewrites the
in-edge rows of changed-edge *heads* (in-rows are sorted by source, so
a row is unchanged exactly when none of its edges changed) — so a slot
whose stored set contains no dirty head replays bit-for-bit, while a
touching slot's re-run is exactly one fresh RR set of the new graph.
The streaming update therefore regenerates only the touching slots:
cost proportional to the dirty fraction, not to the corpus size.

Purity also makes sampling fast: no draw depends on traversal order,
so build growth and streaming regeneration both traverse thousands of
slots together, level by level, as array ops.  Hashing uses the
SplitMix64 finalizer (wrapping ``uint64`` arithmetic), the standard
choice for counter-based ("stateless") sampling.
"""

from __future__ import annotations

import numpy as np

from repro.diffusion.lt import validate_lt_weights
from repro.exceptions import GraphError
from repro.network.graph import GeoSocialNetwork
from repro.ris.coverage import _gather_runs

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
#: Odd constants decorrelating the per-purpose hash domains.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_ROOT_SALT = np.uint64(0xD1B54A32D192ED03)
_NODE_SALT = np.uint64(0xC2B2AE3D27D4EB4F)
_U64_SHIFT_30 = np.uint64(30)
_U64_SHIFT_27 = np.uint64(27)
_U64_SHIFT_31 = np.uint64(31)
_U64_SHIFT_11 = np.uint64(11)
#: Slots per batched reverse-BFS pass: bounds the transient
#: ``(slot, node)`` arrays independently of the network size.
_CHUNK_SLOTS = 2048


def _mix64(z):
    """SplitMix64 finalizer over ``uint64`` scalars or arrays.

    Wrapping multiplication is intentional; callers run under
    ``np.errstate(over="ignore")`` so scalar overflow stays silent.
    """
    z = (z ^ (z >> _U64_SHIFT_30)) * _M1
    z = (z ^ (z >> _U64_SHIFT_27)) * _M2
    return z ^ (z >> _U64_SHIFT_31)


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """:func:`_mix64` over a ``uint64`` array, overwriting it.

    The same bits with one scratch array instead of six temporaries: the
    level step hashes every examined in-edge, so this is its largest
    array.  Array arithmetic wraps silently.
    """
    t = z >> _U64_SHIFT_30
    z ^= t
    z *= _M1
    np.right_shift(z, _U64_SHIFT_27, out=t)
    z ^= t
    z *= _M2
    np.right_shift(z, _U64_SHIFT_31, out=t)
    z ^= t
    return z


def quantize_probability(p: float) -> np.uint64:
    """``p`` as a 53-bit liveness threshold: a coin is live iff its top
    53 hash bits are below this.  One quantisation, used by both the
    traversal and the streaming flip filter, so the two always agree on
    every coin (a float-vs-integer mismatch on a boundary coin would
    silently skip a slot whose replay actually changed)."""
    return np.uint64(min(float(p), 1.0) * float(1 << 53))


class CoupledRRSampler:
    """RR sampling with per-slot, identity-keyed randomness (IC and LT).

    Serves the corpus-growth paths (via :meth:`sample_batch`) and the
    streaming update (via :meth:`regenerate` and :meth:`_traverse`).
    Callers holding a generator or ``None`` coerce it first with
    :func:`repro.rng.as_int_seed`.

    Parameters
    ----------
    network:
        The network to sample from.
    seed:
        Integer seed.  Together with a slot key it fixes the slot's
        root and every draw, so corpora built from the same ``(seed,
        keys, graph)`` are bit-identical regardless of draw order.
    diffusion:
        ``"ic"`` (default) or ``"lt"``.  LT requires per-node in-weights
        ``<= 1`` (:class:`~repro.exceptions.GraphError` otherwise).
    """

    def __init__(
        self,
        network: GeoSocialNetwork,
        seed: int = 0,
        diffusion: str = "ic",
    ):
        if not isinstance(seed, (int, np.integer)):
            raise GraphError(
                f"coupled sampling needs an integer seed, got {type(seed).__name__}"
            )
        if diffusion not in ("ic", "lt"):
            raise GraphError(
                f"diffusion must be 'ic' or 'lt', got {diffusion!r}"
            )
        if diffusion == "lt":
            validate_lt_weights(network)
        self.diffusion = diffusion
        self.network = network
        self.seed = int(seed)
        #: Next unused slot key; advanced by the drawing methods.
        self.draw_count = 0
        self._in_degree = np.diff(network.in_offsets)
        with np.errstate(over="ignore"):
            self._seed64 = _mix64(np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF))
            # Probabilities pre-quantised to 53-bit integer thresholds
            # (see quantize_probability): the traversal compares hash
            # bits against these directly, skipping a float conversion
            # per examined row, and the law is p to within one part in
            # 2^53.
            self._thresholds = (
                np.minimum(network.in_probs, 1.0) * float(1 << 53)
            ).astype(np.uint64)
            if diffusion == "ic":
                # Endpoint-keyed edge ids, premixed once: aligned with
                # in_sources, so a traversal hashes each examined row
                # with one xor + one finalizer.
                targets = np.repeat(
                    np.arange(network.n, dtype=np.uint64), self._in_degree
                )
                edge_ids = (
                    network.in_sources.astype(np.uint64) * np.uint64(network.n)
                    + targets
                )
                self._edge_mix = _mix64(edge_ids)
            else:
                # Node ids premixed under their own salt, whose top bit
                # keeps them clear of every edge id u * n + v.
                self._node_mix = _mix64(
                    np.arange(network.n, dtype=np.uint64) ^ _NODE_SALT
                )
                # Per-row running sums of the thresholds.  The global
                # cumsum wraps mod 2^64, but each row's true sum is at
                # most ~2^53, so the row-relative differences are exact.
                total = np.cumsum(self._thresholds)
                before = np.concatenate(
                    (np.zeros(1, dtype=np.uint64), total)
                )[network.in_offsets[:-1]]
                self._cumq = total - np.repeat(before, self._in_degree)

    # -- drawing -------------------------------------------------------

    def sample(self) -> tuple[int, np.ndarray]:
        """One RR set ``(root, members)`` at the next unused key."""
        key = self.draw_count
        self.draw_count += 1
        return self.regenerate(key)

    def sample_batch(
        self, count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``count`` RR sets as ``(keys, roots, flat_members, offsets)``.

        Consecutive keys starting at :attr:`draw_count`, members
        concatenated in the :meth:`RRCorpus.flat` layout.
        """
        if count < 0:
            raise GraphError(f"count must be non-negative, got {count}")
        keys = np.arange(
            self.draw_count, self.draw_count + count, dtype=np.int64
        )
        roots, flat, offsets = self._traverse(keys)
        self.draw_count += count
        return keys, roots, flat, offsets

    def edge_coin_bits(self, keys, u: int, v: int) -> np.ndarray:
        """The 53-bit IC coin of in-edge ``u -> v`` per slot key, vectorised.

        This is how the streaming update avoids re-running most
        head-touching IC slots: a slot that examined a changed edge's
        row replays to a *different* set only if that edge's own coin
        flips liveness under the probability change — every other coin
        in the row is endpoint-keyed and unchanged.  Evaluating the coin
        directly (a few hashes per candidate slot) is orders of
        magnitude cheaper than a reverse traversal.  Returned in the
        integer domain so callers compare against
        :func:`quantize_probability` with exactly the traversal's
        liveness rule (``bits < threshold``).
        """
        keys = np.asarray(keys, dtype=np.int64)
        n = self.network.n
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(
                f"edge endpoints must be in [0, {n}), got ({u}, {v})"
            )
        with np.errstate(over="ignore"):
            slots = _mix64(self._seed64 ^ (keys.astype(np.uint64) * _GOLDEN))
            edge = _mix64(np.uint64(u) * np.uint64(n) + np.uint64(v))
            return _mix64(slots ^ edge) >> _U64_SHIFT_11

    def regenerate(self, key: int) -> tuple[int, np.ndarray]:
        """The RR set of slot ``key`` — pure in ``(seed, key, graph)``.

        Does not advance :attr:`draw_count`: the streaming update
        re-runs stored keys against the *new* network, and coupling
        makes the result a fresh exact RR set of that network.
        """
        roots, flat, _ = self._traverse(np.asarray([key], dtype=np.int64))
        return int(roots[0]), flat

    # ------------------------------------------------------------------

    def _traverse(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The RR sets of slots ``keys`` as ``(roots, flat, offsets)``.

        Any int64 key array (unsorted, repeated, non-contiguous), in the
        :meth:`RRCorpus.flat` layout.  Each chunk of :data:`_CHUNK_SLOTS`
        slots runs one level-synchronous reverse traversal over ``(slot,
        node)`` pairs encoded ``slot_index * n + node``; the visited
        codes stay sorted, so dedupe is a ``searchsorted`` and the final
        codes list every slot's members ascending.  One level expands
        the frontier with :meth:`_ic_step` (every live in-edge) or
        :meth:`_lt_step` (at most one chosen in-neighbour per slot); an
        LT walk thus stops on "none" or on a revisit.  Both steps return
        sorted unique codes, so the new frontier is a sorted run, and a
        stable sort of ``visited`` with it appended is timsort merging
        two runs.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if len(keys) and keys.min() < 0:
            raise GraphError(
                f"slot keys are non-negative, got {int(keys.min())}"
            )
        net = self.network
        n = net.n
        if len(keys) and n == 0:
            raise GraphError("cannot sample from an empty network")
        step = self._ic_step if self.diffusion == "ic" else self._lt_step
        roots = np.empty(len(keys), dtype=np.int64)
        offsets = np.zeros(len(keys) + 1, dtype=np.int64)
        parts = [np.empty(0, dtype=np.int64)]
        for lo in range(0, len(keys), _CHUNK_SLOTS):
            chunk = keys[lo : lo + _CHUNK_SLOTS]
            hi = lo + len(chunk)
            with np.errstate(over="ignore"):
                slot = _mix64(self._seed64 ^ (chunk.astype(np.uint64) * _GOLDEN))
                roots[lo:hi] = _mix64(slot ^ _ROOT_SALT) % np.uint64(n)
            visited = np.arange(len(chunk), dtype=np.int64) * n + roots[lo:hi]
            frontier = visited
            while len(frontier):
                reached = step(slot, frontier)
                # A code past the end of ``visited`` exceeds its last
                # entry, so the clipped lookup still tells it apart.
                at = visited.searchsorted(reached)
                frontier = reached[visited.take(at, mode="clip") != reached]
                visited = np.concatenate((visited, frontier))
                visited.sort(kind="stable")
            slot_idx, members = np.divmod(visited, n)
            offsets[lo + 1 : hi + 1] = np.bincount(slot_idx, minlength=len(chunk))
            parts.append(members)
        np.cumsum(offsets, out=offsets)
        return roots, np.concatenate(parts), offsets

    def _ic_step(self, slot: np.ndarray, frontier: np.ndarray) -> np.ndarray:
        """Sorted unique codes of every live in-neighbour of ``frontier``."""
        net = self.network
        n = net.n
        slot_idx, node = np.divmod(frontier, n)
        deg = self._in_degree[node]
        pos = _gather_runs(net.in_offsets[node + 1], deg)
        edge_slot = slot_idx.repeat(deg)
        coins = slot[edge_slot]
        coins ^= self._edge_mix[pos]
        _mix64_inplace(coins)
        coins >>= _U64_SHIFT_11
        live = coins < self._thresholds[pos]
        codes = edge_slot[live]
        codes *= n
        codes += net.in_sources[pos[live]]
        codes.sort()
        first = np.empty(len(codes), dtype=bool)
        first[:1] = True
        np.not_equal(codes[1:], codes[:-1], out=first[1:])
        return codes[first]

    def _lt_step(self, slot: np.ndarray, frontier: np.ndarray) -> np.ndarray:
        """Codes of each frontier node's chosen in-neighbour, if any.

        The frontier holds at most one node per slot, in slot order, so
        the result is sorted and unique.  The coin picks the first row
        entry ``j`` with ``coin < cumq[j]``: the count of entries with
        ``cumq <= coin``, which equals the degree when the coin lands in
        the remaining mass (no in-neighbour chosen).
        """
        net = self.network
        n = net.n
        slot_idx, node = np.divmod(frontier, n)
        coins = slot[slot_idx]
        coins ^= self._node_mix[node]
        _mix64_inplace(coins)
        coins >>= _U64_SHIFT_11
        deg = self._in_degree[node]
        pos = _gather_runs(net.in_offsets[node + 1], deg)
        row = np.arange(len(node)).repeat(deg)
        below = np.bincount(
            row[self._cumq[pos] <= coins[row]], minlength=len(node)
        )
        pick = below < deg
        chosen = net.in_sources[net.in_offsets[node[pick]] + below[pick]]
        return slot_idx[pick] * n + chosen
