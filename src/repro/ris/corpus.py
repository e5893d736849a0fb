"""A growable corpus of RR samples with flat storage.

RIS-DA indexes one shared pool of samples (Algorithms 4–5 both append to
the same ``R``) and answers queries over a *prefix* of it, so the corpus
must support cheap appends and prefix views.  The corpus *is* four int64
arrays — ``roots``, the concatenated ``flat`` members, their CSR
``offsets`` and the per-slot ``keys`` — and the inverted index (node ->
containing samples) is rebuilt lazily when they change.

Every slot stores the integer key that, with the sampler seed, fully
determines its randomness (see :mod:`repro.ris.coupled`).  Streaming
updates use that: :meth:`RRCorpus.samples_touching` finds the slots
whose reverse-reach sets intersect a dirty-node set (via the inverted
index), :meth:`RRCorpus.replace_sampler` swaps in a sampler over the
updated network, and :meth:`RRCorpus.regenerate` re-runs the chosen
slots in place against it.  A corpus restored from a file saved before
slot keys existed is *keyless*: it answers queries but cannot
regenerate.  Every mutation installs new arrays through
:meth:`RRCorpus._install`, which drops all three derived caches (entry
samples, inverted, prefix cuts) together — a stale inverted index would
silently mis-route the next regeneration, a stale entry -> sample array
would silently mis-weight the next query, and a stale prefix cut would
silently hand a greedy pick the wrong candidate samples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import SamplingError

if TYPE_CHECKING:  # coupled imports coverage, which imports this module
    from repro.ris.coupled import CoupledRRSampler

#: How many :meth:`RRCorpus.prefix_cut` arrays one corpus state keeps
#: (``n`` int64 each).  The first ones asked for are kept and never
#: evicted — the RIS-DA index asks for its certify boundaries first — and
#: any other prefix is computed per call.
PREFIX_CUT_MEMO = 8


def _int_array(name: str, values) -> np.ndarray:
    """``values`` as int64, refusing non-integer dtypes (no truncation).

    An int64 input comes back as-is (no copy), so memmap and
    shared-memory arrays stay zero-copy.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and arr.size:
        raise SamplingError(f"{name} must be integers, got dtype {arr.dtype}")
    if arr.ndim != 1:
        raise SamplingError(f"{name} must be one-dimensional, got {arr.shape}")
    return arr.astype(np.int64, copy=False)


def _check_csr(
    roots: np.ndarray, flat: np.ndarray, offsets: np.ndarray, n: int
) -> None:
    """Refuse a ``(roots, flat, offsets)`` triple outside the layout.

    Reads the arrays only: offsets start at 0, never decrease and end
    at ``len(flat)``; roots and members lie in ``[0, n)``; each sample's
    members strictly rise (a repeated member would count its sample
    twice in every coverage score).
    """
    if len(offsets) != len(roots) + 1 or offsets[0] != 0 or (
        offsets[-1] != len(flat)
    ):
        raise SamplingError(
            f"inconsistent corpus arrays: {len(roots)} roots, "
            f"{len(offsets)} offsets, {len(flat)} members"
        )
    if np.any(offsets[1:] < offsets[:-1]):
        raise SamplingError("corpus offsets must be non-decreasing")
    for name, arr in (("roots", roots), ("members", flat)):
        if len(arr) and (arr.min() < 0 or arr.max() >= n):
            raise SamplingError(
                f"corpus {name} must be node ids in [0, {n}), got range "
                f"[{int(arr.min())}, {int(arr.max())}]"
            )
    rising = flat[1:] > flat[:-1]
    starts = offsets[1:-1]
    rising[starts[(starts > 0) & (starts < len(flat))] - 1] = True
    if not rising.all():
        raise SamplingError(
            "corpus members must be sorted and distinct within each sample"
        )


class RRCorpus:
    """A growable collection of RR samples (append + in-place regeneration).

    ``flat[offsets[i]:offsets[i+1]]`` is the sorted node set of sample
    ``i`` and ``roots[i]`` its sampled node ``v_i`` (whose weight the
    DAIM estimator uses).
    """

    def __init__(self, sampler: CoupledRRSampler):
        self._sampler = sampler
        empty = np.empty(0, dtype=np.int64)
        self._install(empty, empty, np.zeros(1, dtype=np.int64), empty)

    def __len__(self) -> int:
        return len(self._roots)

    @classmethod
    def from_arrays(
        cls,
        sampler: CoupledRRSampler,
        roots: np.ndarray,
        flat: np.ndarray,
        offsets: np.ndarray,
        keys: np.ndarray | None = None,
    ) -> "RRCorpus":
        """Restore a corpus from its flat representation (persistence).

        ``flat`` / ``offsets`` must follow the :meth:`flat` layout, with
        integer dtypes and every root and member a node id of the
        sampler's network; the sampler is kept so the corpus can keep
        growing afterwards.  ``keys`` restores a keyed corpus: one
        distinct non-negative key per slot (a repeated key would
        duplicate a slot, so the pool would no longer be i.i.d.).
        Omitting it yields a keyless corpus, which answers queries but
        cannot regenerate.

        The arrays are validated by reading them and then wrapped, not
        copied — so a corpus restored over a memmap or shared-memory
        buffer stays zero-copy: the selection kernels read :meth:`flat`
        straight out of the shared pages.
        """
        roots = _int_array("corpus roots", roots)
        flat = _int_array("corpus members", flat)
        offsets = _int_array("corpus offsets", offsets)
        _check_csr(roots, flat, offsets, sampler.network.n)
        if keys is not None:
            keys = _int_array("corpus keys", keys)
            if keys.shape != (len(roots),):
                raise SamplingError(
                    f"corpus keys must have shape ({len(roots)},), got "
                    f"{keys.shape}"
                )
            if len(keys) and keys.min() < 0:
                raise SamplingError(
                    f"corpus keys must be non-negative, got {int(keys.min())}"
                )
            if len(np.unique(keys)) != len(keys):
                raise SamplingError("corpus keys must be distinct")
        corpus = cls(sampler)
        corpus._install(roots, flat, offsets, keys)
        return corpus

    @property
    def n_nodes(self) -> int:
        return self._sampler.network.n

    @property
    def roots(self) -> np.ndarray:
        return self._roots

    def members(self, i: int) -> np.ndarray:
        """The node set of sample ``i`` (a view into :meth:`flat`)."""
        return self._flat[self._offsets[i] : self._offsets[i + 1]]

    def ensure(self, count: int) -> int:
        """Grow the corpus to at least ``count`` samples; returns new size.

        Grows by one ``sample_batch``, which also yields the per-slot
        keys a keyed corpus records (fresh keys never collide with
        stored ones — the sampler's counter is advanced past them
        first).
        """
        if count < 0:
            raise SamplingError(f"sample count must be non-negative, got {count}")
        missing = count - len(self)
        if missing > 0:
            self._sampler.draw_count = max(
                self._sampler.draw_count, self.next_key()
            )
            keys, roots, flat, offsets = self._sampler.sample_batch(missing)
            self.append_flat(
                roots, flat, offsets, keys=keys if self.keyed else None
            )
        return len(self)

    def append_flat(
        self,
        roots: np.ndarray,
        flat: np.ndarray,
        offsets: np.ndarray,
        keys: np.ndarray | None = None,
    ) -> int:
        """Append a batch of samples in flat form; returns new size.

        ``flat`` / ``offsets`` follow the :meth:`flat` layout over the
        batch, which is concatenated onto the stored arrays.  A keyed
        corpus requires one key per appended slot (and a keyless one
        rejects keys) — silently dropping them would break regeneration
        later.
        """
        roots = _int_array("batch roots", roots)
        flat = _int_array("batch members", flat)
        offsets = _int_array("batch offsets", offsets)
        _check_csr(roots, flat, offsets, self.n_nodes)
        if (keys is not None) != self.keyed:
            raise SamplingError(
                "keyed corpora require one key per appended slot; "
                "keyless corpora accept none"
            )
        if keys is not None:
            keys = _int_array("batch keys", keys)
            if keys.shape != (len(roots),):
                raise SamplingError(
                    f"batch keys must have shape ({len(roots)},), got "
                    f"{keys.shape}"
                )
            keys = np.concatenate((self._keys, keys))
        self._install(
            np.concatenate((self._roots, roots)),
            np.concatenate((self._flat, flat)),
            np.concatenate((self._offsets, offsets[1:] + self._offsets[-1])),
            keys,
        )
        return len(self)

    # -- streaming maintenance ----------------------------------------

    @property
    def sampler(self) -> CoupledRRSampler:
        return self._sampler

    @property
    def keys(self) -> np.ndarray | None:
        """Per-slot randomness keys (``None`` for keyless corpora)."""
        return self._keys

    @property
    def keyed(self) -> bool:
        return self._keys is not None

    def next_key(self) -> int:
        """The smallest key larger than every stored one (0 if none)."""
        if self._keys is None or not len(self._keys):
            return 0
        return int(self._keys.max()) + 1

    def replace_sampler(self, sampler: CoupledRRSampler) -> None:
        """Swap the sampler (after a graph update) for future growth.

        The replacement must cover the same node universe — sample ids
        and member node ids stay meaningful across the swap.
        """
        if sampler.network.n != self._sampler.network.n:
            raise SamplingError(
                f"replacement sampler covers {sampler.network.n} nodes, "
                f"corpus expects {self._sampler.network.n}"
            )
        self._sampler = sampler

    def regenerate(self, sample_ids) -> int:
        """Re-run the given slots in place with their stored keys.

        The streaming-refresh path: after :meth:`replace_sampler`
        swapped in a sampler over the updated network, each listed slot
        is re-drawn as a pure function of ``(seed, key, new graph)``.
        Slots keep their position (and, since the root is derived from
        the key, their root), and every slot remains an i.i.d. RR set of
        the new graph, so every prefix is still a uniform subsample of
        the pool.  The re-drawn sets are spliced into fresh ``flat`` /
        ``offsets`` arrays with one scatter.  Returns how many slots
        were re-run.
        """
        if self._keys is None:
            raise SamplingError(
                "regeneration requires a keyed corpus (coupled sampler)"
            )
        ids = np.unique(np.asarray(sample_ids, dtype=np.int64).reshape(-1))
        if len(ids) == 0:
            return 0
        if ids[0] < 0 or ids[-1] >= len(self):
            raise SamplingError(
                f"sample ids must be in [0, {len(self)}), got "
                f"range [{ids[0]}, {ids[-1]}]"
            )
        new_roots, new_flat, new_offsets = self._sampler._traverse(
            self._keys[ids]
        )
        new_sizes = np.diff(new_offsets)
        sizes = np.diff(self._offsets)
        sizes[ids] = new_sizes
        offsets = np.zeros(len(self) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        flat = np.empty(offsets[-1], dtype=np.int64)
        # Kept entries move by their slot's offset shift; re-drawn sets
        # land at their slot's new offset.
        redrawn = np.zeros(len(self), dtype=bool)
        redrawn[ids] = True
        owner = self.entry_samples()
        kept = np.flatnonzero(~redrawn[owner])
        shift = offsets[:-1] - self._offsets[:-1]
        flat[kept + shift[owner[kept]]] = self._flat[kept]
        flat[
            np.arange(len(new_flat))
            + np.repeat(offsets[ids] - new_offsets[:-1], new_sizes)
        ] = new_flat
        roots = self._roots.copy()
        roots[ids] = new_roots
        self._install(roots, flat, offsets, self._keys)
        return int(len(ids))

    def samples_touching(self, nodes) -> np.ndarray:
        """Ids of samples whose member sets intersect ``nodes`` (sorted).

        This is the dirty-sample query of the streaming update path: a
        sample whose reverse-reach set avoids every head of a changed
        edge would have drawn exactly the same randomness on the new
        graph, so only the returned samples can need regenerating.
        """
        nodes = np.unique(np.asarray(nodes, dtype=np.int64).reshape(-1))
        if len(nodes) == 0 or not len(self):
            return np.empty(0, dtype=np.int64)
        if nodes[0] < 0 or nodes[-1] >= self.n_nodes:
            raise SamplingError(
                f"node ids must be in [0, {self.n_nodes}), got range "
                f"[{nodes[0]}, {nodes[-1]}]"
            )
        inv_samples, inv_offsets = self.inverted()
        parts = [
            inv_samples[inv_offsets[u]: inv_offsets[u + 1]] for u in nodes
        ]
        return np.unique(np.concatenate(parts))

    def _install(
        self,
        roots: np.ndarray,
        flat: np.ndarray,
        offsets: np.ndarray,
        keys: np.ndarray | None,
    ) -> None:
        self._roots = roots
        self._flat = flat
        self._offsets = offsets
        self._keys = keys
        self._entry_samples_cache: np.ndarray | None = None
        self._inverted_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._prefix_cuts: dict[int, np.ndarray] = {}

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """``(flat_members, offsets)`` over the whole corpus.

        ``flat_members[offsets[i]:offsets[i+1]]`` is sample ``i``'s node
        set.
        """
        return self._flat, self._offsets

    def entry_samples(self) -> np.ndarray:
        """The sample id of every :meth:`flat` member entry.

        ``entry_samples()[j]`` is the ``i`` with ``offsets[i] <= j <
        offsets[i+1]`` — ``np.repeat(arange(len), diff(offsets))`` — so
        per-entry sample weights are one gather,
        ``weights[entry_samples()[:offsets[l]]]``, for any prefix ``l``.
        Cached until the corpus changes.
        """
        if self._entry_samples_cache is None:
            self._entry_samples_cache = np.repeat(
                np.arange(len(self), dtype=np.int64), np.diff(self._offsets)
            )
        return self._entry_samples_cache

    def inverted(self) -> tuple[np.ndarray, np.ndarray]:
        """``(inv_samples, inv_offsets)`` — the node -> samples index.

        ``inv_samples[inv_offsets[u]:inv_offsets[u+1]]`` lists the ids of
        the samples containing node ``u``, in ascending order — so a
        prefix query reads each list's head up to :meth:`prefix_cut`.  Cached
        until the corpus changes; building it is the dominant cost of the
        first query, so index construction calls this eagerly.
        """
        if self._inverted_cache is None:
            flat = self._flat
            # Same stable order either way; numpy radix-sorts 16-bit keys.
            keys = flat.astype(np.uint16) if self.n_nodes <= 1 << 16 else flat
            inv_samples = self.entry_samples()[np.argsort(keys, kind="stable")]
            inv_offsets = np.zeros(self.n_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(flat, minlength=self.n_nodes), out=inv_offsets[1:])
            self._inverted_cache = (inv_samples, inv_offsets)
        return self._inverted_cache

    def prefix_cut(self, l: int) -> np.ndarray:
        """End of every node's inverted slice restricted to slots ``< l``.

        ``inv_samples[inv_offsets[u]:prefix_cut(l)[u]]`` lists the samples
        of the prefix ``[0, l)`` that contain node ``u`` (the inverted
        lists ascend, so they are a head of ``u``'s list), and the slots
        ``[a, b)`` holding ``u`` sit between ``prefix_cut(a)[u]`` and
        ``prefix_cut(b)[u]``.  An unweighted ``bincount`` over a slot
        range's members counts each node's entries there: members are
        distinct within a sample, so the count is the number of those
        samples containing ``u``.  A cut is the largest kept cut below
        ``l`` (or the inverted list starts) plus that count over the
        slots in between.  ``l = 0`` and ``l = len(self)`` are the
        inverted offsets themselves.  The first :data:`PREFIX_CUT_MEMO`
        prefixes asked for are kept until the corpus changes.
        """
        l = int(l)
        if not 0 <= l <= len(self):
            raise SamplingError(
                f"prefix {l} out of range [0, {len(self)}]"
            )
        _, inv_offsets = self.inverted()
        if l == 0:
            return inv_offsets[:-1]
        if l == len(self):
            return inv_offsets[1:]
        cuts = self._prefix_cuts
        cut = cuts.get(l)
        if cut is None:
            # ``list`` copies the keys in one step, so a thread adding a
            # cut meanwhile cannot break the scan.
            below = max((a for a in list(cuts) if a < l), default=0)
            base = cuts[below] if below else inv_offsets[:-1]
            cut = base + np.bincount(
                self._flat[self._offsets[below]: self._offsets[l]],
                minlength=self.n_nodes,
            )
            # First come, first kept, never evicted: concurrent queries
            # only ever store equal arrays.  (Threads racing past the
            # size check can each add one more; no lock, so a corpus
            # stays picklable and deep-copyable.)
            if len(cuts) < PREFIX_CUT_MEMO:
                cut = cuts.setdefault(l, cut)
        return cut

    def average_size(self) -> float:
        """Mean RR-set size (diagnostic; drives memory/time estimates)."""
        if not len(self):
            return 0.0
        return len(self._flat) / len(self)

    def total_entries(self, prefix: int | None = None) -> int:
        """Total member entries in the first ``prefix`` samples."""
        if prefix is None:
            return int(self._offsets[-1])
        prefix = min(prefix, len(self))
        return int(self._offsets[prefix])
