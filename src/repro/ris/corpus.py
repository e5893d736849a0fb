"""A growable corpus of RR samples with flat storage.

RIS-DA indexes one shared pool of samples (Algorithms 4–5 both append to
the same ``R``) and answers queries over a *prefix* of it, so the corpus
must support cheap appends and prefix views.  Samples are stored as one
concatenated member array plus offsets (CSR-style); the inverted index
(node -> containing samples) is rebuilt lazily when the corpus changes.

A corpus over a :class:`~repro.ris.coupled.CoupledRRSampler` is *keyed*:
every slot stores the integer key that, with the sampler seed, fully
determines its randomness.  Streaming updates use that:
:meth:`RRCorpus.samples_touching` finds the slots whose reverse-reach
sets intersect a dirty-node set (via the inverted index),
:meth:`RRCorpus.replace_sampler` swaps in a sampler over the updated
network, and :meth:`RRCorpus.regenerate` re-runs the chosen slots in
place against it (see the :mod:`repro.ris.coupled` module docstring for
the coupling argument).  Every mutation funnels through
:meth:`RRCorpus._invalidate`, which drops every cache (flat, roots,
entry samples, inverted) together — a stale inverted index would
silently mis-route the next regeneration, and a stale entry -> sample
array would silently mis-weight the next query.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.exceptions import SamplingError
from repro.ris.rrset import RRSampler


class RRCorpus:
    """A growable collection of RR samples (append + in-place regeneration).

    Attributes
    ----------
    roots:
        ``roots[i]`` is the sampled node ``v_i`` of sample ``i`` (whose
        weight the DAIM estimator uses).
    """

    def __init__(self, sampler: RRSampler):
        self._sampler = sampler
        self._roots: List[int] = []
        self._members: List[np.ndarray] = []
        # Per-slot randomness keys for coupled samplers; None marks a
        # keyless corpus (sequentially sampled, or restored without keys).
        self._keys: List[int] | None = (
            [] if getattr(sampler, "coupled", False) else None
        )
        self._flat_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._roots_cache: np.ndarray | None = None
        self._entry_samples_cache: np.ndarray | None = None
        self._inverted_cache: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._roots)

    @classmethod
    def from_arrays(
        cls,
        sampler: RRSampler,
        roots: np.ndarray,
        flat: np.ndarray,
        offsets: np.ndarray,
        keys: np.ndarray | None = None,
    ) -> "RRCorpus":
        """Restore a corpus from its flat representation (persistence).

        ``flat`` / ``offsets`` must follow the :meth:`flat` layout; the
        sampler is kept so the corpus can keep growing afterwards.
        ``keys`` restores a keyed corpus: one distinct non-negative key
        per slot (a repeated key would duplicate a slot, so the pool
        would no longer be i.i.d.).  Omitting it yields a keyless
        corpus, which answers queries but cannot regenerate.

        The members are *views* into ``flat`` (matching
        :meth:`append_flat`), and the flat/roots caches are seeded with
        the supplied arrays directly — so a corpus restored over a
        memmap or shared-memory buffer stays zero-copy: the selection
        kernels read :meth:`flat` straight out of the shared pages.
        """
        roots = np.asarray(roots, dtype=np.int64)
        flat = np.asarray(flat, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if len(offsets) != len(roots) + 1 or (len(offsets) and offsets[-1] != len(flat)):
            raise SamplingError("inconsistent corpus arrays")
        corpus = cls(sampler)
        corpus._roots = [int(r) for r in roots]
        corpus._members = [
            flat[offsets[i]: offsets[i + 1]] for i in range(len(roots))
        ]
        if keys is not None:
            keys = np.asarray(keys, dtype=np.int64)
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
            corpus._keys = [int(k) for k in keys]
        else:
            corpus._keys = None
        corpus._flat_cache = (flat, offsets)
        corpus._roots_cache = roots
        return corpus

    @property
    def n_nodes(self) -> int:
        return self._sampler.network.n

    @property
    def roots(self) -> np.ndarray:
        if self._roots_cache is None:
            self._roots_cache = np.asarray(self._roots, dtype=np.int64)
        return self._roots_cache

    def members(self, i: int) -> np.ndarray:
        """The node set of sample ``i``."""
        return self._members[i]

    def ensure(self, count: int) -> int:
        """Grow the corpus to at least ``count`` samples; returns new size.

        Coupled samplers grow via ``sample_batch``, which also yields the
        per-slot keys a keyed corpus records (fresh keys never collide
        with stored ones — the sampler's counter is advanced past them
        first).  Sequential samplers grow via one ``sample_many_flat``
        batch append.
        """
        if count < 0:
            raise SamplingError(f"sample count must be non-negative, got {count}")
        missing = count - len(self._roots)
        if missing > 0:
            if getattr(self._sampler, "coupled", False):
                self._sampler.draw_count = max(
                    self._sampler.draw_count, self.next_key()
                )
                keys, roots, flat, offsets = self._sampler.sample_batch(missing)
                self.append_flat(
                    roots, flat, offsets,
                    keys=keys if self._keys is not None else None,
                )
            else:
                self.append_flat(*self._sampler.sample_many_flat(missing))
        return len(self._roots)

    def append_flat(
        self,
        roots: np.ndarray,
        flat: np.ndarray,
        offsets: np.ndarray,
        keys: np.ndarray | None = None,
    ) -> int:
        """Append a batch of samples in flat form; returns new size.

        ``flat`` / ``offsets`` follow the :meth:`flat` layout over the
        batch.  Member arrays are stored as views into the batch, so the
        append is O(batch) regardless of per-set sizes.  A keyed corpus
        requires one key per appended slot (and a keyless one rejects
        keys) — silently dropping them would break regeneration later.
        """
        roots = np.asarray(roots, dtype=np.int64)
        flat = np.asarray(flat, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if len(offsets) != len(roots) + 1 or (
            len(offsets) and offsets[-1] != len(flat)
        ):
            raise SamplingError("inconsistent flat batch arrays")
        if (keys is not None) != (self._keys is not None):
            raise SamplingError(
                "keyed corpora require one key per appended slot; "
                "keyless corpora accept none"
            )
        if keys is not None:
            keys = np.asarray(keys, dtype=np.int64)
            if keys.shape != (len(roots),):
                raise SamplingError(
                    f"batch keys must have shape ({len(roots)},), got "
                    f"{keys.shape}"
                )
            self._keys.extend(int(k) for k in keys)
        self._roots.extend(int(r) for r in roots)
        self._members.extend(
            flat[offsets[i] : offsets[i + 1]] for i in range(len(roots))
        )
        self._invalidate()
        return len(self._roots)

    # -- streaming maintenance ----------------------------------------

    @property
    def sampler(self) -> RRSampler:
        return self._sampler

    @property
    def keys(self) -> np.ndarray | None:
        """Per-slot randomness keys (``None`` for keyless corpora)."""
        if self._keys is None:
            return None
        return np.asarray(self._keys, dtype=np.int64)

    @property
    def keyed(self) -> bool:
        return self._keys is not None

    def next_key(self) -> int:
        """The smallest key larger than every stored one (0 if empty)."""
        if not self._keys:
            return 0
        return max(self._keys) + 1

    def replace_sampler(self, sampler) -> None:
        """Swap the sampler (after a graph update) for future growth.

        The replacement must cover the same node universe — sample ids
        and member node ids stay meaningful across the swap — and a
        keyed corpus only accepts another coupled sampler (stored keys
        are meaningless to a sequential one).
        """
        if sampler.network.n != self._sampler.network.n:
            raise SamplingError(
                f"replacement sampler covers {sampler.network.n} nodes, "
                f"corpus expects {self._sampler.network.n}"
            )
        if self._keys is not None and not getattr(sampler, "coupled", False):
            raise SamplingError(
                "keyed corpus requires a coupled replacement sampler"
            )
        self._sampler = sampler

    def regenerate(self, sample_ids) -> int:
        """Re-run the given slots in place with their stored keys.

        The coupled streaming-refresh path: after
        :meth:`replace_sampler` swapped in a coupled sampler over the
        updated network, each listed slot is re-drawn as a pure function
        of ``(seed, key, new graph)``.  Slots keep their position (and,
        since the root is derived from the key, their root), and every
        slot remains an i.i.d. RR set of the new graph, so every prefix
        is still a uniform subsample of the pool.  Returns how many slots were re-run.
        """
        if self._keys is None:
            raise SamplingError(
                "regeneration requires a keyed corpus (coupled sampler)"
            )
        ids = np.unique(np.asarray(sample_ids, dtype=np.int64).reshape(-1))
        if len(ids) == 0:
            return 0
        if ids[0] < 0 or ids[-1] >= len(self._roots):
            raise SamplingError(
                f"sample ids must be in [0, {len(self._roots)}), got "
                f"range [{ids[0]}, {ids[-1]}]"
            )
        roots, flat, offsets = self._sampler._traverse(
            np.asarray([self._keys[i] for i in ids], dtype=np.int64)
        )
        for j, i in enumerate(ids):
            self._roots[i] = int(roots[j])
            self._members[i] = flat[offsets[j] : offsets[j + 1]]
        self._invalidate()
        return int(len(ids))

    def samples_touching(self, nodes) -> np.ndarray:
        """Ids of samples whose member sets intersect ``nodes`` (sorted).

        This is the dirty-sample query of the streaming update path: a
        sample whose reverse-reach set avoids every head of a changed
        edge would have drawn exactly the same randomness on the new
        graph, so only the returned samples can need regenerating.
        """
        nodes = np.unique(np.asarray(nodes, dtype=np.int64).reshape(-1))
        if len(nodes) == 0 or not self._roots:
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

    def _invalidate(self) -> None:
        self._flat_cache = None
        self._roots_cache = None
        self._entry_samples_cache = None
        self._inverted_cache = None

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """``(flat_members, offsets)`` over the whole corpus.

        ``flat_members[offsets[i]:offsets[i+1]]`` is sample ``i``'s node
        set.  Cached until the corpus grows.
        """
        if self._flat_cache is None:
            sizes = np.asarray([len(m) for m in self._members], dtype=np.int64)
            offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
            np.cumsum(sizes, out=offsets[1:])
            flat = (
                np.concatenate(self._members)
                if self._members
                else np.empty(0, dtype=np.int64)
            )
            self._flat_cache = (flat, offsets)
        return self._flat_cache

    def entry_samples(self) -> np.ndarray:
        """The sample id of every :meth:`flat` member entry.

        ``entry_samples()[j]`` is the ``i`` with ``offsets[i] <= j <
        offsets[i+1]`` — ``np.repeat(arange(len), diff(offsets))`` — so
        per-entry sample weights are one gather,
        ``weights[entry_samples()[:offsets[l]]]``, for any prefix ``l``.
        Cached until the corpus changes.
        """
        if self._entry_samples_cache is None:
            _, offsets = self.flat()
            self._entry_samples_cache = np.repeat(
                np.arange(len(self._roots), dtype=np.int64), np.diff(offsets)
            )
        return self._entry_samples_cache

    def inverted(self) -> tuple[np.ndarray, np.ndarray]:
        """``(inv_samples, inv_offsets)`` — the node -> samples index.

        ``inv_samples[inv_offsets[u]:inv_offsets[u+1]]`` lists the ids of
        the samples containing node ``u``, in ascending order — so a
        prefix query can cut each list with one binary search.  Cached
        until the corpus grows; building it is the dominant cost of the
        first query, so index construction calls this eagerly.
        """
        if self._inverted_cache is None:
            flat, _ = self.flat()
            # Same stable order either way; numpy radix-sorts 16-bit keys.
            keys = flat.astype(np.uint16) if self.n_nodes <= 1 << 16 else flat
            inv_samples = self.entry_samples()[np.argsort(keys, kind="stable")]
            inv_offsets = np.zeros(self.n_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(flat, minlength=self.n_nodes), out=inv_offsets[1:])
            self._inverted_cache = (inv_samples, inv_offsets)
        return self._inverted_cache

    def average_size(self) -> float:
        """Mean RR-set size (diagnostic; drives memory/time estimates)."""
        if not self._members:
            return 0.0
        flat, _ = self.flat()
        return len(flat) / len(self._members)

    def total_entries(self, prefix: int | None = None) -> int:
        """Total member entries in the first ``prefix`` samples."""
        flat, offsets = self.flat()
        if prefix is None:
            return int(offsets[-1])
        prefix = min(prefix, len(self))
        return int(offsets[prefix])
