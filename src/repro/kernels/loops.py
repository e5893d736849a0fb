"""Nopython-compatible kernel bodies for the native backend.

Every function here is written in the numba ``nopython`` subset — plain
loops over preallocated arrays, no Python objects, no closures — but the
module itself never imports numba.  The registry
(:mod:`repro.kernels.registry`) compiles these functions with
``numba.njit`` at load time; until then (and forever on hosts without
numba) they are ordinary Python functions, which is what makes them
testable in any environment: interpreting a function here executes the
exact code the JIT compiles, so the parity suite can pin the kernel
logic against the vectorized numpy kernels without numba installed.

Parity contracts (pinned by ``tests/kernels``):

* :func:`score_build` accumulates per-node scores in flat-entry order —
  the same order ``np.bincount(flat, weights=...)`` uses — so the built
  score array is bit-identical to the numpy build.
* The selection loops reproduce the *batched* decrement float semantics
  of :func:`repro.ris.coverage.weighted_greedy_cover`: each newly
  covered sample's member weights are first summed per node (in entry
  order, like the decrement ``bincount``) and subtracted from the score
  once.  Argmax ties break toward the lowest node id (first maximum),
  exactly like ``np.argmax``.
* :func:`coupled_batch` replays the SplitMix64 coin domain of
  :class:`repro.ris.coupled.CoupledRRSampler` bit-for-bit: every coin is
  a pure integer hash of ``(seed, key, edge endpoints)``, independent of
  traversal order, so the visited set is backend-invariant by
  construction.

Caution for interpreted execution: the uint64 hashing relies on wrapping
multiplication.  Numba wraps silently; numpy scalars wrap too but may
emit ``RuntimeWarning`` — interpreted callers should run under
``np.errstate(over="ignore")`` (the registry's warm-up and the parity
tests do).
"""

from __future__ import annotations

import numpy as np

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_ROOT_SALT = np.uint64(0xD1B54A32D192ED03)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)

#: Names the registry compiles, dependency order (helpers first so the
#: jit_module-style rebinding leaves no plain-Python callee behind).
KERNEL_NAMES = (
    "mix64",
    "cover_decrement",
    "score_build",
    "greedy_select",
    "budgeted_eager_select",
    "coupled_batch",
)


def mix64(z):
    """SplitMix64 finalizer over a uint64 scalar (wrapping multiply)."""
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def score_build(flat, offsets, weights, l, n):
    """Per-node covered-weight scores over the first ``l`` samples.

    Accumulates in flat-entry order — bit-identical to the numpy
    ``np.bincount(flat_prefix, weights=entry_weight, minlength=n)``.
    """
    score = np.zeros(n, dtype=np.float64)
    for i in range(l):
        w = weights[i]
        for e in range(offsets[i], offsets[i + 1]):
            score[flat[e]] += w
    return score


def cover_decrement(
    flat, offsets, inv_samples, inv_offsets, weights, score, covered,
    seen, dec, touched, u, l,
):
    """Mark every sample of ``u`` in the prefix covered and decrement.

    Reproduces the batched numpy decrement bit-for-bit: per-node deltas
    are accumulated in entry order into ``dec`` (the ``bincount``) and
    subtracted once per touched node.  ``seen``/``dec``/``touched`` are
    caller-provided scratch (zeroed on entry, re-zeroed on exit) so the
    selection loop allocates nothing per iteration.
    """
    n_touched = 0
    for ii in range(inv_offsets[u], inv_offsets[u + 1]):
        s = inv_samples[ii]
        if s >= l:
            break  # ascending sample ids: the prefix cut
        if covered[s]:
            continue
        covered[s] = True
        w = weights[s]
        for e in range(offsets[s], offsets[s + 1]):
            node = flat[e]
            if not seen[node]:
                seen[node] = True
                touched[n_touched] = node
                n_touched += 1
            dec[node] += w
    for t in range(n_touched):
        node = touched[t]
        score[node] -= dec[node]
        dec[node] = 0.0
        seen[node] = False


def greedy_select(
    flat, offsets, inv_samples, inv_offsets, weights, score, l, k, drift_rtol
):
    """Eager greedy cover: argmax scan + batched decrement per pick.

    Mutates ``score`` in place (like the numpy kernel) and returns
    ``(seeds, gains, n_selected, covered_weight)`` with ``gains`` of
    length ``k`` (trailing zeros past an early stop).
    """
    n = score.shape[0]
    covered = np.zeros(l, dtype=np.bool_)
    seen = np.zeros(n, dtype=np.bool_)
    dec = np.zeros(n, dtype=np.float64)
    touched = np.empty(n, dtype=np.int64)
    seeds = np.empty(k, dtype=np.int64)
    gains = np.zeros(k, dtype=np.float64)
    covered_weight = 0.0
    n_sel = 0
    for it in range(k):
        u = 0
        best = score[0]
        for v in range(1, n):
            if score[v] > best:
                best = score[v]
                u = v
        gain = score[u]
        if gain <= drift_rtol * covered_weight:
            break
        seeds[n_sel] = u
        gains[n_sel] = gain
        n_sel += 1
        covered_weight += gain
        cover_decrement(
            flat, offsets, inv_samples, inv_offsets, weights, score,
            covered, seen, dec, touched, u, l,
        )
        score[u] = -np.inf
    return seeds, gains, n_sel, covered_weight


def budgeted_eager_select(
    flat, offsets, inv_samples, inv_offsets, weights, score, costs,
    budget, l, drift_rtol,
):
    """Cost-aware ratio greedy, eager scan (mirrors the numpy kernel).

    Picks the affordable node with the largest ``gain / cost`` ratio
    each round until the budget admits nothing useful.  Returns
    ``(seeds, gains, n_selected, covered_weight, cost_spent)`` with
    ``seeds``/``gains`` sized ``n`` (only the first ``n_selected``
    entries are meaningful).
    """
    n = score.shape[0]
    covered = np.zeros(l, dtype=np.bool_)
    seen = np.zeros(n, dtype=np.bool_)
    dec = np.zeros(n, dtype=np.float64)
    touched = np.empty(n, dtype=np.int64)
    seeds = np.empty(n, dtype=np.int64)
    gains = np.zeros(n, dtype=np.float64)
    covered_weight = 0.0
    remaining = budget
    cost_spent = 0.0
    n_sel = 0
    while True:
        u = -1
        best = -np.inf
        first = True
        for v in range(n):
            if costs[v] <= remaining:
                r = score[v] / costs[v]
                if first or r > best:
                    best = r
                    u = v
                    first = False
        if u < 0:
            break  # nothing affordable
        gain = score[u]
        if not np.isfinite(best):
            break
        if gain <= drift_rtol * covered_weight:
            break
        seeds[n_sel] = u
        gains[n_sel] = gain
        n_sel += 1
        covered_weight += gain
        cost_spent += costs[u]
        remaining -= costs[u]
        cover_decrement(
            flat, offsets, inv_samples, inv_offsets, weights, score,
            covered, seen, dec, touched, u, l,
        )
        score[u] = -np.inf
    return seeds, gains, n_sel, covered_weight, cost_spent


def coupled_batch(seed64, keys, in_offsets, in_sources, edge_mix, thresholds, n):
    """Counter-based coupled RR sampling over a batch of slot keys.

    For each key: derive the slot hash and root exactly as
    :meth:`repro.ris.coupled.CoupledRRSampler.regenerate` does, run the
    reverse traversal with per-edge SplitMix64 coins, and append the
    sorted member set to one growing flat buffer.  Coins are pure
    integer hashes of ``(slot, edge endpoints)`` — order-independent —
    so the visited sets are bit-identical to the numpy traversal.

    Returns ``(roots, flat_members, offsets)`` in the
    :meth:`RRCorpus.flat` layout.
    """
    count = keys.shape[0]
    roots = np.empty(count, dtype=np.int64)
    offsets = np.zeros(count + 1, dtype=np.int64)
    visited = np.zeros(n, dtype=np.bool_)
    stack = np.empty(n, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    buf = np.empty(max(1024, 4 * count), dtype=np.int64)
    total = 0
    n_u64 = np.uint64(n)
    for i in range(count):
        slot = mix64(seed64 ^ (np.uint64(keys[i]) * _GOLDEN))
        root = np.int64(mix64(slot ^ _ROOT_SALT) % n_u64)
        roots[i] = root
        visited[root] = True
        order[0] = root
        n_vis = 1
        stack[0] = root
        sp = 1
        while sp > 0:
            sp -= 1
            x = stack[sp]
            for e in range(in_offsets[x], in_offsets[x + 1]):
                coin = mix64(slot ^ edge_mix[e]) >> _S11
                if coin < thresholds[e]:
                    u = in_sources[e]
                    if not visited[u]:
                        visited[u] = True
                        order[n_vis] = u
                        n_vis += 1
                        stack[sp] = u
                        sp += 1
        members = np.sort(order[:n_vis])
        for t in range(n_vis):
            visited[order[t]] = False
        if total + n_vis > buf.shape[0]:
            grown = np.empty(
                max(2 * buf.shape[0], total + n_vis), dtype=np.int64
            )
            grown[:total] = buf[:total]
            buf = grown
        buf[total : total + n_vis] = members
        total += n_vis
        offsets[i + 1] = total
    return roots, buf[:total].copy(), offsets
