"""Persistence for the RIS-DA and MIA-DA offline indexes.

Index construction is the expensive phase — minutes of RR-set sampling
for RIS-DA, one theta-pruned Dijkstra *per node* for MIA-DA — so a
production deployment builds once and serves many processes.
:func:`save_ris_index` / :func:`load_ris_index` round-trip everything the
RIS online phase needs (pivots, pivot estimates, the sample corpus, the
configuration); :func:`save_mia_index` / :func:`load_mia_index` do the
same for MIA-DA (all arborescences as flat CSR arrays, anchor locations
with their influence matrix and mass vector, and the per-heavy-node
region masses).  Each format is one versioned ``.npz`` file.

The network itself is *not* stored (persist it with
:func:`repro.network.io.write_network`); loading validates that the
supplied network matches the saved index by node/edge counts, and each
loader rejects the other's files by the ``kind`` tag in the metadata.

Reading and assembly are deliberately split: :func:`read_index_arrays`
returns the raw ``(kind, meta, arrays)`` triple, and
:func:`assemble_ris_index` / :func:`assemble_mia_index` (dispatched by
:func:`assemble_index`) rebuild a queryable index around *any* mapping
of flat arrays — freshly decompressed, ``np.memmap``'d, or views over
:mod:`multiprocessing.shared_memory` segments.  The multi-process
serving pool relies on this: each pre-forked worker attaches to the
parent's shared segments and assembles its index zero-copy, instead of
deserialising the ``.npz`` once per process.
"""

from __future__ import annotations

import json
import operator
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Mapping, Tuple, Union

import numpy as np

from repro.core.bounds import AnchorBounds, RegionBounds
from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.exceptions import (
    CorpusFormatError,
    DataFormatError,
    GeometryError,
    QueryError,
    SamplingError,
)
from repro.geo.grid import UniformGrid
from repro.geo.kdtree import KDTree
from repro.geo.weights import DistanceDecay
from repro.kernels import resolve_backend
from repro.mia.pmia import MiaModel
from repro.network.graph import GeoSocialNetwork
from repro.ris.corpus import RRCorpus

PathLike = Union[str, Path]

_FORMAT_VERSION = 1
_MIA_FORMAT_VERSION = 1


def _with_npz_suffix(path: PathLike) -> Path:
    """``path`` with the ``.npz`` suffix ``np.savez`` would give it.

    ``np.savez_compressed`` appends ``.npz`` to any filename not already
    ending in it, so ``save_ris_index(idx, "index")`` writes
    ``index.npz``.  Both save and load normalise through this helper so a
    suffixless path round-trips.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


@contextmanager
def _malformed(source: str) -> Iterator[None]:
    """Turn a missing or mistyped meta field or array into a typed error.

    Wraps the parse phase of the ``assemble_*`` loaders: a hand-edited,
    truncated or foreign file must fail with :class:`DataFormatError`
    naming the problem, never a bare ``KeyError``/``TypeError`` — nor
    load and fail later, at query time.
    """
    try:
        yield
    except KeyError as exc:
        raise DataFormatError(f"{source} is missing field {exc}") from exc
    except SamplingError as exc:
        raise CorpusFormatError(f"{source} has a corrupt corpus: {exc}") from exc
    except (TypeError, ValueError, QueryError, GeometryError) as exc:
        raise DataFormatError(f"{source} is malformed: {exc}") from exc


def _check_graph(meta: dict, network: GeoSocialNetwork) -> None:
    if meta["n_nodes"] != network.n or meta["n_edges"] != network.m:
        raise DataFormatError(
            f"index was built over a graph with {meta['n_nodes']} nodes "
            f"/ {meta['n_edges']} edges; got {network.n} / {network.m}"
        )


def _decay(meta: dict) -> DistanceDecay:
    return DistanceDecay(
        c=float(meta["decay"]["c"]),
        alpha=float(meta["decay"]["alpha"]),
        metric=meta["decay"]["metric"],
    )


def peek_index_kind(path: PathLike) -> str:
    """The ``kind`` tag (``"ris"`` or ``"mia"``) of a saved index file.

    Reads only the JSON metadata member, so callers (the serving layer's
    index cache, CLI dispatch) can pick the matching loader without paying
    for the array payload.  Files predating the ``kind`` tag are all RIS
    indexes.
    """
    path = _with_npz_suffix(path)
    with np.load(path) as data:
        if "meta" not in data:
            raise DataFormatError(f"{path} is not a repro index file")
        meta = json.loads(bytes(data["meta"].tobytes()).decode("utf-8"))
    return meta.get("kind", "ris")


def read_index_arrays(
    path: PathLike,
) -> Tuple[str, dict, Dict[str, np.ndarray]]:
    """The raw content of a saved index: ``(kind, meta, arrays)``.

    ``arrays`` maps every non-``meta`` member of the ``.npz`` to its
    fully materialised array.  This is the read half of loading; pair it
    with :func:`assemble_index` to get a queryable index, or hand the
    arrays to the serving pool's shared-memory layer so many processes
    can assemble against one copy.
    """
    path = _with_npz_suffix(path)
    with np.load(path) as data:
        if "meta" not in data:
            raise DataFormatError(f"{path} is not a repro index file")
        meta = json.loads(bytes(data["meta"].tobytes()).decode("utf-8"))
        arrays = {name: data[name] for name in data.files if name != "meta"}
    return meta.get("kind", "ris"), meta, arrays


def assemble_index(
    kind: str,
    network: GeoSocialNetwork,
    meta: dict,
    arrays: Mapping[str, np.ndarray],
    source: str = "index arrays",
) -> Union[RisDaIndex, MiaDaIndex]:
    """Rebuild an index of ``kind`` from its meta + flat arrays."""
    if kind == "ris":
        return assemble_ris_index(network, meta, arrays, source)
    if kind == "mia":
        return assemble_mia_index(network, meta, arrays, source)
    raise DataFormatError(f"{source} holds an unknown index kind {kind!r}")


def load_index(
    path: PathLike, network: GeoSocialNetwork
) -> tuple[str, Union[RisDaIndex, MiaDaIndex]]:
    """Load a saved index of either kind; returns ``(kind, index)``.

    Dispatches on the file's ``kind`` tag, so callers that accept both
    (the query engine, ``serve-batch``) need no a-priori knowledge of
    what was saved.  The file is read once (no separate peek pass).
    """
    kind, meta, arrays = read_index_arrays(path)
    return kind, assemble_index(
        kind, network, meta, arrays, source=str(_with_npz_suffix(path))
    )


def index_arrays(
    index: Union[RisDaIndex, MiaDaIndex],
) -> Tuple[str, dict, Dict[str, np.ndarray]]:
    """An in-memory index as its ``(kind, meta, arrays)`` triple.

    The same flat layout the savers write and :func:`assemble_index`
    reads — without touching disk.  The streaming serving pool uses this
    to republish an updated in-memory index into shared memory (and to
    diff which arrays actually changed, so untouched segments are
    reused).
    """
    if isinstance(index, RisDaIndex):
        meta, arrays = ris_index_arrays(index)
        return "ris", meta, arrays
    if isinstance(index, MiaDaIndex):
        meta, arrays = mia_index_arrays(index)
        return "mia", meta, arrays
    raise DataFormatError(
        f"cannot serialise index of type {type(index).__name__}"
    )


def ris_index_arrays(
    index: RisDaIndex,
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """The ``(meta, arrays)`` of a RIS-DA index (shared save/publish path)."""
    flat, offsets = index.corpus.flat()
    meta = {
        "format_version": _FORMAT_VERSION,
        "kind": "ris",
        "n_nodes": index.network.n,
        "n_edges": index.network.m,
        "k_max": index.k_max,
        "truncated": bool(index.truncated),
        "index_samples_required": int(index.index_samples_required),
        "generation": int(getattr(index, "generation", 0)),
        "decay": {
            "c": index.decay.c,
            "alpha": index.decay.alpha,
            "metric": index.decay.metric
            if isinstance(index.decay.metric, str)
            else "euclidean",
        },
        "config": {
            "k_max": index.config.k_max,
            "n_pivots": index.config.n_pivots,
            "epsilon_pivot": index.config.epsilon_pivot,
            "delta_pivot": index.config.delta_pivot,
            "epsilon": index.config.epsilon,
            "delta": index.config.delta,
            "max_index_samples": index.config.max_index_samples,
            "lb_k_grid": index.config.lb_k_grid,
            "diffusion": index.config.diffusion,
            "seed": index.config.seed,
        },
    }
    arrays = {
        "pivots": index.pivots,
        "pivot_estimates": index.pivot_estimates,
        "pivot_lower_bounds": index.pivot_lower_bounds,
        "corpus_roots": index.corpus.roots,
        "corpus_flat": flat,
        "corpus_offsets": offsets,
    }
    keys = index.corpus.keys
    if keys is not None:
        # Per-slot randomness keys: without them a restored index must
        # re-key its whole corpus on the first update.
        arrays["corpus_keys"] = keys
    return meta, arrays


def save_ris_index(index: RisDaIndex, path: PathLike) -> None:
    """Serialise a built RIS-DA index to ``path`` (``.npz``).

    A missing ``.npz`` suffix is appended, matching what
    :func:`numpy.savez_compressed` writes; :func:`load_ris_index` applies
    the same normalisation, so save/load agree on the file name either
    way.
    """
    path = _with_npz_suffix(path)
    meta, arrays = ris_index_arrays(index)
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        **arrays,
    )


def load_ris_index(path: PathLike, network: GeoSocialNetwork) -> RisDaIndex:
    """Restore a RIS-DA index saved by :func:`save_ris_index`.

    ``network`` must be the same graph the index was built over (checked
    by node/edge counts).  The returned index answers queries exactly as
    the original did.  Keyed corpora also grow and regenerate
    deterministically after the round-trip — the stored slot keys plus
    the config seed reconstruct every slot's randomness.  Keyless files
    (saved before slot keys existed, or by a build with a sequential or
    worker-pool sampler) load and answer as saved, and are re-keyed
    wholesale on their first :meth:`~RisDaIndex.update`.  Config keys
    older files carry and this build no longer reads (a kernel-backend
    request, the pivot placement, ``selection``, ``n_workers``) are
    ignored: the loading host picks its own kernel backend, and the
    stored pivots are used however they were placed.  Corpus arrays
    out of shape or range — non-integer, decreasing offsets, node ids
    outside ``[0, n)``, negative or repeated slot keys — raise
    :class:`~repro.exceptions.CorpusFormatError`, a
    :class:`~repro.exceptions.DataFormatError` that is also a
    :class:`~repro.exceptions.SamplingError`.
    """
    path = _with_npz_suffix(path)
    _, meta, arrays = read_index_arrays(path)
    return assemble_ris_index(network, meta, arrays, source=str(path))


def assemble_ris_index(
    network: GeoSocialNetwork,
    meta: dict,
    arrays: Mapping[str, np.ndarray],
    source: str = "index arrays",
) -> RisDaIndex:
    """Rebuild a RIS-DA index from its meta dict and flat arrays.

    ``arrays`` holds the members :func:`save_ris_index` writes; they are
    wrapped, not copied, so memmap'd or shared-memory-backed arrays stay
    zero-copy (the corpus keeps views into ``corpus_flat``).  Derived
    structures (pivot k-d tree, inverted corpus index) are rebuilt
    per process — they are not part of the stored layout.
    """
    # Pre-"kind" files are all RIS indexes, hence the default.
    if meta.get("kind", "ris") != "ris":
        raise DataFormatError(
            f"{source} holds a {meta['kind']!r} index, not a RIS-DA one "
            f"(use the matching loader)"
        )
    if meta.get("format_version") != _FORMAT_VERSION:
        raise DataFormatError(
            f"unsupported index format {meta.get('format_version')!r}"
        )
    with _malformed(source):
        _check_graph(meta, network)
        pivots = arrays["pivots"]
        pivot_estimates = arrays["pivot_estimates"]
        pivot_lower_bounds = arrays["pivot_lower_bounds"]
        roots = arrays["corpus_roots"]
        flat = arrays["corpus_flat"]
        offsets = arrays["corpus_offsets"]
        decay = _decay(meta)
        cfg_raw = meta["config"]
        config = RisDaConfig(
            k_max=cfg_raw["k_max"],
            n_pivots=cfg_raw["n_pivots"],
            epsilon_pivot=cfg_raw["epsilon_pivot"],
            delta_pivot=cfg_raw["delta_pivot"],
            epsilon=cfg_raw["epsilon"],
            delta=cfg_raw["delta"],
            max_index_samples=cfg_raw["max_index_samples"],
            lb_k_grid=cfg_raw["lb_k_grid"],
            diffusion=cfg_raw.get("diffusion", "ic"),
            seed=cfg_raw["seed"],
        )
        # operator.index: a JSON string or float here is a bad file.
        k_max = operator.index(meta["k_max"])
        truncated = bool(meta["truncated"])
        index_samples_required = int(meta["index_samples_required"])
        generation = int(meta.get("generation", 0))
        for name, table in (("pivot_estimates", pivot_estimates),
                            ("pivot_lower_bounds", pivot_lower_bounds)):
            if table.shape != (len(pivots), k_max):
                raise ValueError(
                    f"{name} has shape {table.shape}, expected "
                    f"({len(pivots)}, {k_max}) for k_max={k_max}"
                )

    # Assemble the object without re-running the build.
    index = RisDaIndex.__new__(RisDaIndex)
    index.network = network
    index.decay = decay
    index.config = config
    # Resolved per loading host, never persisted: the file may travel
    # between numba-capable and numba-less machines.
    index.kernel_backend = resolve_backend()
    index.pivots = pivots
    index._pivot_tree = KDTree(pivots)
    index.sampler = index._coupled_sampler(network)
    with _malformed(source):
        index.corpus = RRCorpus.from_arrays(
            index.sampler, roots, flat, offsets, keys=arrays.get("corpus_keys")
        )
    index.corpus.inverted()  # pay the inverted-index cost at load time
    index.pivot_estimates = pivot_estimates
    index.pivot_lower_bounds = pivot_lower_bounds
    index.k_max = k_max
    index.truncated = truncated
    index.index_samples_required = index_samples_required
    index.voronoi = None  # only needed during construction
    index.generation = generation
    index.pivot_seconds = 0.0
    index.voronoi_seconds = 0.0
    index.build_seconds = 0.0
    with _malformed(source):
        index.lemma8_ok = index._lemma8_pivots()
    return index


def mia_index_arrays(
    index: MiaDaIndex,
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """The ``(meta, arrays)`` of a MIA-DA index (shared save/publish path)."""
    members, parents, edge_probs, path_probs, offsets = index.model.flat_trees()
    region = index.region_bounds
    meta = {
        "format_version": _MIA_FORMAT_VERSION,
        "kind": "mia",
        "n_nodes": index.network.n,
        "n_edges": index.network.m,
        "generation": int(getattr(index, "generation", 0)),
        "decay": {
            "c": index.decay.c,
            "alpha": index.decay.alpha,
            "metric": index.decay.metric
            if isinstance(index.decay.metric, str)
            else "euclidean",
        },
        "config": {
            "theta": index.config.theta,
            "n_anchors": index.config.n_anchors,
            "tau": index.config.tau,
            "n_heavy": index.config.n_heavy,
            "anchor_strategy": index.config.anchor_strategy,
            "seed": index.config.seed,
        },
    }
    arrays = {
        "tree_members": members,
        "tree_parents": parents,
        "tree_edge_probs": edge_probs,
        "tree_path_probs": path_probs,
        "tree_offsets": offsets,
        "anchors": index.anchor_bounds.anchors,
        "anchor_influence": index.anchor_bounds.influence,
        "anchor_mass": index.anchor_bounds.mass,
        "region_nodes": region.nodes,
        "region_cells": region._cells,
        "region_masses": region._masses,
        "region_offsets": region._offsets,
    }
    return meta, arrays


def save_mia_index(index: MiaDaIndex, path: PathLike) -> None:
    """Serialise a built MIA-DA index to ``path`` (``.npz``).

    Stores the :class:`~repro.mia.pmia.MiaModel` arborescences as flat
    CSR arrays, the anchor locations with their influence matrix and mass
    vector, and the per-heavy-node region ``(cells, masses)`` lists.  A
    missing ``.npz`` suffix is appended, matching the RIS path's
    normalisation.
    """
    path = _with_npz_suffix(path)
    meta, arrays = mia_index_arrays(index)
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        **arrays,
    )


def load_mia_index(path: PathLike, network: GeoSocialNetwork) -> MiaDaIndex:
    """Restore a MIA-DA index saved by :func:`save_mia_index`.

    ``network`` must be the same graph the index was built over (checked
    by node/edge counts).  The returned index answers queries exactly as
    the original did: arborescences, anchor bounds, and region bounds are
    reassembled from the stored arrays without re-running any Dijkstra.
    """
    path = _with_npz_suffix(path)
    _, meta, arrays = read_index_arrays(path)
    return assemble_mia_index(network, meta, arrays, source=str(path))


def assemble_mia_index(
    network: GeoSocialNetwork,
    meta: dict,
    arrays: Mapping[str, np.ndarray],
    source: str = "index arrays",
) -> MiaDaIndex:
    """Rebuild a MIA-DA index from its meta dict and flat arrays.

    The arborescences, anchor structures, and region bounds are all
    views over the supplied arrays (no copies, no Dijkstra re-runs), so
    shared-memory or memmap'd arrays serve many processes from one
    physical copy.  Only the anchor k-d tree is rebuilt per process.
    """
    if meta.get("kind", "ris") != "mia":
        raise DataFormatError(
            f"{source} holds a {meta.get('kind', 'ris')!r} index, not a "
            f"MIA-DA one (use the matching loader)"
        )
    if meta.get("format_version") != _MIA_FORMAT_VERSION:
        raise DataFormatError(
            f"unsupported MIA index format {meta.get('format_version')!r}"
        )
    with _malformed(source):
        _check_graph(meta, network)
        flat = (
            arrays["tree_members"],
            arrays["tree_parents"],
            arrays["tree_edge_probs"],
            arrays["tree_path_probs"],
            arrays["tree_offsets"],
        )
        anchors = arrays["anchors"]
        anchor_influence = arrays["anchor_influence"]
        anchor_mass = arrays["anchor_mass"]
        region_nodes = arrays["region_nodes"]
        region_cells = arrays["region_cells"]
        region_masses = arrays["region_masses"]
        region_offsets = arrays["region_offsets"]
        decay = _decay(meta)
        cfg_raw = meta["config"]
        config = MiaDaConfig(
            theta=cfg_raw["theta"],
            n_anchors=cfg_raw["n_anchors"],
            tau=cfg_raw["tau"],
            n_heavy=cfg_raw["n_heavy"],
            anchor_strategy=cfg_raw["anchor_strategy"],
            seed=cfg_raw["seed"],
        )
        generation = int(meta.get("generation", 0))
    model = MiaModel.from_flat_trees(network, config.theta, flat)

    # Assemble the bound structures without recomputing any influences.
    anchor_bounds = AnchorBounds.__new__(AnchorBounds)
    anchor_bounds.decay = decay
    anchor_bounds.anchors = anchors
    anchor_bounds._tree = KDTree(anchors)
    anchor_bounds.influence = anchor_influence
    anchor_bounds.mass = anchor_mass

    region_bounds = RegionBounds.__new__(RegionBounds)
    region_bounds.decay = decay
    # The grid is a pure function of (bounding box, tau) — identical to
    # the build-time grid because the network is shape-validated above.
    region_bounds.grid = UniformGrid.with_cell_budget(
        network.bounding_box(), config.tau
    )
    region_bounds.nodes = region_nodes
    region_bounds._node_pos = {int(u): i for i, u in enumerate(region_nodes)}
    region_bounds._cells = region_cells
    region_bounds._masses = region_masses
    region_bounds._offsets = region_offsets

    index = MiaDaIndex.__new__(MiaDaIndex)
    index.network = network
    index.decay = decay
    index.config = config
    index.model = model
    index.anchor_bounds = anchor_bounds
    index.region_bounds = region_bounds
    index.generation = generation
    index.build_seconds = 0.0
    return index
