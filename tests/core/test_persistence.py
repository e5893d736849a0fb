"""Tests for repro.core.persistence (RIS-DA and MIA-DA index save/load)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.core.multi_location import multi_location_query
from repro.core.persistence import (
    assemble_ris_index,
    load_index,
    load_mia_index,
    load_ris_index,
    ris_index_arrays,
    save_mia_index,
    save_ris_index,
)
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.exceptions import DataFormatError, SamplingError
from repro.geo.weights import DistanceDecay
from repro.network.generators import GeoSocialConfig, generate_geo_social_network

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


@pytest.fixture(scope="module")
def net():
    return generate_geo_social_network(
        GeoSocialConfig(n=150, avg_out_degree=4.0, extent=100.0, city_std=8.0),
        seed=71,
    )


@pytest.fixture(scope="module")
def index(net):
    cfg = RisDaConfig(
        k_max=6, n_pivots=8, epsilon_pivot=0.4, max_index_samples=10_000,
        seed=9,
    )
    return RisDaIndex(net, DistanceDecay(alpha=0.03), cfg)


class TestRoundTrip:
    def test_identical_query_results(self, net, index, tmp_path):
        path = tmp_path / "index.npz"
        save_ris_index(index, path)
        loaded = load_ris_index(path, net)
        for q in [(10.0, 10.0), (50.0, 80.0), (90.0, 20.0)]:
            a = index.query(q, 4)
            b = loaded.query(q, 4)
            assert a.seeds == b.seeds
            assert a.estimate == pytest.approx(b.estimate)
            assert a.samples_used == b.samples_used

    def test_metadata_preserved(self, net, index, tmp_path):
        path = tmp_path / "index.npz"
        save_ris_index(index, path)
        loaded = load_ris_index(path, net)
        assert loaded.k_max == index.k_max
        assert loaded.truncated == index.truncated
        assert loaded.config == index.config
        assert loaded.decay.alpha == index.decay.alpha
        assert np.array_equal(loaded.pivots, index.pivots)
        assert np.allclose(loaded.pivot_estimates, index.pivot_estimates)
        assert len(loaded.corpus) == len(index.corpus)

    def test_corpus_members_preserved(self, net, index, tmp_path):
        path = tmp_path / "index.npz"
        save_ris_index(index, path)
        loaded = load_ris_index(path, net)
        for i in range(0, len(index.corpus), 997):
            assert np.array_equal(
                loaded.corpus.members(i), index.corpus.members(i)
            )

    def test_wrong_network_rejected(self, index, tmp_path):
        path = tmp_path / "index.npz"
        save_ris_index(index, path)
        other = generate_geo_social_network(
            GeoSocialConfig(n=80, avg_out_degree=3.0, extent=50.0), seed=1
        )
        with pytest.raises(DataFormatError, match="built over a graph"):
            load_ris_index(path, other)

    def test_lemma8_premise_rederived(self, net, tmp_path):
        """Which pivots may transfer by Lemma 8 is no file field: the
        loader derives it from the pivot bounds and the config, as the
        build did.  This cap cuts some pivots' prefixes but not all."""
        built = RisDaIndex(net, DistanceDecay(alpha=0.03), RisDaConfig(
            k_max=4, n_pivots=6, epsilon_pivot=0.4,
            max_index_samples=16_000, seed=3,
        ))
        assert 0 < built.lemma8_ok.sum() < len(built.pivots)
        save_ris_index(built, tmp_path / "index.npz")
        loaded = load_ris_index(tmp_path / "index.npz", net)
        assert np.array_equal(loaded.lemma8_ok, built.lemma8_ok)

    def test_diagnostics_still_work(self, net, index, tmp_path):
        path = tmp_path / "index.npz"
        save_ris_index(index, path)
        loaded = load_ris_index(path, net)
        res, diag = loaded.query((30.0, 30.0), 3, return_diagnostics=True)
        assert diag.lower_bound > 0
        assert res.k == 3


class TestSuffixNormalisation:
    """np.savez appends .npz; save/load must agree on the final name."""

    def test_suffixless_round_trip(self, net, index, tmp_path):
        path = tmp_path / "index"  # no .npz
        save_ris_index(index, path)
        assert (tmp_path / "index.npz").exists()
        loaded = load_ris_index(path, net)
        a = index.query((40.0, 60.0), 4)
        b = loaded.query((40.0, 60.0), 4)
        assert a.seeds == b.seeds

    def test_mixed_suffix_round_trip(self, net, index, tmp_path):
        save_ris_index(index, tmp_path / "mixed")
        loaded = load_ris_index(tmp_path / "mixed.npz", net)
        assert len(loaded.corpus) == len(index.corpus)
        save_ris_index(index, tmp_path / "other.npz")
        loaded = load_ris_index(tmp_path / "other", net)
        assert len(loaded.corpus) == len(index.corpus)

    def test_non_npz_suffix_round_trip(self, net, index, tmp_path):
        """A dotted name like index.v2 gets .npz appended, not replaced."""
        save_ris_index(index, tmp_path / "index.v2")
        assert (tmp_path / "index.v2.npz").exists()
        loaded = load_ris_index(tmp_path / "index.v2", net)
        assert len(loaded.corpus) == len(index.corpus)


def _corpus_bytes(index):
    flat, offsets = index.corpus.flat()
    return (
        index.corpus.roots.tobytes(),
        flat.tobytes(),
        offsets.tobytes(),
    )


class TestLtAndTruncatedRoundTrip:
    def test_lt_index_round_trip(self, net, tmp_path):
        cfg = RisDaConfig(
            k_max=4, n_pivots=6, epsilon_pivot=0.4,
            max_index_samples=6_000, diffusion="lt", seed=13,
        )
        index = RisDaIndex(net, DistanceDecay(alpha=0.03), cfg)
        save_ris_index(index, tmp_path / "lt_index.npz")
        loaded = load_ris_index(tmp_path / "lt_index.npz", net)
        assert loaded.config.diffusion == "lt"
        assert loaded.sampler.diffusion == "lt"
        assert loaded.truncated == index.truncated
        assert loaded.index_samples_required == index.index_samples_required
        assert _corpus_bytes(loaded) == _corpus_bytes(index)
        for q in [(20.0, 20.0), (70.0, 55.0)]:
            a = index.query(q, 3)
            b = loaded.query(q, 3)
            assert a.seeds == b.seeds
            assert a.estimate == b.estimate
            assert a.samples_used == b.samples_used

    def test_truncated_index_round_trip(self, net, tmp_path):
        cfg = RisDaConfig(
            k_max=5, n_pivots=6, epsilon_pivot=0.4,
            max_index_samples=300, seed=17,
        )
        index = RisDaIndex(net, DistanceDecay(alpha=0.03), cfg)
        assert index.truncated, "fixture must engage max_index_samples"
        assert len(index.corpus) == 300
        save_ris_index(index, tmp_path / "truncated.npz")
        loaded = load_ris_index(tmp_path / "truncated.npz", net)
        assert loaded.truncated is True
        assert loaded.index_samples_required == index.index_samples_required
        assert loaded.index_samples_required > loaded.config.max_index_samples
        assert _corpus_bytes(loaded) == _corpus_bytes(index)
        for q in [(15.0, 85.0), (60.0, 30.0)]:
            a, diag_a = index.query(q, 4, return_diagnostics=True)
            b, diag_b = loaded.query(q, 4, return_diagnostics=True)
            assert a.seeds == b.seeds
            assert a.estimate == b.estimate
            assert diag_a == diag_b


def _rewrite_npz(src, dst, edit):
    """Copy a saved index, letting ``edit(meta, arrays)`` tamper with it."""
    with np.load(src) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(arrays.pop("meta").tobytes().decode("utf-8"))
    edit(meta, arrays)
    np.savez_compressed(
        dst,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        **arrays,
    )


class TestLegacyAndTamperedFiles:
    @pytest.fixture
    def saved(self, index, tmp_path):
        path = tmp_path / "index.npz"
        save_ris_index(index, path)
        return path

    def test_keyless_file_answers_as_saved(self, net, index, saved, tmp_path):
        """A file without slot keys (saved before keys existed, or by a
        worker-pool or LT build) loads with byte-equal answers."""
        legacy = tmp_path / "legacy.npz"
        _rewrite_npz(saved, legacy, lambda meta, arrays: arrays.pop("corpus_keys"))
        loaded = load_ris_index(legacy, net)
        assert not loaded.corpus.keyed
        assert _corpus_bytes(loaded) == _corpus_bytes(index)
        for q in [(10.0, 10.0), (50.0, 80.0), (90.0, 20.0)]:
            a, diag_a = index.query(q, 5, return_diagnostics=True)
            b, diag_b = loaded.query(q, 5, return_diagnostics=True)
            assert a.seeds == b.seeds
            assert a.estimate == b.estimate
            assert diag_a == diag_b

    def test_config_n_workers_ignored(self, net, index, saved, tmp_path):
        """Files from builds that still had a worker pool carry
        ``n_workers`` in their config; it no longer means anything."""
        older = tmp_path / "workers.npz"
        _rewrite_npz(
            saved, older,
            lambda meta, arrays: meta["config"].update(n_workers=2),
        )
        loaded = load_ris_index(older, net)
        assert loaded.config == index.config
        assert _corpus_bytes(loaded) == _corpus_bytes(index)

    @pytest.mark.parametrize("selection", ["eager", "lazy"])
    def test_config_selection_ignored(
        self, net, index, saved, tmp_path, selection
    ):
        """Files from builds that still had a selector knob carry
        ``selection`` in their config; every selector picked the same
        seeds, so either value loads and answers bit-identically."""
        older = tmp_path / "selection.npz"
        _rewrite_npz(
            saved, older,
            lambda meta, arrays: meta["config"].update(selection=selection),
        )
        loaded = load_ris_index(older, net)
        assert loaded.config == index.config
        for q in [(10.0, 10.0), (50.0, 80.0), (90.0, 20.0)]:
            a, diag_a = index.query(q, 5, return_diagnostics=True)
            b, diag_b = loaded.query(q, 5, return_diagnostics=True)
            assert a.seeds == b.seeds
            assert a.estimate == b.estimate
            assert diag_a == diag_b

    def test_saved_config_has_no_selection(self, saved):
        with np.load(saved) as data:
            meta = json.loads(data["meta"].tobytes().decode("utf-8"))
        assert "selection" not in meta["config"]

    def test_saved_config_holds_only_build_parameters(self, saved):
        """The kernel backend is a host property and pivots are always
        uniform, so neither is written into the file's config."""
        with np.load(saved) as data:
            meta = json.loads(data["meta"].tobytes().decode("utf-8"))
        assert set(meta["config"]) == {
            "k_max", "n_pivots", "epsilon_pivot", "delta_pivot", "epsilon",
            "delta", "max_index_samples", "lb_k_grid", "diffusion", "seed",
        }

    @pytest.mark.parametrize("tamper", ["duplicate", "negative"])
    def test_bad_slot_keys_rejected(self, net, saved, tmp_path, tamper):
        def edit(meta, arrays):
            keys = arrays["corpus_keys"].copy()
            keys[1] = keys[0] if tamper == "duplicate" else -5
            arrays["corpus_keys"] = keys

        bad = tmp_path / "bad.npz"
        _rewrite_npz(saved, bad, edit)
        with pytest.raises(SamplingError, match="keys"):
            load_ris_index(bad, net)


#: A RIS-DA index saved (format version 1) by a build whose config still
#: carried a kernel-backend request ("auto") and a pivot-placement choice
#: (density-placed pivots), beside that build's answers to every query
#: kind.  Saved at commit 62a7226 over the module's ``net`` with
#: ``RisDaConfig(k_max=6, n_pivots=8, epsilon_pivot=0.4,
#: max_index_samples=8000, seed=9)`` and ``DistanceDecay(alpha=0.03)``.
_LEGACY = Path(__file__).parent / "data" / "ris_v1_legacy_config.npz"
_LEGACY_ANSWERS = _LEGACY.with_name("ris_v1_legacy_config_answers.json")
_LEGACY_LOCS = [(10.0, 10.0), (50.0, 80.0), (90.0, 20.0)]


def _answer_record(result, diag=None) -> dict:
    record = {"seeds": [int(s) for s in result.seeds],
              "estimate": result.estimate}
    if diag is not None:
        record["diag"] = {
            name: getattr(diag, name)
            for name in ("pivot_index", "pivot_distance", "lower_bound",
                         "samples_required", "samples_used", "guarantee_met")
        }
    return record


class TestPortableLegacyConfig:
    """Older files carry the build host's kernel-backend request and the
    pivot placement in their config.  Neither changes an answer, so every
    such file loads on any host and answers exactly as it was saved."""

    @pytest.mark.parametrize("backend", ["auto", "numpy", "numba"])
    def test_loads_and_answers_every_kind_as_saved(
        self, net, tmp_path, backend
    ):
        path = tmp_path / "legacy.npz"
        _rewrite_npz(
            _LEGACY, path,
            lambda meta, arrays: meta["config"].update(kernel_backend=backend),
        )
        loaded = load_ris_index(path, net)
        n = net.n
        mask = (np.arange(n) % 3 == 0).astype(float)
        costs = 0.5 + (np.arange(n) % 4) * 0.5
        got = {
            "point": [_answer_record(*loaded.query(q, 5, return_diagnostics=True))
                      for q in _LEGACY_LOCS],
            "targeted": [
                _answer_record(*loaded.query_masked(
                    q, 4, mask, return_diagnostics=True))
                for q in _LEGACY_LOCS
            ],
            "budgeted": [
                _answer_record(*loaded.query_budgeted(
                    q, 4.0, costs, return_diagnostics=True))
                for q in _LEGACY_LOCS
            ],
            "trajectory": [
                _answer_record(r, d) for r, d in loaded.query_trajectory(
                    _LEGACY_LOCS, 4, return_diagnostics=True)
            ],
            "multi_location": [
                _answer_record(multi_location_query(loaded, _LEGACY_LOCS, 4))
            ],
        }
        assert got == json.loads(_LEGACY_ANSWERS.read_text())


@pytest.fixture(scope="module")
def mia_index(net):
    cfg = MiaDaConfig(
        theta=0.03, n_anchors=16, tau=64, n_heavy=20, seed=5,
    )
    return MiaDaIndex(net, DistanceDecay(alpha=0.03), cfg)


class TestMiaRoundTrip:
    def test_identical_query_results(self, net, mia_index, tmp_path):
        path = tmp_path / "mia.npz"
        save_mia_index(mia_index, path)
        loaded = load_mia_index(path, net)
        for q in [(10.0, 10.0), (50.0, 80.0), (90.0, 20.0), (500.0, 500.0)]:
            a = mia_index.query(q, 4)
            b = loaded.query(q, 4)
            assert a.seeds == b.seeds
            assert a.estimate == b.estimate
            assert a.evaluations == b.evaluations

    def test_flat_arrays_byte_identical(self, net, mia_index, tmp_path):
        path = tmp_path / "mia.npz"
        save_mia_index(mia_index, path)
        loaded = load_mia_index(path, net)
        for a, b in zip(mia_index.model.flat_trees(), loaded.model.flat_trees()):
            assert a.tobytes() == b.tobytes()

    def test_loaded_forest_answers_every_kind_identically(
        self, net, mia_index, tmp_path
    ):
        from repro.mia.forest import FlatForest

        path = tmp_path / "mia.npz"
        save_mia_index(mia_index, path)
        loaded = load_mia_index(path, net)
        for name in FlatForest.__dataclass_fields__:
            assert np.array_equal(
                getattr(mia_index.model.forest, name),
                getattr(loaded.model.forest, name),
            ), name
        rng = np.random.default_rng(4)
        mask = rng.random(net.n)
        costs = rng.uniform(0.5, 2.0, net.n)
        for q in [(10.0, 10.0), (50.0, 80.0), (90.0, 20.0)]:
            for run in (
                lambda ix: ix.query(q, 6, return_diagnostics=True),
                lambda ix: ix.query_masked(q, 4, mask, return_diagnostics=True),
                lambda ix: ix.query_budgeted(q, 4.0, costs,
                                             return_diagnostics=True),
            ):
                (a, da), (b, db) = run(mia_index), run(loaded)
                assert (a.seeds, a.estimate, a.evaluations, da.heap_pops) == (
                    b.seeds, b.estimate, b.evaluations, db.heap_pops
                )

    def test_bound_structures_preserved(self, net, mia_index, tmp_path):
        path = tmp_path / "mia.npz"
        save_mia_index(mia_index, path)
        loaded = load_mia_index(path, net)
        assert np.array_equal(
            loaded.anchor_bounds.anchors, mia_index.anchor_bounds.anchors
        )
        assert np.array_equal(
            loaded.anchor_bounds.influence, mia_index.anchor_bounds.influence
        )
        assert np.array_equal(
            loaded.anchor_bounds.mass, mia_index.anchor_bounds.mass
        )
        assert np.array_equal(
            loaded.region_bounds.nodes, mia_index.region_bounds.nodes
        )
        for q in [(25.0, 25.0), (-40.0, 160.0)]:
            lo_a, hi_a = mia_index.node_bounds(q)
            lo_b, hi_b = loaded.node_bounds(q)
            assert np.array_equal(lo_a, lo_b)
            assert np.array_equal(hi_a, hi_b)

    def test_config_and_decay_preserved(self, net, mia_index, tmp_path):
        path = tmp_path / "mia.npz"
        save_mia_index(mia_index, path)
        loaded = load_mia_index(path, net)
        assert loaded.config == mia_index.config
        assert loaded.decay.alpha == mia_index.decay.alpha
        assert loaded.decay.c == mia_index.decay.c

    def test_default_n_heavy_round_trips(self, net, tmp_path):
        index = MiaDaIndex(
            net,
            DistanceDecay(alpha=0.03),
            MiaDaConfig(theta=0.03, n_anchors=8, tau=32),  # n_heavy=None
        )
        save_mia_index(index, tmp_path / "auto_heavy.npz")
        loaded = load_mia_index(tmp_path / "auto_heavy.npz", net)
        assert loaded.config.n_heavy is None
        assert np.array_equal(
            loaded.region_bounds.nodes, index.region_bounds.nodes
        )

    def test_suffixless_round_trip(self, net, mia_index, tmp_path):
        save_mia_index(mia_index, tmp_path / "mia")  # no .npz
        assert (tmp_path / "mia.npz").exists()
        loaded = load_mia_index(tmp_path / "mia", net)
        assert loaded.query((40.0, 60.0), 4).seeds == mia_index.query(
            (40.0, 60.0), 4
        ).seeds

    def test_config_n_workers_ignored(self, net, mia_index, tmp_path):
        """Files from builds that still had a worker pool carry
        ``n_workers`` in their config; it no longer means anything."""
        saved = tmp_path / "mia.npz"
        save_mia_index(mia_index, saved)
        older = tmp_path / "workers.npz"
        _rewrite_npz(
            saved, older,
            lambda meta, arrays: meta["config"].update(n_workers=2),
        )
        loaded = load_mia_index(older, net)
        assert loaded.config == mia_index.config
        for a, b in zip(mia_index.model.flat_trees(), loaded.model.flat_trees()):
            assert a.tobytes() == b.tobytes()

    def test_saved_config_has_no_n_workers(self, mia_index, tmp_path):
        path = tmp_path / "mia.npz"
        save_mia_index(mia_index, path)
        with np.load(path) as data:
            meta = json.loads(data["meta"].tobytes().decode("utf-8"))
        assert "n_workers" not in meta["config"]

    def test_wrong_network_rejected(self, mia_index, tmp_path):
        path = tmp_path / "mia.npz"
        save_mia_index(mia_index, path)
        other = generate_geo_social_network(
            GeoSocialConfig(n=80, avg_out_degree=3.0, extent=50.0), seed=1
        )
        with pytest.raises(DataFormatError, match="built over a graph"):
            load_mia_index(path, other)


class TestKindCrossCheck:
    """Each loader must reject the other format with a clear message."""

    def test_ris_loader_rejects_mia_file(self, net, mia_index, tmp_path):
        path = tmp_path / "mia.npz"
        save_mia_index(mia_index, path)
        with pytest.raises(DataFormatError, match="not a RIS-DA"):
            load_ris_index(path, net)

    def test_mia_loader_rejects_ris_file(self, net, index, tmp_path):
        path = tmp_path / "ris.npz"
        save_ris_index(index, path)
        with pytest.raises(DataFormatError, match="not a MIA-DA"):
            load_mia_index(path, net)


def _set(key, value, section=None):
    def edit(meta, arrays):
        (meta if section is None else meta[section])[key] = value
    return edit


def _narrow(name):
    def edit(meta, arrays):
        arrays[name] = arrays[name][:, :2]
    return edit


def _nan(name):
    def edit(meta, arrays):
        arrays[name] = np.full_like(arrays[name], np.nan)
    return edit


def _set_entry(name, position, value):
    """Set one corpus array entry; ``value(meta)`` may read ``n_nodes``."""
    def edit(meta, arrays):
        arr = arrays[name].copy()
        arr[position] = value(meta)
        arrays[name] = arr
    return edit


def _swap_offsets(meta, arrays):
    offsets = arrays["corpus_offsets"].copy()
    i = int(np.flatnonzero(np.diff(offsets[1:]) > 0)[0]) + 1
    offsets[i], offsets[i + 1] = offsets[i + 1], offsets[i]
    arrays["corpus_offsets"] = offsets


def _repeat_member(meta, arrays):
    flat, offsets = arrays["corpus_flat"].copy(), arrays["corpus_offsets"]
    i = int(np.flatnonzero(np.diff(offsets) >= 2)[0])
    flat[offsets[i] + 1] = flat[offsets[i]]
    arrays["corpus_flat"] = flat


def _float_flat(meta, arrays):
    arrays["corpus_flat"] = arrays["corpus_flat"].astype(np.float64)


#: (index kind, tampering) pairs a loader must refuse with a typed error.
MALFORMED = {
    "ris-flat-member-too-large": (
        "ris", _set_entry("corpus_flat", 0, lambda meta: meta["n_nodes"])),
    "ris-flat-member-negative": (
        "ris", _set_entry("corpus_flat", 0, lambda meta: -1)),
    "ris-offsets-swapped": ("ris", _swap_offsets),
    "ris-root-too-large": (
        "ris", _set_entry("corpus_roots", 0, lambda meta: meta["n_nodes"])),
    "ris-float-flat": ("ris", _float_flat),
    "ris-flat-repeated-member": ("ris", _repeat_member),
    "ris-no-config": ("ris", lambda meta, arrays: meta.pop("config")),
    "ris-no-decay": ("ris", lambda meta, arrays: meta.pop("decay")),
    "ris-no-config-field": (
        "ris", lambda meta, arrays: meta["config"].pop("n_pivots")),
    "ris-no-array": ("ris", lambda meta, arrays: arrays.pop("corpus_flat")),
    "ris-string-k-max": ("ris", _set("k_max", "7")),
    "ris-string-config-k-max": ("ris", _set("k_max", "7", "config")),
    "ris-narrow-estimates": ("ris", _narrow("pivot_estimates")),
    "ris-narrow-lower-bounds": ("ris", _narrow("pivot_lower_bounds")),
    "ris-nan-lower-bounds": ("ris", _nan("pivot_lower_bounds")),
    "mia-no-config": ("mia", lambda meta, arrays: meta.pop("config")),
    "mia-no-decay": ("mia", lambda meta, arrays: meta.pop("decay")),
    "mia-no-config-field": (
        "mia", lambda meta, arrays: meta["config"].pop("tau")),
    "mia-no-array": ("mia", lambda meta, arrays: arrays.pop("anchors")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_index_rejected(net, index, mia_index, tmp_path, case):
    """A hand-edited or truncated index file fails to load with
    DataFormatError — never a bare KeyError/TypeError, and never a
    silent load that breaks at query time (a pivot table narrower than
    ``k_max`` used to load and raise IndexError on ``query(q, 4)``)."""
    kind, tamper = MALFORMED[case]
    good = tmp_path / "good.npz"
    if kind == "ris":
        save_ris_index(index, good)
    else:
        save_mia_index(mia_index, good)
    bad = tmp_path / "bad.npz"
    _rewrite_npz(good, bad, tamper)
    with pytest.raises(DataFormatError):
        load_index(bad, net)


if HAVE_HYPOTHESIS:

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["corpus_roots", "corpus_flat", "corpus_offsets"]),
        position=st.integers(0, 2**31),
        value=st.integers(-4, 4),
        mode=st.sampled_from(["set", "shift", "truncate", "float"]),
    )
    def test_corrupt_corpus_arrays_never_load_broken(
        net, index, name, position, value, mode
    ):
        """A corrupted corpus array either fails to load with
        DataFormatError or loads into an index that still answers — never
        a bare ValueError/IndexError, at load or at query time."""
        meta, arrays = ris_index_arrays(index)
        arrays = dict(arrays)
        arr = arrays[name].copy()
        i = position % len(arr)
        if mode == "set":
            arr[i] = value if value < 0 else net.n - 1 + value
        elif mode == "shift":
            arr[i] += value
        elif mode == "truncate":
            arr = arr[:i]
        else:
            arr = arr.astype(np.float64) + 0.5 * (value != 0)
        arrays[name] = arr
        try:
            loaded = assemble_ris_index(net, meta, arrays)
        except DataFormatError:
            return
        result = loaded.query((50.0, 50.0), 4)
        assert len(result.seeds) == 4
