"""Tests for repro.core.persistence (RIS-DA and MIA-DA index save/load)."""

import json
import signal
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.core.multi_location import multi_location_query
from repro.core.persistence import (
    assemble_mia_index,
    assemble_ris_index,
    load_index,
    load_mia_index,
    load_ris_index,
    mia_index_arrays,
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
        # Bit-exact, the NaN rows of cut pivots included.
        assert np.array_equal(
            loaded.pivot_estimates, index.pivot_estimates, equal_nan=True
        )
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
        """There is one kernel backend and pivots are always uniform, so
        neither is written into the file's config."""
        with np.load(saved) as data:
            meta = json.loads(data["meta"].tobytes().decode("utf-8"))
        assert set(meta["config"]) == {
            "k_max", "n_pivots", "epsilon_pivot", "delta_pivot", "epsilon",
            "delta", "max_index_samples", "diffusion", "seed",
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


@pytest.fixture(scope="module")
def mixed_index(net):
    """A cap that cuts some pivots' Algorithm 4 prefixes but not all."""
    return RisDaIndex(net, DistanceDecay(alpha=0.03), RisDaConfig(
        k_max=4, n_pivots=6, epsilon_pivot=0.4, max_index_samples=16_000,
        seed=3,
    ))


def _set_estimates(rows, value):
    """Set ``pivot_estimates[rows]`` (a bool mask or an index) to ``value``."""
    def edit(meta, arrays):
        est = arrays["pivot_estimates"].copy()
        est[rows] = value
        arrays["pivot_estimates"] = est
    return edit


@pytest.mark.usefixtures("lemma7_sizing")
class TestPivotEstimateRows:
    """A build keeps NaN in the ``pivot_estimates`` rows of the pivots the
    cap cut short, since Lemma 8 never reads them.  The loader takes NaN
    there, and any number (older builds ran the greedy at every pivot),
    but refuses a non-finite entry in a row Lemma 8 reads.  The Lemma 7
    path is forced, since only it reads the pivot table."""

    LOCS = [(10.0, 10.0), (50.0, 80.0), (90.0, 20.0), (35.0, 55.0)]

    @pytest.fixture
    def saved(self, mixed_index, tmp_path):
        path = tmp_path / "index.npz"
        save_ris_index(mixed_index, path)
        return path

    def _answers(self, index):
        return [
            _answer_record(*index.query(q, k, return_diagnostics=True))
            for q in self.LOCS for k in (1, 4)
        ]

    def test_nan_cut_rows_load(self, net, mixed_index, saved):
        cut = ~mixed_index.lemma8_ok
        assert cut.any() and not cut.all()
        loaded = load_ris_index(saved, net)
        assert np.isnan(loaded.pivot_estimates[cut]).all()
        assert np.isfinite(loaded.pivot_estimates[~cut]).all()
        assert self._answers(loaded) == self._answers(mixed_index)

    def test_finite_cut_rows_load_and_are_never_read(
        self, net, mixed_index, saved, tmp_path
    ):
        """A huge number in every cut row would size every query near
        its pivot by Lemma 8 if anything read it; the answers stay."""
        older = tmp_path / "older.npz"
        _rewrite_npz(saved, older, _set_estimates(~mixed_index.lemma8_ok, 1e9))
        loaded = load_ris_index(older, net)
        assert np.isfinite(loaded.pivot_estimates).all()
        assert self._answers(loaded) == self._answers(mixed_index)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_usable_row_rejected(
        self, net, mixed_index, saved, tmp_path, bad
    ):
        pi = int(np.flatnonzero(mixed_index.lemma8_ok)[-1])
        damaged = tmp_path / "damaged.npz"
        _rewrite_npz(saved, damaged, _set_estimates((pi, -1), bad))
        with pytest.raises(DataFormatError) as err:
            load_ris_index(damaged, net)
        assert str(damaged) in str(err.value)
        assert f"pivot {pi}" in str(err.value)


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


def test_served_paths_build_no_arborescence(net, tmp_path, monkeypatch):
    """Build, save, load, update and shared-memory attach of a MIA-DA
    index construct no per-tree Arborescence: it is the test oracle only."""
    from repro.mia.arborescence import Arborescence
    from repro.serve.shared import SharedIndexArrays, attach_index
    from repro.stream.delta import GraphDelta

    def refuse(self):
        raise AssertionError("an Arborescence was constructed")

    monkeypatch.setattr(Arborescence, "__post_init__", refuse)
    cfg = MiaDaConfig(theta=0.03, n_anchors=8, tau=32, n_heavy=10, seed=5)
    built = MiaDaIndex(net, DistanceDecay(alpha=0.03), cfg)
    path = tmp_path / "mia.npz"
    save_mia_index(built, path)
    loaded = load_mia_index(path, net)
    stats = loaded.update(delta=GraphDelta.make(
        edges=[(0, 1), (2, 3)], probabilities=[0.4, 0.2]))
    assert stats.trees_rebuilt > 0
    before = loaded.model.flat_trees()
    stats = loaded.update(delta=GraphDelta.make(checkins=[(4, 20.0, 30.0)]))
    assert stats.trees_rebuilt == 0
    assert all(np.array_equal(a, b)
               for a, b in zip(loaded.model.flat_trees(), before))
    with SharedIndexArrays.create(path) as shared:
        handle, attached = attach_index(shared.manifest, net)
        try:
            for index in (built, loaded, attached):
                assert len(index.query((50.0, 50.0), 4).seeds) == 4
        finally:
            handle.close()


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
    """Set one array entry; ``value(meta)`` may read ``n_nodes``."""
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


def _edit_array(name, change):
    """Replace array ``name`` by ``change(array)``."""
    def edit(meta, arrays):
        arrays[name] = change(arrays[name].copy())
    return edit


def _set_tree_entry(name, local, value):
    """Set entry ``local`` of the first MIA tree holding more than
    ``local`` entries to ``value(meta)``."""
    def edit(meta, arrays):
        offsets = arrays["tree_offsets"]
        start = offsets[np.flatnonzero(np.diff(offsets) > local)[0]]
        arr = arrays[name].copy()
        arr[start + local] = value(meta)
        arrays[name] = arr
    return edit


def _swap_tree_offsets(meta, arrays):
    offsets = arrays["tree_offsets"].copy()
    offsets[1], offsets[2] = offsets[2], offsets[1]
    arrays["tree_offsets"] = offsets


def _repeat_tree_member(meta, arrays):
    offsets = arrays["tree_offsets"]
    start = offsets[np.flatnonzero(np.diff(offsets) >= 3)[0]]
    members = arrays["tree_members"].copy()
    members[start + 2] = members[start + 1]
    arrays["tree_members"] = members


def _parent_cycle(meta, arrays):
    """Two entries of one tree each the other's parent: a forest whose
    depth pass would never settle."""
    offsets = arrays["tree_offsets"]
    start = offsets[np.flatnonzero(np.diff(offsets) >= 3)[0]]
    parents = arrays["tree_parents"].copy()
    parents[start + 1], parents[start + 2] = 2, 1
    arrays["tree_parents"] = parents


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
    # The fixture's cap cuts every pivot, so every estimate row is NaN; a
    # raised cap makes those rows ones Lemma 8 reads.
    "ris-nan-usable-estimates": (
        "ris", _set("max_index_samples", 10**9, "config")),
    "mia-no-config": ("mia", lambda meta, arrays: meta.pop("config")),
    "mia-no-decay": ("mia", lambda meta, arrays: meta.pop("decay")),
    "mia-no-config-field": (
        "mia", lambda meta, arrays: meta["config"].pop("tau")),
    "mia-no-array": ("mia", lambda meta, arrays: arrays.pop("anchors")),
    "mia-float-members": (
        "mia", _edit_array("tree_members", lambda a: a.astype(np.float64))),
    "mia-float-parents": (
        "mia", _edit_array("tree_parents", lambda a: a.astype(np.float64))),
    "mia-int-edge-probs": (
        "mia", _edit_array("tree_edge_probs", lambda a: np.ones_like(a, int))),
    "mia-2d-members": (
        "mia", _edit_array("tree_members", lambda a: a.reshape(-1, 1))),
    "mia-ragged-members": ("mia", _edit_array("tree_members", lambda a: a[:-1])),
    "mia-ragged-path-probs": (
        "mia", _edit_array("tree_path_probs", lambda a: a[:-1])),
    "mia-offsets-short": ("mia", _edit_array("tree_offsets", lambda a: a[:-1])),
    "mia-offsets-start": (
        "mia", _edit_array("tree_offsets", lambda a: a + (a == 0))),
    "mia-offsets-end": (
        "mia", _edit_array("tree_offsets", lambda a: a + (a == a[-1]))),
    "mia-offsets-swapped": ("mia", _swap_tree_offsets),
    "mia-empty-tree": (
        "mia", _edit_array("tree_offsets", lambda a: np.r_[a[:1], a[:1], a[2:]])),
    "mia-member-too-large": (
        "mia", _set_tree_entry("tree_members", 1, lambda m: m["n_nodes"] + 3)),
    "mia-member-negative": (
        "mia", _set_tree_entry("tree_members", 1, lambda m: -2)),
    "mia-repeated-member": ("mia", _repeat_tree_member),
    "mia-root-not-first": (
        "mia", _set_tree_entry("tree_members", 0, lambda m: 1)),
    "mia-root-has-parent": (
        "mia", _set_tree_entry("tree_parents", 0, lambda m: 0)),
    "mia-second-root": (
        "mia", _set_tree_entry("tree_parents", 1, lambda m: -1)),
    "mia-parent-negative": (
        "mia", _set_tree_entry("tree_parents", 1, lambda m: -2)),
    "mia-parent-is-self": (
        "mia", _set_tree_entry("tree_parents", 1, lambda m: 1)),
    "mia-parent-cycle": ("mia", _parent_cycle),
    "mia-edge-prob-above-one": (
        "mia", _set_tree_entry("tree_edge_probs", 1, lambda m: 2.5)),
    "mia-edge-prob-zero": (
        "mia", _set_tree_entry("tree_edge_probs", 1, lambda m: 0.0)),
    "mia-path-prob-nan": (
        "mia", _set_tree_entry("tree_path_probs", 1, lambda m: np.nan)),
    "mia-path-prob-inf": (
        "mia", _set_tree_entry("tree_path_probs", 0, lambda m: np.inf)),
    "mia-narrow-anchor-influence": (
        "mia", _edit_array("anchor_influence", lambda a: a[:, :5])),
    "mia-short-anchor-mass": (
        "mia", _edit_array("anchor_mass", lambda a: a[:-1])),
    "mia-region-node-too-large": (
        "mia", _set_entry("region_nodes", 0, lambda meta: meta["n_nodes"])),
    "mia-region-node-repeated": ("mia", _edit_array(
        "region_nodes", lambda a: np.r_[a[1:2], a[1:]])),
    "mia-region-cell-too-large": (
        "mia", _set_entry("region_cells", 0, lambda meta: 10**6)),
    "mia-region-offsets-reversed": (
        "mia", _edit_array("region_offsets", lambda a: a[::-1])),
    "mia-region-masses-negated": (
        "mia", _edit_array("region_masses", lambda a: -a)),
    "mia-region-masses-nan": ("mia", _nan("region_masses")),
}


@contextmanager
def _time_limit(seconds):
    """Fail the test, rather than hang, if the body outlives ``seconds``."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
    with _time_limit(30), pytest.raises(DataFormatError):
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

    @settings(max_examples=80, deadline=None)
    @given(
        name=st.sampled_from(["tree_members", "tree_parents", "tree_edge_probs",
                              "tree_path_probs", "tree_offsets"]),
        position=st.integers(0, 2**31),
        value=st.integers(-4, 4),
        mode=st.sampled_from(["set", "shift", "truncate", "float"]),
    )
    def test_corrupt_forest_arrays_never_load_broken(
        net, mia_index, name, position, value, mode
    ):
        """A corrupted MIA forest array either fails to load with
        DataFormatError or loads into an index that still answers — never
        a bare ValueError/IndexError, never a hang, at load or at query
        time."""
        meta, arrays = mia_index_arrays(mia_index)
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
        with _time_limit(30):
            try:
                loaded = assemble_mia_index(net, meta, arrays)
            except DataFormatError:
                return
            result = loaded.query((50.0, 50.0), 4)
        assert len(result.seeds) == 4
