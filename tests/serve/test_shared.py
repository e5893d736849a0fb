"""Tests for repro.serve.shared (zero-copy index publication)."""

import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.persistence import read_index_arrays, save_ris_index
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.exceptions import ServeError
from repro.geo.weights import DistanceDecay
from repro.network.generators import GeoSocialConfig, generate_geo_social_network
from repro.serve.shared import SharedIndexArrays, attach_index


@pytest.fixture(scope="module")
def net():
    return generate_geo_social_network(
        GeoSocialConfig(n=150, avg_out_degree=4.0, extent=100.0, city_std=8.0),
        seed=31,
    )


@pytest.fixture(scope="module")
def mia_path(net, tmp_path_factory):
    from repro.core.mia_da import MiaDaConfig, MiaDaIndex
    from repro.core.persistence import save_mia_index

    path = tmp_path_factory.mktemp("shared") / "mia.npz"
    cfg = MiaDaConfig(theta=0.03, n_anchors=8, tau=32, n_heavy=10, seed=2)
    save_mia_index(MiaDaIndex(net, DistanceDecay(alpha=0.02), cfg), path)
    return path


@pytest.fixture(scope="module")
def ris_path(net, tmp_path_factory):
    path = tmp_path_factory.mktemp("shared") / "ris.npz"
    cfg = RisDaConfig(
        k_max=5, n_pivots=6, epsilon_pivot=0.4, max_index_samples=8000, seed=2
    )
    save_ris_index(RisDaIndex(net, DistanceDecay(alpha=0.02), cfg), path)
    return path


class TestShmBacking:
    def test_arrays_match_the_file_bit_for_bit(self, ris_path):
        _, _, raw = read_index_arrays(ris_path)
        with SharedIndexArrays.create(ris_path) as shared:
            assert shared.manifest.kind == "ris"
            assert set(shared.arrays) == set(raw)
            for name, arr in raw.items():
                np.testing.assert_array_equal(shared.arrays[name], arr)

    def test_attach_sees_the_same_data_zero_copy(self, ris_path):
        shared = SharedIndexArrays.create(ris_path)
        try:
            attached = SharedIndexArrays.attach(shared.manifest)
            try:
                for name, arr in shared.arrays.items():
                    np.testing.assert_array_equal(attached.arrays[name], arr)
                    assert not attached.arrays[name].flags.writeable
            finally:
                attached.close()
        finally:
            shared.unlink()

    def test_manifest_is_picklable(self, ris_path):
        with SharedIndexArrays.create(ris_path) as shared:
            clone = pickle.loads(pickle.dumps(shared.manifest))
            assert clone == shared.manifest

    def test_views_are_read_only(self, ris_path):
        with SharedIndexArrays.create(ris_path) as shared:
            name = next(iter(shared.arrays))
            with pytest.raises(ValueError):
                shared.arrays[name][...] = 0

    def test_unlink_destroys_every_segment(self, ris_path):
        shared = SharedIndexArrays.create(ris_path)
        names = [s.shm_name for s in shared.manifest.specs]
        assert names and all(n is not None for n in names)
        shared.unlink()
        for seg_name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=seg_name)

    def test_only_owner_may_unlink(self, ris_path):
        shared = SharedIndexArrays.create(ris_path)
        try:
            attached = SharedIndexArrays.attach(shared.manifest)
            with pytest.raises(ServeError, match="unlink"):
                attached.unlink()
            attached.close()
        finally:
            shared.unlink()

    def test_bad_backing_rejected(self, ris_path):
        with pytest.raises(ServeError, match="backing"):
            SharedIndexArrays.create(ris_path, backing="carrier-pigeon")


class TestMmapBacking:
    def test_spill_files_exist_and_match(self, ris_path, tmp_path):
        _, _, raw = read_index_arrays(ris_path)
        shared = SharedIndexArrays.create(
            ris_path, backing="mmap", spill_dir=tmp_path / "spill"
        )
        try:
            for spec in shared.manifest.specs:
                assert spec.path is not None and spec.shm_name is None
            attached = SharedIndexArrays.attach(shared.manifest)
            try:
                for name, arr in raw.items():
                    np.testing.assert_array_equal(attached.arrays[name], arr)
                    assert not attached.arrays[name].flags.writeable
            finally:
                attached.close()
        finally:
            shared.unlink()

    def test_unlink_removes_spill_files(self, ris_path, tmp_path):
        spill = tmp_path / "spill"
        shared = SharedIndexArrays.create(
            ris_path, backing="mmap", spill_dir=spill
        )
        paths = [s.path for s in shared.manifest.specs]
        shared.unlink()
        assert not any(
            __import__("pathlib").Path(p).exists() for p in paths
        )
        assert not spill.exists()


class TestAttachIndex:
    def test_assembled_index_answers_like_the_loaded_one(self, net, ris_path):
        from repro.core.persistence import load_index

        _, direct = load_index(ris_path, net)
        with SharedIndexArrays.create(ris_path) as shared:
            handle, index = attach_index(shared.manifest, net)
            try:
                expected = direct.query((50.0, 50.0), 4)
                got = index.query((50.0, 50.0), 4)
                assert got.seeds == expected.seeds
                assert got.estimate == pytest.approx(expected.estimate)
            finally:
                handle.close()

    def test_index_reads_straight_from_shared_pages(self, net, ris_path):
        # The corpus must hold *views* over the shm buffers, not copies:
        # its flat arrays and the shared arrays must share memory.
        with SharedIndexArrays.create(ris_path) as shared:
            handle, index = attach_index(shared.manifest, net)
            try:
                flat, _ = index.corpus.flat()
                assert np.shares_memory(flat, handle.arrays["corpus_flat"])
            finally:
                handle.close()

    def test_mia_forest_reads_straight_from_shared_pages(self, net, mia_path):
        # Every forest array of an attached MIA-DA model is a view over
        # its shm segment, not a per-worker copy.
        names = ("tree_members", "tree_parents", "tree_edge_probs",
                 "tree_path_probs", "tree_offsets")
        with SharedIndexArrays.create(mia_path) as shared:
            handle, index = attach_index(shared.manifest, net)
            try:
                for name, arr in zip(names, index.model.flat_trees()):
                    assert np.shares_memory(arr, handle.arrays[name]), name
                assert index.query((50.0, 50.0), 4).seeds
            finally:
                handle.close()
