"""Tests for :meth:`SharedIndexArrays.republish` (incremental publication).

A streaming update changes only some arrays (corpus / trees); republish
must keep the untouched segments in place — zero-copy for both the parent
and already-attached workers — and hand back the replaced storage as a
separate ``retired`` handle whose unlink cannot disturb the successor.
"""

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.persistence import read_index_arrays, save_ris_index
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.exceptions import ServeError
from repro.geo.weights import DistanceDecay
from repro.serve.shared import SharedIndexArrays


@pytest.fixture(scope="module")
def ris_path(small_net, tmp_path_factory):
    path = tmp_path_factory.mktemp("republish") / "ris.npz"
    cfg = RisDaConfig(
        k_max=4, n_pivots=5, epsilon_pivot=0.45,
        max_index_samples=4000, seed=6,
    )
    save_ris_index(
        RisDaIndex(small_net, DistanceDecay(alpha=0.02), cfg), path
    )
    return path


def _segment_exists(name: str) -> bool:
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    return True


def _mutated(arrays, touch):
    out = dict(arrays)
    for name in touch:
        arr = np.array(out[name], copy=True)
        if arr.size:
            flat = arr.reshape(-1)
            flat[0] = flat[0] + (1 if np.issubdtype(arr.dtype, np.integer)
                                 else 0.5)
        out[name] = arr
    return out


@pytest.fixture
def published(ris_path):
    shared = SharedIndexArrays.create(ris_path)
    handles = [shared]
    yield shared, handles
    for h in handles:
        try:
            h.unlink()
        except Exception:
            pass


class TestSegmentReuse:
    def test_unchanged_arrays_keep_their_storage(self, published, ris_path):
        shared, handles = published
        kind, meta, _ = read_index_arrays(ris_path)
        names = sorted(shared.arrays)
        touch = names[:1]
        old_views = {n: shared.arrays[n] for n in names}
        successor, retired = shared.republish(
            kind, meta, _mutated(old_views, touch), "fp#g1"
        )
        handles[:] = [successor, retired]
        for n in names:
            if n in touch:
                assert not np.shares_memory(successor.arrays[n], old_views[n])
            else:
                assert np.shares_memory(successor.arrays[n], old_views[n])

    def test_passthrough_views_are_reused_without_copy(
        self, published, ris_path
    ):
        shared, handles = published
        kind, meta, _ = read_index_arrays(ris_path)
        old_views = dict(shared.arrays)
        successor, retired = shared.republish(kind, meta, old_views, "fp#g1")
        handles[:] = [successor, retired]
        assert not retired.manifest.specs
        for n, v in successor.arrays.items():
            assert np.shares_memory(v, old_views[n])

    def test_equal_copies_are_reused(self, published, ris_path):
        """An array equal to its published one keeps its storage even as
        a fresh copy; NaN entries (the estimate rows of the pivots the
        cap cut short) count as equal."""
        shared, handles = published
        kind, meta, _ = read_index_arrays(ris_path)
        old_views = dict(shared.arrays)
        assert np.isnan(old_views["pivot_estimates"]).any()
        copies = {n: np.array(v, copy=True) for n, v in old_views.items()}
        successor, retired = shared.republish(kind, meta, copies, "fp#g1")
        handles[:] = [successor, retired]
        assert not retired.manifest.specs
        for n, v in successor.arrays.items():
            assert np.shares_memory(v, old_views[n])

    def test_retired_holds_only_replaced_segments(self, published, ris_path):
        shared, handles = published
        kind, meta, _ = read_index_arrays(ris_path)
        names = sorted(shared.arrays)
        touch = names[:2]
        successor, retired = shared.republish(
            kind, meta, _mutated(shared.arrays, touch), "fp#g1"
        )
        handles[:] = [successor, retired]
        assert sorted(s.name for s in retired.manifest.specs) == sorted(touch)

    def test_successor_carries_new_fingerprint(self, published, ris_path):
        shared, handles = published
        kind, meta, _ = read_index_arrays(ris_path)
        successor, retired = shared.republish(
            kind, meta, dict(shared.arrays), "base#g7"
        )
        handles[:] = [successor, retired]
        assert successor.manifest.fingerprint == "base#g7"
        assert retired.manifest.fingerprint == shared.manifest.fingerprint

    def test_source_is_consumed(self, published, ris_path):
        shared, handles = published
        kind, meta, _ = read_index_arrays(ris_path)
        successor, retired = shared.republish(
            kind, meta, dict(shared.arrays), "fp#g1"
        )
        handles[:] = [successor, retired]
        assert not shared.arrays
        with pytest.raises(ServeError, match="owning|closed"):
            shared.republish(kind, meta, dict(successor.arrays), "fp#g2")

    def test_attachment_still_reads_after_retired_unlink(
        self, published, ris_path
    ):
        shared, handles = published
        kind, meta, _ = read_index_arrays(ris_path)
        names = sorted(shared.arrays)
        touch = names[:1]
        successor, retired = shared.republish(
            kind, meta, _mutated(shared.arrays, touch), "fp#g1"
        )
        handles[:] = [successor]
        retired.unlink()
        attached = SharedIndexArrays.attach(successor.manifest)
        try:
            for n in names:
                np.testing.assert_array_equal(
                    attached.arrays[n], successor.arrays[n]
                )
        finally:
            attached.close()


class TestNoLeaks:
    def test_all_segments_released_after_unlink(self, ris_path):
        shared = SharedIndexArrays.create(ris_path)
        kind, meta, _ = read_index_arrays(ris_path)
        names = sorted(shared.arrays)
        old_segs = [s.shm_name for s in shared.manifest.specs]
        successor, retired = shared.republish(
            kind, meta, _mutated(shared.arrays, names[:1]), "fp#g1"
        )
        new_segs = [s.shm_name for s in successor.manifest.specs]
        retired.unlink()
        successor.unlink()
        for seg_name in old_segs + new_segs:
            assert not _segment_exists(seg_name)

    def test_chained_republish_releases_everything(self, ris_path):
        shared = SharedIndexArrays.create(ris_path)
        kind, meta, _ = read_index_arrays(ris_path)
        names = sorted(shared.arrays)
        seen = {s.shm_name for s in shared.manifest.specs}
        current = shared
        for gen in range(1, 4):
            touch = [names[gen % len(names)]]
            successor, retired = current.republish(
                kind, meta, _mutated(current.arrays, touch), f"fp#g{gen}"
            )
            seen.update(s.shm_name for s in successor.manifest.specs)
            retired.unlink()
            current = successor
        current.unlink()
        for seg_name in seen:
            assert not _segment_exists(seg_name)


class TestMmapBacking:
    def test_republish_over_spill_files(self, ris_path, tmp_path):
        shared = SharedIndexArrays.create(
            ris_path, backing="mmap", spill_dir=tmp_path / "spill"
        )
        kind, meta, _ = read_index_arrays(ris_path)
        names = sorted(shared.arrays)
        touch = names[:1]
        old_views = {n: shared.arrays[n] for n in names}
        successor, retired = shared.republish(
            kind, meta, _mutated(shared.arrays, touch), "fp#g1"
        )
        try:
            for n in names:
                if n in touch:
                    assert not np.shares_memory(
                        successor.arrays[n], old_views[n]
                    )
                else:
                    assert np.shares_memory(successor.arrays[n], old_views[n])
            attached = SharedIndexArrays.attach(successor.manifest)
            try:
                np.testing.assert_array_equal(
                    attached.arrays[touch[0]], successor.arrays[touch[0]]
                )
            finally:
                attached.close()
        finally:
            retired.unlink()
            successor.unlink()
