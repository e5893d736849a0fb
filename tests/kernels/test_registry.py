"""The backend registry and how the host's backend threads through the system.

Runs on every host: where numba is absent the host resolves to
``"numpy"`` and an explicit request for the compiled kernel set fails
loudly (:class:`~repro.exceptions.KernelError`); where it is present and
warm, the host resolves to ``"numba"``.  Either way the resolved name
must surface at every observability point: ``RisDaIndex.kernel_backend``,
the serve engine's stage-histogram labels, ``runtime_info()``, and the
CLI — and nothing a caller passes can override it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.persistence import load_ris_index, save_ris_index
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.exceptions import KernelError
from repro.geo.weights import DistanceDecay
from repro.kernels import (
    available_backends,
    kernels,
    numba_version,
    resolve_backend,
)
from repro.obs.env import runtime_info
from repro.serve.engine import QueryEngine

HAVE_NUMBA = numba_version() is not None


def _resolves_numba() -> bool:
    return resolve_backend() == "numba"


def _small_index(small_net) -> RisDaIndex:
    cfg = RisDaConfig(
        k_max=4, n_pivots=3, epsilon_pivot=0.5,
        max_index_samples=1500, seed=2,
    )
    return RisDaIndex(small_net, DistanceDecay(alpha=0.03), cfg)


class TestResolution:
    def test_auto_resolves_concrete(self):
        assert resolve_backend() in ("numpy", "numba")
        # Cached per process: a second call agrees.
        assert resolve_backend() == resolve_backend()

    def test_unknown_name_raises(self):
        with pytest.raises(KernelError, match="no compiled kernel set"):
            kernels("cuda")

    def test_explicit_numba_without_numba_raises(self):
        if HAVE_NUMBA:
            pytest.skip("numba installed: the kernel set may load")
        assert resolve_backend() == "numpy"
        with pytest.raises(KernelError, match="numba backend unavailable"):
            kernels("numba")

    def test_available_matches_auto(self):
        avail = available_backends()
        assert avail[0] == "numpy"
        assert ("numba" in avail) == _resolves_numba()

    def test_no_kernel_set_for_numpy(self):
        # The numpy backend IS the vectorized code, not a kernel table.
        with pytest.raises(KernelError):
            kernels("numpy")

    def test_runtime_info_reports_backend(self):
        info = runtime_info()
        assert info["kernel_backend"] == resolve_backend()
        assert info["numba"] == numba_version()


class TestConfigAndIndex:
    def test_index_resolves_request(self, small_net):
        index = _small_index(small_net)
        # The index carries this host's backend, and so does its sampler.
        assert index.kernel_backend == resolve_backend()
        assert index.sampler.kernel_backend == index.kernel_backend

    def test_persistence_round_trip(self, small_net, tmp_path):
        index = _small_index(small_net)
        path = tmp_path / "idx.npz"
        save_ris_index(index, path)
        with np.load(path) as data:
            meta = json.loads(data["meta"].tobytes().decode("utf-8"))
        # A host property is not an index property: nothing is persisted,
        # and the loading host resolves its own backend.
        assert "kernel_backend" not in meta["config"]
        loaded = load_ris_index(path, small_net)
        assert loaded.kernel_backend == resolve_backend()
        a = index.query((30.0, 30.0), 3)
        b = loaded.query((30.0, 30.0), 3)
        assert b.seeds == a.seeds
        assert b.estimate == a.estimate


class TestEngineLabels:
    def test_stage_histograms_carry_backend_label(self, small_net, tmp_path):
        path = tmp_path / "idx.npz"
        save_ris_index(_small_index(small_net), path)
        engine = QueryEngine.from_path(path, small_net)
        backend = resolve_backend()
        assert engine.kernel_backend == backend
        engine.query((30.0, 30.0), k=3)
        hist_names = engine.metrics.dump()["histograms"]
        labelled = f'stage_selection_ms{{kernel_backend="{backend}"}}'
        assert labelled in hist_names
        # Back-compat: the unlabelled series keeps updating too.
        assert "stage_selection_ms" in hist_names


class TestCliWiring:
    def test_build_and_query_report_host_backend(self, tmp_path, capsys):
        index_path = tmp_path / "idx.npz"
        rc = main([
            "build-ris", "--dataset", "brightkite", "--scale", "0.1",
            "--out", str(index_path), "--k-max", "4", "--pivots", "4",
            "--epsilon-pivot", "0.5", "--max-samples", "2000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"kernel backend {resolve_backend()}" in out
        rc = main([
            "query", "--dataset", "brightkite", "--scale", "0.1",
            "--x", "50", "--y", "50", "-k", "3", "--method", "ris",
            "--index", str(index_path),
        ])
        assert rc == 0
        assert "RIS-DA" in capsys.readouterr().out
