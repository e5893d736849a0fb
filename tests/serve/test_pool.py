"""Tests for repro.serve.pool (sharded multi-process serving)."""

import os
import random
import signal
import time
from multiprocessing import shared_memory

import pytest

from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.core.persistence import save_mia_index, save_ris_index
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.exceptions import ServeError
from repro.geo.weights import DistanceDecay
from repro.network.generators import GeoSocialConfig, generate_geo_social_network
from repro.obs.trace import Tracer
from repro.serve.engine import QueryEngine, ServeConfig
from repro.serve.pool import ServePool, ShardRouter


@pytest.fixture(scope="module")
def net():
    return generate_geo_social_network(
        GeoSocialConfig(n=150, avg_out_degree=4.0, extent=100.0, city_std=8.0),
        seed=37,
    )


@pytest.fixture(scope="module")
def decay():
    return DistanceDecay(alpha=0.02)


@pytest.fixture(scope="module")
def ris_path(net, decay, tmp_path_factory):
    path = tmp_path_factory.mktemp("pool") / "ris.npz"
    cfg = RisDaConfig(
        k_max=5, n_pivots=6, epsilon_pivot=0.4, max_index_samples=8000, seed=2
    )
    save_ris_index(RisDaIndex(net, decay, cfg), path)
    return path


@pytest.fixture(scope="module")
def queries(net):
    box = net.bounding_box()
    rng = random.Random(17)
    return [
        (rng.uniform(box.xmin, box.xmax), rng.uniform(box.ymin, box.ymax))
        for _ in range(16)
    ]


@pytest.fixture(scope="module")
def reference(net, ris_path, queries):
    engine = QueryEngine.from_path(
        ris_path, net, config=ServeConfig(n_threads=2)
    )
    return engine.serve_batch(queries, k=4)


def _seed_lists(served):
    return [s.result.seeds for s in served]


class TestShardRouter:
    def test_deterministic_across_instances(self, net):
        box = net.bounding_box()
        a = ShardRouter(box, n_shards=3)
        b = ShardRouter(box, n_shards=3)
        rng = random.Random(5)
        points = [
            (rng.uniform(box.xmin, box.xmax), rng.uniform(box.ymin, box.ymax))
            for _ in range(200)
        ]
        assert [a.shard_of(p) for p in points] == [
            b.shard_of(p) for p in points
        ]
        assert all(0 <= a.shard_of(p) < 3 for p in points)

    def test_same_cell_same_shard(self, net):
        router = ShardRouter(net.bounding_box(), n_shards=4)
        # Two points in the same grid cell must never split across
        # workers (they share a result-cache entry).
        cell_box = router.grid.cell_box(router.grid.cell_of((50.0, 50.0)))
        p1 = (cell_box.xmin + 1e-6, cell_box.ymin + 1e-6)
        p2 = (cell_box.xmax - 1e-6, cell_box.ymax - 1e-6)
        assert router.grid.cell_of(p1) == router.grid.cell_of(p2)
        assert router.shard_of(p1) == router.shard_of(p2)

    def test_bad_shard_count(self, net):
        with pytest.raises(ServeError):
            ShardRouter(net.bounding_box(), n_shards=0)


class TestPoolServing:
    def test_matches_in_process_engine(
        self, net, ris_path, queries, reference
    ):
        with ServePool(
            ris_path, net, n_workers=2, config=ServeConfig(n_threads=2)
        ) as pool:
            served = pool.serve_batch(queries, k=4)
            assert all(s.ok for s in served)
            assert _seed_lists(served) == _seed_lists(reference)
            counters = pool.metrics.dump()["counters"]
            assert counters["queries_total"] == len(queries)
            per_shard = [
                counters.get(f"shard{i}_queries_total", 0) for i in (0, 1)
            ]
            # Both workers take a share of the batch.
            assert all(n > 0 for n in per_shard), per_shard
            assert sum(per_shard) == len(queries)

    def test_mmap_backing_parity(self, net, ris_path, queries, reference):
        with ServePool(
            ris_path, net, n_workers=2, backing="mmap",
            config=ServeConfig(n_threads=2),
        ) as pool:
            served = pool.serve_batch(queries, k=4)
            assert _seed_lists(served) == _seed_lists(reference)

    def test_single_query_and_kind(self, net, ris_path, reference, queries):
        with ServePool(ris_path, net, n_workers=2) as pool:
            assert pool.index_kind == "ris"
            served = pool.query(queries[0], k=4)
            assert served.ok
            assert served.result.seeds == reference[0].result.seeds

    def test_daim_query_objects_accepted(self, net, ris_path, queries):
        from repro.core.query import DaimQuery

        with ServePool(ris_path, net, n_workers=2) as pool:
            a = pool.serve_batch([DaimQuery(queries[0], 4)])
            b = pool.serve_batch([queries[0]], k=4)
            assert a[0].result.seeds == b[0].result.seeds

    def test_empty_batch(self, net, ris_path):
        with ServePool(ris_path, net, n_workers=2) as pool:
            assert pool.serve_batch([]) == []

    def test_kind_mismatch_rejected_and_cleaned_up(
        self, net, decay, tmp_path
    ):
        path = tmp_path / "mia.npz"
        cfg = MiaDaConfig(n_anchors=10, tau=24, seed=3)
        save_mia_index(MiaDaIndex(net, decay, cfg), path)
        with pytest.raises(ServeError, match="MIA-DA"):
            ServePool(path, net, n_workers=2, kind="ris")

    def test_closed_pool_rejects_batches(self, net, ris_path, queries):
        pool = ServePool(ris_path, net, n_workers=2)
        pool.serve_batch(queries[:2], k=4)
        pool.close()
        with pytest.raises(ServeError, match="closed"):
            pool.serve_batch(queries[:2], k=4)

    def test_worker_metrics_merged_on_close(self, net, ris_path, queries):
        pool = ServePool(ris_path, net, n_workers=2)
        pool.serve_batch(queries, k=4)
        pool.close()
        counters = pool.metrics.dump()["counters"]
        assert counters["worker.queries_total"] == len(queries)
        assert pool.metrics.histogram("worker.latency_ms").count == len(
            queries
        )


class TestPoolFaultTolerance:
    def test_dead_worker_restarted_and_batch_completes(
        self, net, ris_path, queries, reference
    ):
        with ServePool(
            ris_path, net, n_workers=2, config=ServeConfig(n_threads=2)
        ) as pool:
            victim = pool._workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while victim.is_alive() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not victim.is_alive()
            served = pool.serve_batch(queries, k=4)
            assert all(s.ok for s in served)
            assert _seed_lists(served) == _seed_lists(reference)
            assert (
                pool.metrics.counter("worker_restarts_total").value >= 1
            )
            # The replacement worker serves follow-up batches too.
            again = pool.serve_batch(queries[:4], k=4)
            assert all(s.ok for s in again)


class TestPoolTeardown:
    def test_no_leaked_shm_segments_after_close(self, net, ris_path):
        pool = ServePool(ris_path, net, n_workers=2)
        names = [
            s.shm_name for s in pool._shared.manifest.specs
            if s.shm_name is not None
        ]
        assert names
        pool.serve_batch([(50.0, 50.0)], k=4)
        pool.close()
        for seg_name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=seg_name)

    def test_close_is_idempotent(self, net, ris_path):
        pool = ServePool(ris_path, net, n_workers=1)
        pool.close()
        pool.close()

    def test_orphaned_workers_exit_and_segments_reclaimed(
        self, net, ris_path, tmp_path
    ):
        # SIGKILL the pool's parent process: workers must notice the
        # re-parenting and exit on their own, after which the resource
        # tracker reclaims every shm segment.  Without the orphan check
        # the workers would block on their task queues forever, pinning
        # the segments.
        import json
        import subprocess
        import sys

        script = tmp_path / "orphan_parent.py"
        script.write_text(
            "import json, sys, time\n"
            "from repro.network.generators import (\n"
            "    GeoSocialConfig, generate_geo_social_network)\n"
            "from repro.serve.pool import ServePool\n"
            "net = generate_geo_social_network(\n"
            "    GeoSocialConfig(n=150, avg_out_degree=4.0, extent=100.0,\n"
            "                    city_std=8.0), seed=37)\n"
            f"pool = ServePool({str(ris_path)!r}, net, n_workers=2)\n"
            "print(json.dumps({\n"
            "    'workers': [p.pid for p in pool._workers],\n"
            "    'segments': [s.shm_name for s in\n"
            "                 pool._shared.manifest.specs],\n"
            "}), flush=True)\n"
            "time.sleep(120)\n"
        )
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.dirname(os.path.dirname(repro.__file__)),
                env.get("PYTHONPATH", ""),
            ) if p
        )
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env,
        )
        try:
            info = json.loads(proc.stdout.readline())
        finally:
            proc.stdout.close()
        assert info["workers"] and info["segments"]
        proc.kill()
        proc.wait(timeout=10)

        def _all_gone():
            for pid in info["workers"]:
                try:
                    os.kill(pid, 0)
                    return False
                except ProcessLookupError:
                    pass
            for seg_name in info["segments"]:
                try:
                    shm = shared_memory.SharedMemory(name=seg_name)
                except FileNotFoundError:
                    continue
                shm.close()
                return False
            return True

        # Covers the worst case: a worker first scheduled after the
        # parent died exits immediately via the parent-supplied pid
        # check, but the 1 s orphan poll plus resource-tracker cleanup
        # still need a few seconds under load.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if _all_gone():
                break
            time.sleep(0.2)
        assert _all_gone(), "orphaned workers or shm segments survived"


class TestPoolObservability:
    def test_worker_spans_adopted_into_parent_trace(
        self, net, ris_path, queries
    ):
        tracer = Tracer()
        with ServePool(ris_path, net, n_workers=2, tracer=tracer) as pool:
            pool.serve_batch(queries[:6], k=4)
        spans = tracer.finished_spans
        roots = [s for s in spans if s["name"] == "pool.serve_batch"]
        workers = [s for s in spans if s["name"] == "pool.worker"]
        assert len(roots) == 1
        assert workers, "no worker spans adopted"
        root = roots[0]
        assert all(s["trace_id"] == root["trace_id"] for s in workers)
        assert all(s["parent_id"] == root["span_id"] for s in workers)
        assert all(s["attributes"].get("worker") for s in workers)

    def test_http_sidecar_serves_health_and_query_through_pool(
        self, net, ris_path, queries
    ):
        import json

        from repro.obs.httpd import ObsHttpServer

        with ServePool(ris_path, net, n_workers=2) as pool:
            server = ObsHttpServer(engine=pool, default_k=4)
            status, body, _ = server._route("/healthz")
            health = json.loads(body)
            assert status == 200
            assert health["index_kind"] == "ris"
            assert health["workers"] == 2
            x, y = queries[0]
            status, body, _ = server._route(f"/query?x={x}&y={y}&k=4")
            payload = json.loads(body)
            assert status == 200
            assert len(payload["seeds"]) == 4
