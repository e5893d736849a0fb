"""The sidecar's streaming admin route (``POST /admin/update``)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.geo.weights import DistanceDecay
from repro.obs.httpd import ObsHttpServer
from repro.obs.prom import parse_prometheus
from repro.serve.engine import QueryEngine
from repro.serve.metrics import MetricsRegistry


@pytest.fixture
def engine(small_net):
    cfg = RisDaConfig(
        k_max=4, n_pivots=5, epsilon_pivot=0.45,
        max_index_samples=4000, seed=6,
    )
    index = RisDaIndex(small_net, DistanceDecay(alpha=0.02), cfg)
    return QueryEngine(index)


@pytest.fixture
def server(engine):
    srv = ObsHttpServer(engine=engine, port=0, default_k=3).start()
    yield srv
    srv.stop()


def post(server, path, body: bytes):
    url = f"http://{server.host}:{server.port}{path}"
    req = urllib.request.Request(url, data=body, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode()


def get(server, path):
    url = f"http://{server.host}:{server.port}{path}"
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.status, resp.read().decode()


EVENTS = "\n".join([
    json.dumps({"op": "edge", "u": 0, "v": 60, "p": 0.2}),
    json.dumps({"op": "checkin", "node": 5, "x": 30.0, "y": 40.0}),
])


class TestAdminUpdate:
    def test_happy_path_returns_stats(self, server, engine):
        status, body = post(server, "/admin/update", EVENTS.encode())
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["generation"] == 1
        assert payload["moved_nodes"] == 1
        assert engine.index.generation == 1

    def test_queries_keep_working_after_update(self, server):
        post(server, "/admin/update", EVENTS.encode())
        status, body = get(server, "/query?x=50&y=50&k=2")
        assert status == 200
        assert len(json.loads(body)["seeds"]) == 2

    def test_metrics_expose_staleness_after_update(self, server):
        post(server, "/admin/update", EVENTS.encode())
        status, body = get(server, "/metrics")
        assert status == 200
        parsed = parse_prometheus(body)
        assert parsed.value("repro_staleness_generation") == 1.0
        assert parsed.value("repro_staleness_seconds_since_refresh") >= 0.0

    def test_bad_json_body_is_400(self, server):
        status, body = post(server, "/admin/update", b"{not json")
        assert status == 400
        assert "bad delta body" in json.loads(body)["error"]

    def test_invalid_event_is_400(self, server):
        bad = json.dumps({"op": "edge", "u": 0}).encode()
        status, body = post(server, "/admin/update", bad)
        assert status == 400

    @pytest.mark.parametrize("row", [
        '{"op": "edge", "u": Infinity, "v": 1, "p": 0.2}',
        '{"op": "edge", "u": 1e300, "v": 1, "p": 0.2}',
        '{"op": "edge", "u": true, "v": 2, "p": 0.2}',
        '{"op": "checkin", "node": 2.9, "x": 1.0, "y": 1.0}',
        '{"op": "edge", "u": 0, "v": 1, "p": true}',
        '{"op": "edge", "u": 0, "v": 1, "p": null}',
        '{"op": "checkin", "node": 5, "x": "12", "y": 1.0}',
        '{"op": "checkin", "node": 5, "x": 1.0, "y": false}',
        '[1, 2]',
    ])
    def test_hostile_row_is_400_and_changes_nothing(self, server, engine, row):
        status, body = post(server, "/admin/update", row.encode())
        assert status == 400
        assert "bad delta body" in json.loads(body)["error"]
        assert engine.index.generation == 0

    def test_unknown_post_route_is_404(self, server):
        status, body = post(server, "/nope", b"")
        payload = json.loads(body)
        assert status == 404
        assert "/admin/update" in payload["routes"]

    def test_metrics_only_server_has_no_update_surface(self):
        metrics = MetricsRegistry()
        srv = ObsHttpServer(metrics=metrics, port=0).start()
        try:
            status, body = post(srv, "/admin/update", EVENTS.encode())
            assert status == 404
            assert "no streaming update" in json.loads(body)["error"]
        finally:
            srv.stop()
