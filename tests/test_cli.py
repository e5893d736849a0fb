"""Tests for the command-line interface (repro.cli)."""

import numpy as np
import pytest

from repro.cli import main


class TestGenerateAndStats:
    def test_generate_writes_files(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        checkins = tmp_path / "g.ci"
        rc = main([
            "generate", "--dataset", "brightkite", "--scale", "0.1",
            "--out-edges", str(edges), "--out-checkins", str(checkins),
        ])
        assert rc == 0
        assert edges.exists() and checkins.exists()
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_stats_on_generated_files(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        checkins = tmp_path / "g.ci"
        main([
            "generate", "--dataset", "brightkite", "--scale", "0.1",
            "--out-edges", str(edges), "--out-checkins", str(checkins),
        ])
        capsys.readouterr()
        rc = main(["stats", "--edges", str(edges), "--checkins", str(checkins)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nodes" in out and "edges" in out

    def test_stats_on_builtin_dataset(self, capsys):
        rc = main(["stats", "--dataset", "brightkite", "--scale", "0.1"])
        assert rc == 0
        assert "nodes" in capsys.readouterr().out


class TestQuery:
    def test_mia_query(self, capsys):
        rc = main([
            "query", "--dataset", "brightkite", "--scale", "0.1",
            "--x", "50", "--y", "50", "-k", "5", "--method", "mia",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MIA-DA" in out
        assert "seeds" in out

    def test_heuristic_query(self, capsys):
        rc = main([
            "query", "--dataset", "brightkite", "--scale", "0.1",
            "--x", "50", "--y", "50", "-k", "3",
            "--method", "weighted-degree",
        ])
        assert rc == 0
        assert "TopWeightedDegree" in capsys.readouterr().out

    def test_degree_discount_query(self, capsys):
        rc = main([
            "query", "--dataset", "brightkite", "--scale", "0.1",
            "--x", "50", "--y", "50", "-k", "3",
            "--method", "degree-discount",
        ])
        assert rc == 0
        assert "DegreeDiscount" in capsys.readouterr().out

    def test_network_required(self, capsys):
        rc = main(["query", "--x", "0", "--y", "0", "-k", "2"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_both_sources_rejected(self, tmp_path, capsys):
        rc = main([
            "query", "--dataset", "brightkite", "--edges", "x.edges",
            "--x", "0", "--y", "0",
        ])
        assert rc == 2

    @pytest.mark.parametrize("method", ["ris", "mia"])
    @pytest.mark.parametrize("name", ["missing", "missing.npz"])
    def test_missing_index_file_errors(self, tmp_path, capsys, method, name):
        """A missing index is a one-line error with exit code 2, as in
        serve-batch — not a FileNotFoundError traceback from np.load."""
        rc = main([
            "query", "--dataset", "brightkite", "--scale", "0.1",
            "--x", "50", "--y", "50", "-k", "3", "--method", method,
            "--index", str(tmp_path / name),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot stat index file ")
        assert str(tmp_path / "missing.npz") in err

    @pytest.mark.parametrize("method", ["ris", "mia"])
    def test_corrupt_index_file_errors(self, tmp_path, capsys, method):
        """A truncated index is a one-line error with exit code 2 naming
        the file, not a BadZipFile traceback."""
        path = tmp_path / "corrupt.npz"
        np.savez_compressed(path, meta=np.frombuffer(b"{}", np.uint8))
        path.write_bytes(path.read_bytes()[:-10])
        rc = main([
            "query", "--dataset", "brightkite", "--scale", "0.1",
            "--x", "50", "--y", "50", "-k", "3", "--method", method,
            "--index", str(path),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err


class TestBuildAndLoadRis:
    def test_build_then_query_roundtrip(self, tmp_path, capsys):
        index_path = tmp_path / "idx.npz"
        rc = main([
            "build-ris", "--dataset", "brightkite", "--scale", "0.1",
            "--out", str(index_path), "--k-max", "5", "--pivots", "6",
            "--epsilon-pivot", "0.4", "--max-samples", "5000",
        ])
        assert rc == 0
        assert index_path.exists()
        capsys.readouterr()
        rc = main([
            "query", "--dataset", "brightkite", "--scale", "0.1",
            "--x", "50", "--y", "50", "-k", "4", "--method", "ris",
            "--index", str(index_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RIS-DA" in out

    def test_adhoc_ris_query_without_index(self, capsys):
        rc = main([
            "query", "--dataset", "brightkite", "--scale", "0.1",
            "--x", "50", "--y", "50", "-k", "3", "--method", "ris",
        ])
        assert rc == 0
        assert "RIS-adhoc" in capsys.readouterr().out


class TestBuildAndLoadMia:
    def test_build_then_query_roundtrip(self, tmp_path, capsys):
        index_path = tmp_path / "mia.npz"
        rc = main([
            "build-mia", "--dataset", "brightkite", "--scale", "0.1",
            "--out", str(index_path), "--theta", "0.05",
            "--anchors", "12", "--tau", "32",
        ])
        assert rc == 0
        assert index_path.exists()
        out = capsys.readouterr().out
        assert "built MIA-DA index" in out
        rc = main([
            "query", "--dataset", "brightkite", "--scale", "0.1",
            "--x", "50", "--y", "50", "-k", "4", "--method", "mia",
            "--index", str(index_path),
        ])
        assert rc == 0
        assert "MIA-DA" in capsys.readouterr().out

    def test_indexed_query_matches_fresh_build(self, tmp_path, capsys):
        index_path = tmp_path / "mia.npz"
        main([
            "build-mia", "--dataset", "brightkite", "--scale", "0.1",
            "--out", str(index_path), "--anchors", "12", "--tau", "32",
        ])
        capsys.readouterr()
        main([
            "query", "--dataset", "brightkite", "--scale", "0.1",
            "--x", "40", "--y", "60", "-k", "3", "--method", "mia",
            "--index", str(index_path),
        ])
        indexed = capsys.readouterr().out
        main([
            "query", "--dataset", "brightkite", "--scale", "0.1",
            "--x", "40", "--y", "60", "-k", "3", "--method", "mia",
        ])
        fresh = capsys.readouterr().out
        seeds = [
            line for line in indexed.splitlines() if line.startswith("seeds")
        ]
        assert seeds == [
            line for line in fresh.splitlines() if line.startswith("seeds")
        ]

    def test_mia_index_on_wrong_graph_errors(self, tmp_path, capsys):
        index_path = tmp_path / "mia.npz"
        main([
            "build-mia", "--dataset", "brightkite", "--scale", "0.1",
            "--out", str(index_path), "--anchors", "8", "--tau", "16",
        ])
        capsys.readouterr()
        rc = main([
            "query", "--dataset", "brightkite", "--scale", "0.2",
            "--x", "0", "--y", "0", "-k", "2", "--method", "mia",
            "--index", str(index_path),
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestServeBatch:
    def _build_ris(self, tmp_path, capsys):
        index_path = tmp_path / "idx.npz"
        rc = main([
            "build-ris", "--dataset", "brightkite", "--scale", "0.1",
            "--out", str(index_path), "--k-max", "5", "--pivots", "6",
            "--epsilon-pivot", "0.4", "--max-samples", "5000",
        ])
        assert rc == 0
        capsys.readouterr()
        return index_path

    def _write_queries(self, tmp_path, count=8, k=3):
        import json
        path = tmp_path / "queries.jsonl"
        lines = [
            json.dumps({"x": 10.0 * (i % 4), "y": 25.0 * (i // 4), "k": k})
            for i in range(count)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_serve_batch_writes_results_and_metrics(self, tmp_path, capsys):
        import json
        index_path = self._build_ris(tmp_path, capsys)
        queries = self._write_queries(tmp_path)
        out_path = tmp_path / "results.jsonl"
        rc = main([
            "serve-batch", "--dataset", "brightkite", "--scale", "0.1",
            "--index", str(index_path), "--queries", str(queries),
            "--out", str(out_path), "--threads", "2",
        ])
        assert rc == 0
        rows = [
            json.loads(line)
            for line in out_path.read_text().splitlines() if line
        ]
        assert len(rows) == 8
        for row in rows:
            assert row["error"] is None
            assert row["method"] == "RIS-DA"
            assert len(row["seeds"]) == 3
        out = capsys.readouterr().out
        assert "served 8 queries" in out
        assert "latency_ms" in out
        assert "result_cache" in out

    def test_serve_batch_metrics_out_file(self, tmp_path, capsys):
        index_path = self._build_ris(tmp_path, capsys)
        queries = self._write_queries(tmp_path, count=4)
        metrics_path = tmp_path / "metrics.txt"
        rc = main([
            "serve-batch", "--dataset", "brightkite", "--scale", "0.1",
            "--index", str(index_path), "--queries", str(queries),
            "--out", str(tmp_path / "r.jsonl"),
            "--metrics-out", str(metrics_path),
        ])
        assert rc == 0
        text = metrics_path.read_text()
        assert "queries_total" in text and "latency_ms" in text

    def test_serve_batch_kind_mismatch_errors(self, tmp_path, capsys):
        mia_path = tmp_path / "mia.npz"
        main([
            "build-mia", "--dataset", "brightkite", "--scale", "0.1",
            "--out", str(mia_path), "--anchors", "8", "--tau", "16",
        ])
        capsys.readouterr()
        queries = self._write_queries(tmp_path, count=2)
        rc = main([
            "serve-batch", "--dataset", "brightkite", "--scale", "0.1",
            "--index", str(mia_path), "--queries", str(queries),
            "--method", "ris",
        ])
        assert rc == 2
        assert "MIA-DA" in capsys.readouterr().err

    def test_serve_batch_mia_autodetect(self, tmp_path, capsys):
        mia_path = tmp_path / "mia.npz"
        main([
            "build-mia", "--dataset", "brightkite", "--scale", "0.1",
            "--out", str(mia_path), "--anchors", "8", "--tau", "16",
        ])
        capsys.readouterr()
        queries = self._write_queries(tmp_path, count=2)
        rc = main([
            "serve-batch", "--dataset", "brightkite", "--scale", "0.1",
            "--index", str(mia_path), "--queries", str(queries),
        ])
        assert rc == 0
        assert "MIA-DA" in capsys.readouterr().out

    def test_serve_batch_bad_query_file(self, tmp_path, capsys):
        index_path = self._build_ris(tmp_path, capsys)
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"x": 1.0}\n', encoding="utf-8")
        rc = main([
            "serve-batch", "--dataset", "brightkite", "--scale", "0.1",
            "--index", str(index_path), "--queries", str(bad),
        ])
        assert rc == 2
        assert "bad query line" in capsys.readouterr().err

    def test_serve_batch_empty_query_file(self, tmp_path, capsys):
        index_path = self._build_ris(tmp_path, capsys)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        rc = main([
            "serve-batch", "--dataset", "brightkite", "--scale", "0.1",
            "--index", str(index_path), "--queries", str(empty),
        ])
        assert rc == 2

    def _write_mixed_queries(self, tmp_path):
        import json
        path = tmp_path / "kinds.jsonl"
        lines = [
            json.dumps({"x": 50.0, "y": 50.0, "k": 3}),
            json.dumps({"kind": "trajectory",
                        "waypoints": [[10.0, 10.0], [50.0, 50.0]], "k": 3}),
            json.dumps({"kind": "targeted", "x": 50.0, "y": 50.0, "k": 3,
                        "targets": list(range(0, 40, 2))}),
            json.dumps({"kind": "budgeted", "x": 20.0, "y": 80.0,
                        "budget": 3, "costs": [[0, 0.5]]}),
            json.dumps({"kind": "heuristic", "x": 80.0, "y": 20.0, "k": 3}),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_serve_batch_mixed_kinds_multiprocess_parity(
        self, tmp_path, capsys
    ):
        """All five query kinds through --processes 2: row-for-row seed
        parity with the in-process run, per-kind Prometheus counters."""
        import json
        from repro.obs.prom import parse_prometheus

        index_path = self._build_ris(tmp_path, capsys)
        queries = self._write_mixed_queries(tmp_path)
        single_out = tmp_path / "single.jsonl"
        rc = main([
            "serve-batch", "--dataset", "brightkite", "--scale", "0.1",
            "--index", str(index_path), "--queries", str(queries),
            "--out", str(single_out),
        ])
        assert rc == 0
        capsys.readouterr()
        pool_out = tmp_path / "pool.jsonl"
        prom_path = tmp_path / "kinds.prom"
        rc = main([
            "serve-batch", "--dataset", "brightkite", "--scale", "0.1",
            "--index", str(index_path), "--queries", str(queries),
            "--out", str(pool_out), "--processes", "2",
            "--metrics-prom", str(prom_path),
        ])
        assert rc == 0
        single = [
            json.loads(line)
            for line in single_out.read_text().splitlines() if line
        ]
        pooled = [
            json.loads(line)
            for line in pool_out.read_text().splitlines() if line
        ]
        assert len(pooled) == 5
        assert [r["seeds"] for r in pooled] == [r["seeds"] for r in single]
        kinds = [r["kind"] for r in pooled]
        assert kinds == [
            "point", "trajectory", "targeted", "budgeted", "heuristic",
        ]
        traj = pooled[1]
        assert len(traj["waypoint_seeds"]) == 2
        assert traj["seeds"] == traj["waypoint_seeds"][-1]
        heur = pooled[4]
        assert heur["fallback"] and heur["fallback_reason"] == "requested"
        assert "heuristic_score" in heur and "estimate" not in heur
        for row in pooled[:4]:
            assert not row["fallback"] and "estimate" in row
        parsed = parse_prometheus(prom_path.read_text())
        for kind in kinds:
            assert parsed.value(
                "repro_serve_queries_total", kind=kind
            ) == 1, kind


class TestInfo:
    def test_info_prints_runtime_snapshot(self, capsys):
        import json

        rc = main(["info"])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert info["python"]
        assert info["numpy"]
        assert info["cpu_count"] >= 1


class TestObservabilityFlags:
    def _build_ris(self, tmp_path, capsys, extra=()):
        index_path = tmp_path / "idx.npz"
        rc = main([
            "build-ris", "--dataset", "brightkite", "--scale", "0.1",
            "--out", str(index_path), "--k-max", "5", "--pivots", "6",
            "--epsilon-pivot", "0.4", "--max-samples", "5000", *extra,
        ])
        assert rc == 0
        capsys.readouterr()
        return index_path

    def _write_queries(self, tmp_path, count=4, k=3):
        import json

        path = tmp_path / "queries.jsonl"
        lines = [
            json.dumps({"x": 10.0 * i, "y": 20.0, "k": k})
            for i in range(count)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_build_trace_out_writes_trace(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "build-trace.json"
        self._build_ris(
            tmp_path, capsys, extra=["--trace-out", str(trace_path)]
        )
        doc = json.loads(trace_path.read_text())
        names = {s["name"] for s in doc["spans"]}
        assert {"ris.build", "ris.pivot_phase", "ris.voronoi_sizing"} <= names
        assert doc["environment"]["python"]

    def test_build_log_json_emits_events(self, tmp_path, capsys):
        import json

        self._build_ris(tmp_path, capsys, extra=["--log-json"])
        # _build_ris drained capsys; rebuild to capture stderr this time.
        rc = main([
            "build-mia", "--dataset", "brightkite", "--scale", "0.1",
            "--out", str(tmp_path / "mia.npz"), "--anchors", "8",
            "--tau", "16", "--log-json",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        events = [json.loads(line) for line in err.splitlines() if line]
        names = [e["event"] for e in events]
        assert "build_start" in names and "build_end" in names
        end = next(e for e in events if e["event"] == "build_end")
        assert end["phase"] == "mia.build"
        assert end["rounds"] >= 1 and end["tie_roots"] >= 0

    def test_serve_batch_rows_carry_trace_ids(self, tmp_path, capsys):
        import json

        index_path = self._build_ris(tmp_path, capsys)
        queries = self._write_queries(tmp_path)
        out_path = tmp_path / "results.jsonl"
        trace_path = tmp_path / "serve-trace.json"
        rc = main([
            "serve-batch", "--dataset", "brightkite", "--scale", "0.1",
            "--index", str(index_path), "--queries", str(queries),
            "--out", str(out_path), "--trace-out", str(trace_path),
        ])
        assert rc == 0
        rows = [
            json.loads(line)
            for line in out_path.read_text().splitlines() if line
        ]
        doc = json.loads(trace_path.read_text())
        traced_ids = {s["trace_id"] for s in doc["spans"]}
        for row in rows:
            assert row["fallback"] is False
            assert row["fallback_reason"] is None
            assert "estimate" in row and "heuristic_score" not in row
            assert row["trace_id"] in traced_ids

    def test_serve_batch_slow_query_log(self, tmp_path, capsys):
        import json

        index_path = self._build_ris(tmp_path, capsys)
        queries = self._write_queries(tmp_path, count=3)
        slow_path = tmp_path / "slow.jsonl"
        rc = main([
            "serve-batch", "--dataset", "brightkite", "--scale", "0.1",
            "--index", str(index_path), "--queries", str(queries),
            "--out", str(tmp_path / "r.jsonl"), "--cache-size", "0",
            "--slow-query-ms", "0", "--slow-query-out", str(slow_path),
        ])
        assert rc == 0
        rows = [
            json.loads(line)
            for line in slow_path.read_text().splitlines() if line
        ]
        assert len(rows) == 3
        for row in rows:
            assert row["span_tree"], "slow row must embed the span tree"
            assert row["diagnostics"]
        assert "slow queries" in capsys.readouterr().out

    def test_serve_batch_prometheus_export(self, tmp_path, capsys):
        from repro.obs.prom import parse_prometheus

        index_path = self._build_ris(tmp_path, capsys)
        queries = self._write_queries(tmp_path, count=2)
        prom_path = tmp_path / "metrics.prom"
        rc = main([
            "serve-batch", "--dataset", "brightkite", "--scale", "0.1",
            "--index", str(index_path), "--queries", str(queries),
            "--out", str(tmp_path / "r.jsonl"),
            "--metrics-prom", str(prom_path),
        ])
        assert rc == 0
        parsed = parse_prometheus(prom_path.read_text())
        assert parsed.value("repro_queries_total") == 2
