"""Smoke test of the benchmark itself, at the ``tiny`` size.

Runs every workload briefly (untraced and traced), and checks the output
schema, every metric name against ``BENCHMARK.json``, determinism of the
answer digest, the hygiene guarantees (no child process, ``/dev/shm``
entry or temp directory left behind, also after SIGTERM), and that the
benchmark refuses to run without the program's source.  Run with::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int = 0, seed: int = 1, seconds: float = 1,
          cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["perfbench"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, info["check_failures"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], float)
    assert info["runtime"]["kernel_backend"] in ("numpy", "numba")
    return info, result


def names_units(entries) -> dict:
    return {m["name"]: m["unit"] for m in entries}


def no_leftovers() -> None:
    assert not (ROOT / ".perfbench_tmp").exists()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            argv = (Path("/proc") / entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        # A benchmark process (or a forked pool worker, which shares its
        # argv) has the script as an argument of its own.
        assert not any(arg.endswith(b"perfbench/run.py") for arg in argv), \
            f"process {entry} alive: {argv}"


def test_spec_matches_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert WORKLOADS == list(run.WORKLOAD_NAMES)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]]["why"]
        assert len(w["why"]) <= 200
    assert names_units(SPEC["end_to_end"]) == run.END_TO_END
    assert names_units(SPEC["per_layer"]) == run.PER_LAYER
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_schema_and_digest(workload):
    info, result = result_of(bench(workload, seconds=2))
    assert names_units(SPEC["end_to_end"]) == {
        k: v["unit"] for k, v in result["metrics"].items()}
    # Scaled figures come with the raw ones and the speeds used.
    assert set(info["raw"]) == {"setup_s", "qps", "latency_p50_ms",
                                "latency_p90_ms"}
    assert len(info["host_speed"]["passes"]) == workloads.PASSES
    again, _ = result_of(bench(workload, seconds=2))
    assert again["answers"] == info["answers"] > 0
    assert again["digest"] == info["digest"]
    no_leftovers()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_schema(workload):
    info, result = result_of(bench(workload, trace=1, seconds=2))
    assert names_units(SPEC["per_layer"]) == {
        k: v["unit"] for k, v in result["metrics"].items()}
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert layers["network.generate_s"] > 0
    assert layers["ris.sampler.samples"] > 0
    if workload == "query_mix":
        # The named layers and the unattributed rest add up to the
        # traced query time.
        parts = (layers["core.ris_da.sizing_s"] + layers["geo.weights.busy_s"]
                 + layers["ris.coverage.busy_s"]
                 + layers["core.ris_da.unattributed_frac"]
                 * layers["core.ris_da.query_s"])
        assert parts == pytest.approx(layers["core.ris_da.query_s"])
        assert layers["ris.coverage.calls"] > 0
    if workload == "serve_hotspot":
        assert layers["serve.pool.queries"] > 0
        assert layers["serve.pool.spawn_s"] > 0
        assert layers["obs.sinks.calls"] > 0
    if workload == "update_stream":
        assert layers["stream.updates"] > 0
        assert layers["stream.apply_delta_s"] > 0
    assert (ROOT / info["trace_file"]).is_file()
    no_leftovers()


def test_local_speeds_follow_nearby_slices():
    import calibrate

    ref = calibrate.REF_SLICE_S
    slices = [ref] * 12 + [2 * ref] * 12
    speeds = calibrate.local_speeds(slices, [0, 3, 12, 24])
    assert speeds == [1.0, 1.0, pytest.approx(2 / 3), 0.5]


def test_sigterm_in_pool_phase_leaves_nothing():
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "serve_hotspot",
         "--seed", "3", "--seconds", "1", "--trace", "1", "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        for line in proc.stderr:
            if "pool phase" in line:
                break
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 128 + signal.SIGTERM
    assert '"correct"' not in out
    no_leftovers()


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("query_mix", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
