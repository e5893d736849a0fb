"""Tests for the runtime-environment snapshot (repro.obs.env)."""

import json

from repro.obs.env import runtime_info


class TestRuntimeInfo:
    def test_required_keys(self):
        info = runtime_info()
        for key in ("repro_version", "python", "implementation", "platform",
                    "machine", "cpu_count", "numpy", "blas"):
            assert key in info, key

    def test_values_are_concrete(self):
        info = runtime_info()
        assert info["python"].count(".") >= 1
        assert info["numpy"].count(".") >= 1
        assert info["cpu_count"] >= 1
        assert isinstance(info["blas"], str) and info["blas"]

    def test_json_serialisable(self):
        assert json.loads(json.dumps(runtime_info())) == runtime_info()

    def test_one_kernel_backend(self):
        info = runtime_info()
        assert info["kernel_backend"] == "numpy"
        # No probe of an optional JIT package rides along.
        assert set(info) == {
            "repro_version", "python", "implementation", "platform",
            "machine", "cpu_count", "numpy", "kernel_backend", "blas",
            "argv0",
        }
