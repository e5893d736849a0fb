"""Runtime-environment snapshot for attributing performance numbers.

A latency or throughput figure is meaningless without the hardware and
library versions behind it, so the same snapshot is embedded everywhere
numbers leave the process: trace exports (:meth:`repro.obs.Tracer.export`),
the machine-readable benchmark files (``benchmarks/results/BENCH_*.json``),
and the ``repro info`` CLI subcommand.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Any, Dict, Optional


def _blas_info() -> Optional[str]:
    """Best-effort name of the BLAS numpy was built against."""
    import numpy as np

    try:
        # numpy >= 1.25: structured config access.
        cfg = np.show_config(mode="dicts")  # type: ignore[call-arg]
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name")
        version = blas.get("version")
        if name:
            return f"{name} {version}" if version else str(name)
    except TypeError:
        # Older numpy: the legacy site.cfg-style info dicts.
        try:
            info = np.__config__.get_info("blas_opt_info")  # type: ignore[attr-defined]
            libs = info.get("libraries")
            if libs:
                return ",".join(str(x) for x in libs)
        except Exception:
            pass
    except Exception:
        pass
    return None


def runtime_info() -> Dict[str, Any]:
    """The environment snapshot: interpreter, platform, cpu, numpy/BLAS.

    Values are plain JSON types; anything that cannot be determined in
    this environment is ``None`` rather than an exception — the snapshot
    must never break the export it rides along with.
    """
    import numpy as np

    # Imported lazily: repro.__init__ imports repro.obs, so a module-level
    # import here would be circular.
    try:
        from repro import __version__ as repro_version
    except Exception:
        repro_version = None
    try:
        from repro.kernels import numba_version, resolve_backend

        numba = numba_version()
        # This host's backend: numba must be not just importable but
        # compiled and warm-check clean.
        kernel_backend = resolve_backend()
    except Exception:
        numba = None
        kernel_backend = "numpy"
    return {
        "repro_version": repro_version,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "numba": numba,
        "kernel_backend": kernel_backend,
        "blas": _blas_info(),
        "argv0": os.path.basename(sys.argv[0]) if sys.argv else None,
    }
