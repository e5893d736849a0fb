"""Native-speed selection and sampling kernels (optional numba backend).

See DESIGN.md, "Native kernels".  Public surface:

* :func:`resolve_backend` — this host's backend: ``"numba"`` when numba
  imports, compiles and passes its warm-up self-check, else ``"numpy"``.
* :func:`available_backends` / :func:`numba_version` — host probes,
  stamped into ``repro info`` and benchmark environment blocks.
* :func:`kernels` — the compiled :class:`KernelSet` of the numba
  backend (the numpy backend is the vectorized code in
  :mod:`repro.ris` itself).

Importing this package never imports numba.
"""

from repro.kernels.registry import (
    KernelSet,
    available_backends,
    kernels,
    numba_version,
    resolve_backend,
)

__all__ = [
    "KernelSet",
    "available_backends",
    "kernels",
    "numba_version",
    "resolve_backend",
]
