"""Backend registry for the native selection/sampling kernels.

There are two backends, and the host picks between them:

* ``"numpy"`` — the vectorized kernels in :mod:`repro.ris.coverage` and
  :mod:`repro.ris.coupled`; always available and the parity oracle.
* ``"numba"`` — the loops in :mod:`repro.kernels.loops` compiled with
  ``numba.njit(cache=True)``.  Loading it imports numba (never at
  module import time — numba is an optional extra), compiles the
  kernels, and runs a warm-up self-check: every compiled kernel is
  executed on tiny synthetic inputs and compared against its own
  interpreted body.  A host without numba, a compile failure, or a
  warm-up mismatch all raise :class:`~repro.exceptions.KernelError`.

The backends are bit-identical, so the choice is a speed, never an
answer: :func:`resolve_backend` returns ``"numba"`` when it loads and
``"numpy"`` otherwise, and caches the outcome so a numba-less host pays
the probe once per process.  Every index resolves at build or load;
everything downstream — query kernels, serve engine metrics labels,
spans, ``repro info``, benchmark environment blocks — carries that name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.exceptions import KernelError

@dataclass(frozen=True)
class KernelSet:
    """The compiled kernel entry points of one native backend."""

    name: str
    score_build: Callable
    greedy_select: Callable
    budgeted_eager_select: Callable
    coupled_batch: Callable


#: Cached numba load outcome: unset / KernelSet / the failure message.
_numba_state: dict = {"loaded": False, "kernels": None, "error": None}


def numba_version() -> Optional[str]:
    """Installed numba version, or ``None`` (an import probe, no compile)."""
    try:
        import numba  # noqa: F401 — optional extra, probed at runtime
    except Exception:
        return None
    return getattr(numba, "__version__", "unknown")


def _warmup(ks: KernelSet, interpreted) -> None:
    """Run every compiled kernel on tiny inputs vs its interpreted body.

    The interpreted body is the exact source numba compiled, so any
    divergence is a miscompile (or an unsupported-host quirk) — in
    either case the backend must not serve queries.  Raises
    :class:`KernelError` on mismatch.
    """
    # A 6-node, 8-sample toy corpus in flat CSR form, with one weight-0
    # sample and one repeated-root sample to exercise the edge cases.
    flat = np.array(
        [0, 1, 2, 1, 3, 2, 4, 0, 5, 3, 4, 5, 1, 2, 5, 0], dtype=np.int64
    )
    offsets = np.array([0, 3, 5, 7, 9, 12, 15, 15, 16], dtype=np.int64)
    l = 8
    n = 6
    weights = np.array(
        [0.9, 0.4, 0.0, 0.7, 0.3, 0.55, 0.2, 0.8], dtype=np.float64
    )
    # Inverted index (node -> ascending sample ids) built the corpus way.
    sample_of_entry = np.repeat(
        np.arange(l, dtype=np.int64), np.diff(offsets)
    )
    inv_order = np.argsort(flat, kind="stable")
    inv_samples = sample_of_entry[inv_order]
    inv_offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(inv_offsets, flat + 1, 1)
    np.cumsum(inv_offsets, out=inv_offsets)
    costs = np.array([1.0, 2.0, 0.5, 1.5, 1.0, 3.0], dtype=np.float64)

    def check(label, compiled_out, interp_out):
        comp = compiled_out if isinstance(compiled_out, tuple) else (compiled_out,)
        ref = interp_out if isinstance(interp_out, tuple) else (interp_out,)
        for a, b in zip(comp, ref):
            if not np.array_equal(np.asarray(a), np.asarray(b)):
                raise KernelError(
                    f"numba kernel {label!r} failed its warm-up parity "
                    f"self-check: {a!r} != {b!r}"
                )

    score_ref = interpreted.score_build(flat, offsets, weights, l, n)
    check("score_build", ks.score_build(flat, offsets, weights, l, n), score_ref)
    check(
        "greedy_select",
        ks.greedy_select(flat, offsets, inv_samples, inv_offsets, weights,
                         score_ref.copy(), l, 3, 1e-12),
        interpreted.greedy_select(flat, offsets, inv_samples, inv_offsets,
                                  weights, score_ref.copy(), l, 3, 1e-12),
    )
    check(
        "budgeted_eager_select",
        ks.budgeted_eager_select(flat, offsets, inv_samples, inv_offsets,
                                 weights, score_ref.copy(), costs, 3.5, l,
                                 1e-12),
        interpreted.budgeted_eager_select(flat, offsets, inv_samples,
                                          inv_offsets, weights,
                                          score_ref.copy(), costs, 3.5, l,
                                          1e-12),
    )
    # Tiny 5-node ring for the coupled traversal (every edge p=0.6).
    in_offsets = np.array([0, 1, 2, 3, 4, 5], dtype=np.int64)
    in_sources = np.array([4, 0, 1, 2, 3], dtype=np.int64)
    keys = np.arange(6, dtype=np.int64)
    with np.errstate(over="ignore"):
        from repro.kernels import loops

        seed64 = loops.mix64(np.uint64(1234))
        targets = np.arange(5, dtype=np.uint64)
        edge_mix = loops.mix64(
            in_sources.astype(np.uint64) * np.uint64(5) + targets
        )
        thresholds = np.full(5, np.uint64(int(0.6 * (1 << 53))))
        check(
            "coupled_batch",
            ks.coupled_batch(seed64, keys, in_offsets, in_sources,
                             edge_mix, thresholds, 5),
            interpreted.coupled_batch(seed64, keys, in_offsets, in_sources,
                                      edge_mix, thresholds, 5),
        )


class _Interpreted:
    """The loops module's plain-Python bodies, errstate-wrapped."""

    def __getattr__(self, name):
        from repro.kernels import loops

        fn = getattr(loops, name)
        # After compilation the module attribute is a dispatcher; its
        # original body lives on ``py_func``.
        fn = getattr(fn, "py_func", fn)

        def call(*args):
            with np.errstate(over="ignore"):
                return fn(*args)

        return call


def _load_numba() -> KernelSet:
    """Compile (or return the cached) numba kernel set; may raise."""
    if _numba_state["loaded"]:
        if _numba_state["kernels"] is not None:
            return _numba_state["kernels"]
        raise KernelError(_numba_state["error"])
    _numba_state["loaded"] = True
    try:
        import numba

        from repro.kernels import loops

        compiled = {}
        for name in loops.KERNEL_NAMES:
            fn = getattr(loops, name)
            if hasattr(fn, "py_func"):  # already compiled (re-entry)
                compiled[name] = fn
            else:
                compiled[name] = numba.njit(cache=True)(fn)
        # jit_module-style rebinding: intra-kernel calls resolve through
        # the module globals, which must hold dispatchers before the
        # (lazy) first compilation of any caller.
        for name, disp in compiled.items():
            setattr(loops, name, disp)
        ks = KernelSet(
            name="numba",
            score_build=compiled["score_build"],
            greedy_select=compiled["greedy_select"],
            budgeted_eager_select=compiled["budgeted_eager_select"],
            coupled_batch=compiled["coupled_batch"],
        )
        _warmup(ks, _Interpreted())
    except KernelError as exc:
        _numba_state["error"] = str(exc)
        raise
    except Exception as exc:  # import error, compile error, typing error
        _numba_state["error"] = (
            f"numba backend unavailable: {type(exc).__name__}: {exc}"
        )
        raise KernelError(_numba_state["error"]) from exc
    _numba_state["kernels"] = ks
    return ks


def kernels(backend: str) -> KernelSet:
    """The compiled :class:`KernelSet` of a resolved backend.

    Only ``"numba"`` has one — the numpy backend *is* the vectorized
    code in :mod:`repro.ris`, not a kernel table.
    """
    if backend != "numba":
        raise KernelError(
            f"no compiled kernel set for backend {backend!r} "
            "(the numpy backend is the vectorized code itself)"
        )
    return _load_numba()


def resolve_backend() -> str:
    """This host's backend: ``"numba"`` if it loads and warms, else ``"numpy"``.

    The numba load (import, compile, warm-up check) runs once per
    process; its failure is cached and answered with ``"numpy"``.
    """
    try:
        _load_numba()
    except KernelError:
        return "numpy"
    return "numba"


def available_backends() -> tuple:
    """Concrete backends usable on this host (probes the numba load)."""
    if resolve_backend() == "numba":
        return ("numpy", "numba")
    return ("numpy",)
