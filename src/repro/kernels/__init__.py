"""Vectorized query kernels over the CSR flat backend (experimental tier).

The flat backend of :mod:`repro.storage` packs labels into contiguous
typed arrays — exactly the layout NumPy can view zero-copy and reduce
in a handful of array ops.  This package holds those kernels:

* :mod:`repro.kernels.views` — cached ``np.frombuffer`` views onto
  :class:`~repro.storage.flat_labels.FlatLabelStore` /
  :class:`~repro.storage.flat_tree.FlatTreeLabelStore`;
* :mod:`repro.kernels.label_kernels` — point and batch 2-hop
  intersections over one flat label store;
* :mod:`repro.kernels.ct_kernels` — the CT-Index 4-case dispatch,
  including the Lemma 9 extension operation as array reductions;
* :mod:`repro.kernels.psl_rounds`, :mod:`repro.kernels.pll_search` and
  :mod:`repro.kernels.tree_labels` — construction kernels: the PSL
  rounds, the weighted PLL searches and the level-synchronous forest
  labels, each label-identical to its pure-Python path.  Construction
  reads no flat store, so builders resolve ``"auto"`` with
  ``flat=True``.

NumPy stays **optional**: this module imports without it, and the
submodules above (which do ``import numpy``) are only loaded once
:func:`resolve_kernel` has decided the numpy kernel applies.  Kernel
selection is explicit everywhere it is wired through
(``kernel="numpy" | "python" | "auto"``):

* ``"python"`` — always the interpreter kernels (works on any backend);
* ``"numpy"`` — require the vectorized kernels; raises
  :class:`~repro.exceptions.ConfigurationError` when NumPy is missing
  (install the ``repro[fast]`` extra) or the index is not on the flat
  backend (the kernels read CSR arrays);
* ``"auto"`` (default) — numpy when available *and* the backend is
  flat, silently falling back to python otherwise.

Every kernel is answer-identical to the scalar path — the differential
suite pins this — so selection is purely a performance choice.

:func:`numpy_available` alone also picks the NumPy paths that sit beside
their Python references outside this package: the twin reduction
(:mod:`repro.graphs.reductions`), the core-tree parents
(:mod:`repro.treedec.core_tree`), the LCA Euler tour and sparse table
(:mod:`repro.treedec.lca`), the tree-label packer and validator
(:mod:`repro.storage.flat_tree`) and the snapshot writer and loader
checks (:mod:`repro.storage.binary`).  Their outputs are identical
either way.
"""

from __future__ import annotations

import repro.obs as _obs
from repro.exceptions import ConfigurationError

#: Kernel spellings accepted by every ``kernel=`` argument.
KERNEL_AUTO = "auto"
KERNEL_NUMPY = "numpy"
KERNEL_PYTHON = "python"
KERNEL_NAMES = (KERNEL_AUTO, KERNEL_NUMPY, KERNEL_PYTHON)

#: The optional extra that brings NumPy in (named in error messages).
FAST_EXTRA = "repro[fast]"

#: Cached availability probe result (None = not probed yet).  Tests
#: monkeypatch this to simulate a NumPy-less environment.
_NUMPY_STATE: bool | None = None


def numpy_available() -> bool:
    """True when ``import numpy`` succeeds (probed once, then cached)."""
    global _NUMPY_STATE
    if _NUMPY_STATE is None:
        try:
            import numpy  # noqa: F401

            _NUMPY_STATE = True
        except ImportError:
            _NUMPY_STATE = False
    return _NUMPY_STATE


def validate_kernel(kernel: str) -> str:
    """Check a ``kernel=`` argument, returning it unchanged.

    Raises :class:`ConfigurationError` on anything but ``"auto"``,
    ``"numpy"`` or ``"python"``.
    """
    if kernel not in KERNEL_NAMES:
        raise ConfigurationError(
            f"unknown query kernel {kernel!r}; expected one of {KERNEL_NAMES}"
        )
    return kernel


def resolve_kernel(kernel: str = KERNEL_AUTO, *, flat: bool = True) -> str:
    """Resolve a kernel request to ``"numpy"`` or ``"python"``.

    ``flat`` says whether the index's labels are on the CSR flat
    backend (the only layout the numpy kernels can view).  An explicit
    ``"numpy"`` request that cannot be honoured raises
    :class:`ConfigurationError`; ``"auto"`` never raises.
    """
    validate_kernel(kernel)
    if kernel == KERNEL_PYTHON:
        return KERNEL_PYTHON
    if kernel == KERNEL_NUMPY:
        if not numpy_available():
            raise ConfigurationError(
                "kernel='numpy' requires NumPy, which is not installed; "
                f"install the optional extra ({FAST_EXTRA}) or use "
                "kernel='python'"
            )
        if not flat:
            raise ConfigurationError(
                "kernel='numpy' reads the CSR arrays of the flat storage "
                "backend; call compact() (or build with backend='flat') "
                "before selecting it"
            )
        return KERNEL_NUMPY
    # auto: vectorize when possible, never complain when not.
    return KERNEL_NUMPY if (flat and numpy_available()) else KERNEL_PYTHON


def record_kernel_queries(kernel: str, count: int = 1) -> None:
    """Bump the per-kernel query counter in the shared obs registry.

    No-op while observability is disabled (the production default), so
    the hot path pays one predicate call.
    """
    if _obs.enabled():
        _obs.registry().counter("kernels.queries", kernel=kernel).inc(count)


__all__ = [
    "FAST_EXTRA",
    "KERNEL_AUTO",
    "KERNEL_NAMES",
    "KERNEL_NUMPY",
    "KERNEL_PYTHON",
    "numpy_available",
    "record_kernel_queries",
    "resolve_kernel",
    "validate_kernel",
]
