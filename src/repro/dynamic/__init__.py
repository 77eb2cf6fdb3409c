"""Dynamic graphs: exact answers under edge mutation, without a full rebuild.

Experimental tier.  :class:`DeltaOverlayIndex` wraps any built
:class:`~repro.labeling.base.DistanceIndex` and absorbs edge
insertions/deletions into a patch consulted at query time — answers
stay exact on the current graph (see :mod:`repro.dynamic.overlay` for
the correctness model).  :class:`BackgroundReindexer` drains the patch
by rebuilding and hot-swapping the verified fresh index under the
live overlay.

The module is deliberately *not* re-exported from the stable
:mod:`repro` root: the API may still move while the tier matures.
"""

from repro.dynamic.overlay import (
    OP_ADD,
    OP_REMOVE,
    DeltaOverlayIndex,
    MutationOp,
    OverlaySnapshot,
)
from repro.dynamic.rebuild import BackgroundReindexer, RebuildResult

__all__ = [
    "BackgroundReindexer",
    "DeltaOverlayIndex",
    "MutationOp",
    "OP_ADD",
    "OP_REMOVE",
    "OverlaySnapshot",
    "RebuildResult",
]
