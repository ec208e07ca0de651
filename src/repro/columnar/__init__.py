"""Columnar transaction layout and vertical (bitmap) support counting.

This package is the data plane underneath every mining pass:

* :class:`EncodedDatabase` — transactions dense-encoded to int32 item
  ids and stored in a CSR layout (one flat item array plus offsets),
  sliceable by position or time unit without copying.
* :class:`VerticalIndex` — per-item packed uint64 bitmaps over a
  transaction range; candidate support is bitmap intersection plus
  popcount, the Eclat-style vertical representation.
* :class:`EncodedUnits` / :class:`UnitIndex` — the store cut into time
  units and its unit-aligned bitmap index: every unit on its own words,
  so one segmented popcount yields a pass's support in every unit.
* The :data:`counting-backend registry <repro.columnar.backends>` —
  ``dict``, ``hashtree``, ``vertical`` and ``packed`` strategies behind
  one pass-level interface, selectable from :mod:`repro.core.apriori`,
  :mod:`repro.mining.context`, the engine, and TML ``SET ENGINE``
  (``AUTO`` is the ``packed`` kernel at every one of them).
* :mod:`repro.columnar.perunit` — the per-unit counting entry points
  (item counts and candidate counts in every time unit, one vectorized
  call per pass), shared by the serial context and the shard workers.

All backends produce bit-identical support counts; only the work they
do to obtain them differs.  The property suite enforces the agreement.
"""

from repro.columnar.backends import (
    BasketSegment,
    CountingBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.columnar.bitmaps import UnitIndex, VerticalIndex, popcount_rows, popcount_sum
from repro.columnar.encoded import EncodedDatabase, EncodedSegment, EncodedUnits

__all__ = [
    "BasketSegment",
    "CountingBackend",
    "EncodedDatabase",
    "EncodedSegment",
    "EncodedUnits",
    "UnitIndex",
    "VerticalIndex",
    "available_backends",
    "get_backend",
    "popcount_rows",
    "popcount_sum",
    "register_backend",
    "resolve_backend",
]
