"""The counting-backend registry: dict, hashtree, vertical and packed.

A :class:`CountingBackend` counts one Apriori pass — all the same-size
candidates against one transaction segment (:meth:`~CountingBackend.count_pass`)
or against every time unit of a partition at once
(:meth:`~CountingBackend.count_units`) — and returns the support of
every candidate.  The two classic horizontal strategies
(:class:`~repro.core.counting.DictCounter` subset enumeration and the
Agrawal–Srikant hash tree) walk basket tuples; the ``vertical`` backend
intersects the segment's per-item bitmaps instead
(:class:`~repro.columnar.bitmaps.VerticalIndex`), which moves the hot
path out of the interpreter entirely; ``packed`` intersects whole
candidate blocks column-wise, removing even the per-prefix-group Python
loop.  Per unit, both bitmap backends run the same segmented kernel over
one unit-aligned index (:class:`~repro.columnar.bitmaps.UnitIndex`);
the horizontal backends loop over the units, which is what makes them
the independent reference the property suite compares against.

Every backend is registered by name, and this module is the one place
that knows what ``"auto"`` means: the ``packed`` kernel
(:data:`AUTO_BACKEND`), for every pass.  All backends produce
bit-identical counts (the property suite enforces this), so selecting
one is purely a performance decision.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.columnar.bitmaps import VerticalIndex, candidate_ids
from repro.core.counting import DictCounter, HashTreeCounter
from repro.core.items import Item, Itemset
from repro.core.levels import as_itemsets
from repro.errors import MiningParameterError
from repro.obs.metrics import default_registry
from repro.runtime.budget import RunMonitor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.columnar.encoded import EncodedUnits

#: Baskets counted between two monitor checkpoints (horizontal backends).
_CHECK_STRIDE = 4096

#: The backend ``"auto"`` resolves to, everywhere.
AUTO_BACKEND = "packed"

#: A pass of same-size candidates: itemsets, or a level's ``(n, k)`` id matrix.
Candidates = Union[Sequence[Itemset], np.ndarray]


class BasketSegment:
    """A segment backed by materialized basket tuples.

    The adapter that lets horizontal data (e.g. Apriori's
    transaction-reduced working set) flow through the same backend
    interface as :class:`~repro.columnar.encoded.EncodedSegment`.
    """

    __slots__ = ("_baskets", "_n_item_rows", "_vertical")

    def __init__(
        self,
        baskets: Sequence[Tuple[Item, ...]],
        n_item_rows: Optional[int] = None,
    ):
        self._baskets = baskets
        self._n_item_rows = n_item_rows
        self._vertical: Optional[VerticalIndex] = None

    def __len__(self) -> int:
        return len(self._baskets)

    def baskets(self) -> Sequence[Tuple[Item, ...]]:
        return self._baskets

    def vertical(self) -> VerticalIndex:
        if self._vertical is None:
            self._vertical = VerticalIndex.from_baskets(
                self._baskets, self._n_item_rows
            )
        return self._vertical


class CountingBackend(abc.ABC):
    """One pass-level candidate-counting strategy."""

    #: Registry key; subclasses must override.
    name: str = ""
    #: True when the backend counts via the segment's bitmap index.
    uses_vertical: bool = False

    @abc.abstractmethod
    def count_pass(
        self,
        candidates: Sequence[Itemset],
        segment,
        monitor: Optional[RunMonitor] = None,
    ) -> Dict[Itemset, int]:
        """Support of every candidate within ``segment``.

        A monitored call checkpoints periodically and may raise
        :class:`~repro.runtime.budget.RunInterrupted`; the caller then
        discards the incomplete pass, preserving exact-count semantics.
        """

    def count_units(
        self,
        candidates: Candidates,
        units: "EncodedUnits",
        live: Optional[np.ndarray] = None,
        monitor: Optional[RunMonitor] = None,
    ) -> np.ndarray:
        """Support of every candidate within every unit of ``units``.

        ``candidates`` is a sequence of same-size itemsets or a level's
        ``(n, k)`` id matrix.  Returns an ``(n_candidates, n_units)``
        int64 matrix whose rows align with ``candidates``; units where
        the boolean ``live`` mask is ``False`` are not scanned and stay
        zero.  This default is the plain loop — one :meth:`count_pass`
        per non-empty live unit — that the reference backends keep; the
        bitmap backends override it with one segmented call for all
        units.
        """
        if isinstance(candidates, np.ndarray):
            candidates = as_itemsets(candidates)
        matrix = np.zeros((len(candidates), len(units)), dtype=np.int64)
        for unit in range(len(units)) if live is None else np.flatnonzero(live):
            segment = units.segment(int(unit))
            if len(segment):
                counted = self.count_pass(candidates, segment, monitor=monitor)
                matrix[:, unit] = [counted[candidate] for candidate in candidates]
        return matrix


class _HorizontalBackend(CountingBackend):
    """Shared scan loop for the per-transaction counting strategies."""

    #: The per-transaction counter class; subclasses must override.
    counter_class: type

    def count_pass(
        self,
        candidates: Sequence[Itemset],
        segment,
        monitor: Optional[RunMonitor] = None,
    ) -> Dict[Itemset, int]:
        monitor = monitor or RunMonitor()
        counter = self.counter_class(candidates)
        baskets = segment.baskets()
        for start in range(0, len(baskets), _CHECK_STRIDE):
            monitor.checkpoint()
            for basket in baskets[start : start + _CHECK_STRIDE]:
                counter.count_transaction(basket)
        return counter.counts()


class DictBackend(_HorizontalBackend):
    """Subset enumeration against a candidate dictionary."""

    name = "dict"
    counter_class = DictCounter


class HashTreeBackend(_HorizontalBackend):
    """The 1994 Agrawal–Srikant hash tree."""

    name = "hashtree"
    counter_class = HashTreeCounter


class _BitmapBackend(CountingBackend):
    """Shared per-unit kernel of the bitmap backends.

    ``vertical`` and ``packed`` differ in how they walk one segment's
    candidates; across units there is one way to do it.
    """

    uses_vertical = True

    def count_units(
        self,
        candidates: Candidates,
        units: "EncodedUnits",
        live: Optional[np.ndarray] = None,
        monitor: Optional[RunMonitor] = None,
    ) -> np.ndarray:
        index = units.index(live)
        matrix = np.zeros((len(candidates), len(units)), dtype=np.int64)
        index.count_into(
            candidate_ids(candidates, index.n_item_rows), matrix, monitor=monitor
        )
        return matrix


class VerticalBackend(_BitmapBackend):
    """Bitmap-intersection counting over the segment's vertical index."""

    name = "vertical"

    def count_pass(
        self,
        candidates: Sequence[Itemset],
        segment,
        monitor: Optional[RunMonitor] = None,
    ) -> Dict[Itemset, int]:
        return segment.vertical().count_candidates(candidates, monitor=monitor)


class PackedBackend(_BitmapBackend):
    """Chunked-int popcount over whole candidate blocks.

    The planner's vectorized kernel: instead of walking shared-prefix
    groups, it intersects the vertical index one item *column* at a time
    across thousands of candidates per numpy call
    (:meth:`~repro.columnar.bitmaps.VerticalIndex.count_candidates_packed`).
    """

    name = "packed"

    def count_pass(
        self,
        candidates: Sequence[Itemset],
        segment,
        monitor: Optional[RunMonitor] = None,
    ) -> Dict[Itemset, int]:
        return segment.vertical().count_candidates_packed(
            candidates, monitor=monitor
        )


_REGISTRY: Dict[str, CountingBackend] = {}


def register_backend(backend: CountingBackend) -> CountingBackend:
    """Register a backend instance under its ``name`` (last one wins)."""
    if not backend.name:
        raise MiningParameterError("counting backends must declare a name")
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def validate_backend_name(name: str) -> str:
    """``name`` if it is ``"auto"`` or a registered backend; raises otherwise.

    The single validator behind every surface that accepts a backend
    name (miner arguments, ``SET ENGINE``, planner pins).
    """
    if name != "auto" and name not in _REGISTRY:
        known = ", ".join(["auto"] + available_backends())
        raise MiningParameterError(
            f"unknown counting backend {name!r}; available: {known}"
        )
    return name


def get_backend(name: str) -> CountingBackend:
    """The backend registered as ``name`` (``"auto"`` is the packed kernel)."""
    return _REGISTRY[AUTO_BACKEND if validate_backend_name(name) == "auto" else name]


def resolve_backend(strategy: str) -> CountingBackend:
    """Resolve a strategy name for one counting pass and record the dispatch.

    Call it once per pass, in the process whose metrics get scraped;
    shard workers receive the resolved name and use :func:`get_backend`.
    """
    backend = get_backend(strategy)
    default_registry().counter(
        "repro_counting_dispatch_total",
        "Counting passes dispatched, by resolved backend.",
        labelnames=("backend",),
    ).inc(backend=backend.name)
    return backend


register_backend(DictBackend())
register_backend(HashTreeBackend())
register_backend(VerticalBackend())
register_backend(PackedBackend())
