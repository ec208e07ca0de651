"""Worker-side counting kernels for the sharded executor.

Everything in this module runs inside pool worker processes, so it must
stay import-light and top-level picklable.  The big CSR arrays never
travel through task pickles:

* On ``fork`` platforms (Linux), the parent registers the arrays in
  :data:`_REGISTRY` *before* forking the pool; children inherit the
  registry copy-on-write, so a shard task only carries the registry
  token plus its (small) unit-boundary slice — a pickle-free shared
  buffer in effect.
* On ``spawn``-only platforms, the pool initializer receives a registry
  snapshot once per worker process; per-task payloads are identical.

Workers cache the :class:`~repro.columnar.encoded.EncodedUnits` of every
shard they are handed, so a shard's unit-aligned bitmap index is built
once per worker and reused by every Apriori pass — the same reuse the
serial :class:`~repro.mining.context.TemporalContext` gets from its own
partition.  The counting itself is the shared per-unit code in
:mod:`repro.columnar.perunit`, run over the shard's slice of the bounds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.columnar.backends import Candidates, get_backend
from repro.columnar.encoded import EncodedDatabase, EncodedUnits
from repro.columnar.perunit import count_candidates_per_unit, count_items_per_unit

#: Injected worker failure modes (see WorkerFaultPlan in runtime.faultinject).
FAULT_ERROR = "error"
FAULT_KILL = "kill"

#: token -> (item_ids, offsets, n_items); populated in the parent before
#: the pool forks (children inherit it) or via the spawn initializer.
_REGISTRY: Dict[str, Tuple[np.ndarray, np.ndarray, int]] = {}

#: Worker-local caches: the view of each registered database, and the
#: partition of each (database, shard boundary slice) counted so far.
_VIEWS: Dict[str, EncodedDatabase] = {}
_UNITS: Dict[Tuple[str, bytes], EncodedUnits] = {}


def register_encoded(
    token: str, item_ids: np.ndarray, offsets: np.ndarray, n_items: int
) -> None:
    """Parent side: expose one encoded database's columns under ``token``."""
    _REGISTRY[token] = (item_ids, offsets, n_items)


def unregister_encoded(token: str) -> None:
    """Parent side: drop a registration (workers re-fork without it)."""
    _REGISTRY.pop(token, None)
    _VIEWS.pop(token, None)


def registry_snapshot() -> Dict[str, Tuple[np.ndarray, np.ndarray, int]]:
    """The current registrations, for the spawn-path pool initializer."""
    return dict(_REGISTRY)


def init_worker(snapshot: Dict[str, Tuple[np.ndarray, np.ndarray, int]]) -> None:
    """Pool initializer for start methods without fork inheritance."""
    _REGISTRY.update(snapshot)


@dataclass(frozen=True)
class ShardTask:
    """One shard's worth of counting work.

    Attributes:
        token: registry key of the encoded database to scan.
        index: shard index (parent merges results in this order).
        unit_bounds: absolute transaction-position boundaries of the
            shard's units (length ``n_units + 1``).
        fault: deterministic fault to inject (chaos tests only).
    """

    token: str
    index: int
    unit_bounds: np.ndarray
    fault: Optional[str] = None


def _maybe_fault(task: ShardTask) -> None:
    if task.fault == FAULT_ERROR:
        raise RuntimeError(f"injected worker fault in shard {task.index}")
    if task.fault == FAULT_KILL:
        os._exit(17)


def _view(token: str) -> EncodedDatabase:
    view = _VIEWS.get(token)
    if view is None:
        try:
            item_ids, offsets, n_items = _REGISTRY[token]
        except KeyError:
            raise RuntimeError(
                f"shard references unknown encoded database {token!r} "
                "(worker forked before it was registered)"
            ) from None
        view = EncodedDatabase(
            item_ids,
            offsets,
            np.empty(0, dtype=np.int64),
            (),
        )
        view._n_items = n_items
        _VIEWS[token] = view
    return view


def _units(task: ShardTask) -> EncodedUnits:
    key = (task.token, task.unit_bounds.tobytes())
    units = _UNITS.get(key)
    if units is None:
        units = _UNITS[key] = EncodedUnits(_view(task.token), task.unit_bounds)
    return units


def count_items_shard(task: ShardTask) -> np.ndarray:
    """Per-unit item supports of one shard: an (n_items, n_units) matrix."""
    _maybe_fault(task)
    return count_items_per_unit(_units(task))


def count_candidates_shard(
    task: ShardTask,
    candidates: Candidates,
    counting: str,
    unit_mask: Optional[np.ndarray] = None,
    candidate_masks: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-unit candidate supports of one shard.

    Returns the ``(n_candidates, n_units)`` matrix of
    :func:`repro.columnar.perunit.count_candidates_per_unit` over the
    shard's slice of the unit bounds (and of either mask).  ``counting``
    is the backend name the parent already resolved for this pass.
    """
    _maybe_fault(task)
    return count_candidates_per_unit(
        _units(task),
        candidates,
        get_backend(counting),
        unit_mask=unit_mask,
        candidate_masks=candidate_masks,
    )
