"""Sharded parallel execution over the columnar layout.

The package implements count-distribution parallelism for the temporal
mining tasks: :mod:`~repro.parallel.sharding` plans contiguous time-unit
shards, :mod:`~repro.parallel.worker` holds the process-pool counting
kernels, and :class:`~repro.parallel.executor.ShardedExecutor` fans
passes out and merges per-shard support matrices deterministically.

No mining task, TML statement or service request reaches this package:
every mining run is serial.  Only the ``executor=`` hooks of
:func:`~repro.mining.context.per_unit_frequent_itemsets` and of the
temporal contexts' count methods still call it.
"""

from repro.parallel.executor import ShardedExecutor
from repro.parallel.sharding import ShardSpec, plan_shards

__all__ = [
    "ShardedExecutor",
    "ShardSpec",
    "plan_shards",
]
