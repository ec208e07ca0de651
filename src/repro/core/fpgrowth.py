"""FP-growth frequent-itemset mining (Han, Pei & Yin, SIGMOD 2000).

An alternative engine to :mod:`repro.core.apriori` from the same era as
the paper.  It compresses the database into an FP-tree (a prefix tree of
transactions with items ordered by descending support) and mines it by
recursive conditional-pattern-base projection — no candidate generation
and exactly two database scans.

The result type is the same :class:`~repro.core.apriori.FrequentItemsets`,
and the test suite asserts exact agreement with Apriori on every input,
so either engine can back the temporal tasks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.apriori import FrequentItemsets, _min_count, validate_min_support
from repro.core.items import Item, Itemset
from repro.core.transactions import TransactionDatabase
from repro.errors import MiningParameterError
from repro.runtime.budget import RunInterrupted, RunMonitor


class _FPNode:
    __slots__ = ("item", "count", "parent", "children", "link")

    def __init__(self, item: Optional[Item], parent: Optional["_FPNode"]):
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: Dict[Item, "_FPNode"] = {}
        self.link: Optional["_FPNode"] = None  # next node with same item


class _FPTree:
    """An FP-tree with its header table (item → first node link)."""

    def __init__(self) -> None:
        self.root = _FPNode(None, None)
        self.header: Dict[Item, _FPNode] = {}
        self._tails: Dict[Item, _FPNode] = {}

    def insert(self, items: Sequence[Item], count: int) -> None:
        node = self.root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = _FPNode(item, node)
                node.children[item] = child
                tail = self._tails.get(item)
                if tail is None:
                    self.header[item] = child
                else:
                    tail.link = child
                self._tails[item] = child
            child.count += count
            node = child

    def is_single_path(self) -> Optional[List[Tuple[Item, int]]]:
        """The (item, count) chain if the tree is one path, else None."""
        path: List[Tuple[Item, int]] = []
        node = self.root
        while node.children:
            if len(node.children) > 1:
                return None
            (node,) = node.children.values()
            path.append((node.item, node.count))  # type: ignore[arg-type]
        return path

    def prefix_paths(self, item: Item) -> List[Tuple[List[Item], int]]:
        """Conditional pattern base of ``item``: (prefix path, count)."""
        paths: List[Tuple[List[Item], int]] = []
        node = self.header.get(item)
        while node is not None:
            prefix: List[Item] = []
            parent = node.parent
            while parent is not None and parent.item is not None:
                prefix.append(parent.item)
                parent = parent.parent
            prefix.reverse()
            if prefix:
                paths.append((prefix, node.count))
            node = node.link
        return paths

    def item_counts(self) -> Dict[Item, int]:
        counts: Dict[Item, int] = {}
        for item, node in self.header.items():
            total = 0
            cursor: Optional[_FPNode] = node
            while cursor is not None:
                total += cursor.count
                cursor = cursor.link
            counts[item] = total
        return counts


def _build_tree(
    transactions: Iterable[Tuple[Sequence[Item], int]],
    item_order: Dict[Item, int],
    min_count: int,
    item_counts: Dict[Item, int],
) -> _FPTree:
    tree = _FPTree()
    for items, count in transactions:
        filtered = [i for i in items if item_counts.get(i, 0) >= min_count]
        filtered.sort(key=lambda i: item_order[i])
        if filtered:
            tree.insert(filtered, count)
    return tree


def _mine_tree(
    tree: _FPTree,
    suffix: Tuple[Item, ...],
    min_count: int,
    out: Dict[Itemset, int],
    max_size: int,
    monitor: RunMonitor,
) -> None:
    single = tree.is_single_path()
    if single is not None:
        _emit_single_path(single, suffix, min_count, out, max_size)
        return
    counts = tree.item_counts()
    # Process items in ascending support (standard order for projection).
    for item in sorted(counts, key=lambda i: (counts[i], i)):
        # Every emitted itemset's count is final the moment it is
        # written, so stopping between projections yields an exact
        # subset of the full result.
        monitor.checkpoint()
        count = counts[item]
        if count < min_count:
            continue
        new_suffix = (item,) + suffix
        out[Itemset(new_suffix)] = count
        if max_size and len(new_suffix) >= max_size:
            continue
        paths = tree.prefix_paths(item)
        conditional_counts: Dict[Item, int] = {}
        for prefix, path_count in paths:
            for prefix_item in prefix:
                conditional_counts[prefix_item] = (
                    conditional_counts.get(prefix_item, 0) + path_count
                )
        order = {
            it: rank
            for rank, it in enumerate(
                sorted(conditional_counts, key=lambda i: (-conditional_counts[i], i))
            )
        }
        conditional = _build_tree(paths, order, min_count, conditional_counts)
        if conditional.header:
            _mine_tree(conditional, new_suffix, min_count, out, max_size, monitor)


def _emit_single_path(
    path: List[Tuple[Item, int]],
    suffix: Tuple[Item, ...],
    min_count: int,
    out: Dict[Itemset, int],
    max_size: int,
) -> None:
    """All combinations of a single-path tree, counted by the minimum
    count along the chosen prefix."""
    from itertools import combinations

    eligible = [(item, count) for item, count in path if count >= min_count]
    limit = len(eligible)
    if max_size:
        limit = min(limit, max(max_size - len(suffix), 0))
    for size in range(1, limit + 1):
        for combo in combinations(eligible, size):
            count = min(c for _i, c in combo)
            if count >= min_count:
                itemset = Itemset(tuple(i for i, _c in combo) + suffix)
                out[itemset] = count


def fpgrowth(
    database: TransactionDatabase,
    min_support: float,
    max_size: int = 0,
    monitor: Optional[RunMonitor] = None,
) -> FrequentItemsets:
    """Mine all frequent itemsets with FP-growth.

    Args:
        database: the transaction database (timestamps ignored).
        min_support: relative threshold in (0, 1].
        max_size: cap on itemset size (0 = unbounded).
        monitor: optional run monitor; an interrupted run returns the
            itemsets emitted so far (all with exact counts).

    Returns:
        Exactly the itemsets (and counts) that
        :func:`repro.core.apriori.apriori` returns (a subset when a
        monitored run stops early).
    """
    monitor = monitor or RunMonitor()
    validate_min_support(min_support)
    if max_size < 0:
        raise MiningParameterError("max_size must be >= 0")
    n = len(database)
    if n == 0:
        return FrequentItemsets({}, 0)
    min_count = _min_count(min_support, n)

    item_counts = database.item_frequencies()
    frequent_items = {i: c for i, c in item_counts.items() if c >= min_count}
    out: Dict[Itemset, int] = {
        Itemset((item,)): count for item, count in frequent_items.items()
    }
    if max_size == 1 or not frequent_items:
        return FrequentItemsets(out, n)

    order = {
        item: rank
        for rank, item in enumerate(
            sorted(frequent_items, key=lambda i: (-frequent_items[i], i))
        )
    }
    tree = _build_tree(
        ((t.items.items, 1) for t in database), order, min_count, frequent_items
    )
    result: Dict[Itemset, int] = {}
    try:
        _mine_tree(tree, (), min_count, result, max_size, monitor)
    except RunInterrupted:
        pass  # keep the exact itemsets emitted before the stop
    # _mine_tree re-derives singletons too; merge (counts agree by
    # construction) and keep the direct-scan singletons as authoritative.
    result.update(out)
    return FrequentItemsets(result, n)
