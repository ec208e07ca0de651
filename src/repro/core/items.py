"""Items, itemsets and item catalogs.

The core data model follows Agrawal & Srikant: a *literal* set of items
``I = {i1, ..., im}`` and transactions that are subsets of ``I``.  Items are
represented by integer identifiers internally (fast set operations, compact
storage); an :class:`ItemCatalog` maps between external labels (strings such
as ``"bread"``) and internal ids.

:class:`Itemset` is an immutable, sorted tuple of item ids.  Sorting makes
prefix-based Apriori candidate generation straightforward and gives itemsets
a canonical form, so equal sets always compare and hash equal.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ItemError

Item = int
"""Internal item identifier (a small non-negative integer)."""


class Itemset:
    """An immutable, canonically-ordered set of items.

    Instances behave like small frozen sets of ints but preserve sorted
    order, which Apriori's join step relies on.

    >>> a = Itemset([3, 1, 2])
    >>> a.items
    (1, 2, 3)
    >>> Itemset([1, 2]) < a
    True
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, items: Iterable[Item]):
        unique = sorted(set(items))
        for item in unique:
            if not isinstance(item, int) or item < 0:
                raise ItemError(f"item ids must be non-negative ints, got {item!r}")
        self._items: Tuple[Item, ...] = tuple(unique)
        # hash() never returns -1, so it marks "not computed yet": a
        # database holds one itemset per transaction and rarely hashes
        # them, and -1 is a shared small int where a hash would be a
        # fresh 32-byte object.
        self._hash = -1

    @classmethod
    def canonical(cls, items: Tuple[Item, ...]) -> "Itemset":
        """Wrap a tuple that is already canonical (ascending, unique ids >= 0).

        Skips the constructor's sort and checks — for the level kernels
        of :mod:`repro.core.levels`, whose rows are canonical by
        construction.
        """
        itemset = object.__new__(cls)
        itemset._items = items
        itemset._hash = hash(items)
        return itemset

    @classmethod
    def of(cls, *items: Item) -> "Itemset":
        """Convenience constructor: ``Itemset.of(1, 2, 3)``."""
        return cls(items)

    @classmethod
    def empty(cls) -> "Itemset":
        """The empty itemset."""
        return cls(())

    @property
    def items(self) -> Tuple[Item, ...]:
        """The items in ascending order."""
        return self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items)

    def __contains__(self, item: object) -> bool:
        return item in self._items

    def __hash__(self) -> int:
        if self._hash == -1:
            self._hash = hash(self._items)
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Itemset):
            return NotImplemented
        return self._items == other._items

    def __lt__(self, other: "Itemset") -> bool:
        if not isinstance(other, Itemset):
            return NotImplemented
        return self._items < other._items

    def __le__(self, other: "Itemset") -> bool:
        if not isinstance(other, Itemset):
            return NotImplemented
        return self._items <= other._items

    def __repr__(self) -> str:
        return f"Itemset({list(self._items)!r})"

    def union(self, other: "Itemset") -> "Itemset":
        """Set union; the result is canonical."""
        return Itemset(self._items + other._items)

    def intersection(self, other: "Itemset") -> "Itemset":
        other_set = set(other._items)
        return Itemset(i for i in self._items if i in other_set)

    def difference(self, other: "Itemset") -> "Itemset":
        other_set = set(other._items)
        return Itemset(i for i in self._items if i not in other_set)

    def issubset(self, other: "Itemset") -> bool:
        """True when every item of ``self`` occurs in ``other``.

        Both operands are sorted, so a linear merge suffices.
        """
        mine, theirs = self._items, other._items
        if len(mine) > len(theirs):
            return False
        j = 0
        n = len(theirs)
        for item in mine:
            while j < n and theirs[j] < item:
                j += 1
            if j >= n or theirs[j] != item:
                return False
            j += 1
        return True

    def issuperset(self, other: "Itemset") -> bool:
        return other.issubset(self)

    def isdisjoint(self, other: "Itemset") -> bool:
        return not set(self._items) & set(other._items)

    def prefix(self, length: int) -> Tuple[Item, ...]:
        """The first ``length`` items (used by the Apriori join step)."""
        return self._items[:length]

    def subsets_of_size(self, size: int) -> Iterator["Itemset"]:
        """All size-``size`` subsets, in lexicographic order."""
        from itertools import combinations

        if size < 0 or size > len(self._items):
            return
        for combo in combinations(self._items, size):
            yield Itemset(combo)

    def without(self, item: Item) -> "Itemset":
        """The itemset with ``item`` removed (no-op if absent)."""
        return Itemset(i for i in self._items if i != item)

    def with_item(self, item: Item) -> "Itemset":
        """The itemset with ``item`` added."""
        return Itemset(self._items + (item,))


class ItemCatalog:
    """Bidirectional mapping between item labels and integer ids.

    Ids are assigned densely in first-registration order, which keeps
    downstream arrays compact.

    >>> catalog = ItemCatalog()
    >>> catalog.add("bread")
    0
    >>> catalog.add("milk")
    1
    >>> catalog.label(0)
    'bread'
    >>> catalog.id("milk")
    1
    """

    def __init__(self, labels: Optional[Iterable[str]] = None):
        self._label_to_id: Dict[str, Item] = {}
        self._id_to_label: List[str] = []
        if labels is not None:
            for label in labels:
                self.add(label)

    def __len__(self) -> int:
        return len(self._id_to_label)

    def __contains__(self, label: object) -> bool:
        return label in self._label_to_id

    def add(self, label: str) -> Item:
        """Register ``label`` (idempotent) and return its id."""
        if not isinstance(label, str) or not label:
            raise ItemError(f"item labels must be non-empty strings, got {label!r}")
        existing = self._label_to_id.get(label)
        if existing is not None:
            return existing
        item_id = len(self._id_to_label)
        self._label_to_id[label] = item_id
        self._id_to_label.append(label)
        return item_id

    def id(self, label: str) -> Item:
        """The id for ``label``; raises :class:`ItemError` if unknown."""
        try:
            return self._label_to_id[label]
        except KeyError:
            raise ItemError(f"unknown item label {label!r}") from None

    def label(self, item_id: Item) -> str:
        """The label for ``item_id``; raises :class:`ItemError` if unknown."""
        if 0 <= item_id < len(self._id_to_label):
            return self._id_to_label[item_id]
        raise ItemError(f"unknown item id {item_id!r}")

    def labels(self) -> Tuple[str, ...]:
        """All labels in id order."""
        return tuple(self._id_to_label)

    def encode(self, labels: Iterable[str]) -> Itemset:
        """Build an :class:`Itemset` from labels, registering new ones."""
        return Itemset(self.add(label) for label in labels)

    def encode_strict(self, labels: Iterable[str]) -> Itemset:
        """Build an :class:`Itemset` from labels that must already exist."""
        return Itemset(self.id(label) for label in labels)

    def decode(self, itemset: Itemset) -> Tuple[str, ...]:
        """The labels of ``itemset`` in id order."""
        return tuple(self.label(i) for i in itemset)

    def format(self, itemset: Itemset, sep: str = ", ") -> str:
        """Human-readable rendering, e.g. ``"bread, milk"``."""
        return sep.join(self.decode(itemset))


def itemset_from_any(value: object, catalog: Optional[ItemCatalog] = None) -> Itemset:
    """Coerce ints, strings or iterables of either into an :class:`Itemset`.

    Strings require a ``catalog``; they are looked up strictly (no implicit
    registration), so typos surface as :class:`ItemError` rather than a new
    item with zero support.
    """
    if isinstance(value, Itemset):
        return value
    if isinstance(value, int):
        return Itemset((value,))
    if isinstance(value, str):
        if catalog is None:
            raise ItemError("string items require an ItemCatalog")
        return Itemset((catalog.id(value),))
    if isinstance(value, Iterable):
        members: List[Item] = []
        for element in value:
            if isinstance(element, int):
                members.append(element)
            elif isinstance(element, str):
                if catalog is None:
                    raise ItemError("string items require an ItemCatalog")
                members.append(catalog.id(element))
            else:
                raise ItemError(f"cannot interpret {element!r} as an item")
        return Itemset(members)
    raise ItemError(f"cannot interpret {value!r} as an itemset")
