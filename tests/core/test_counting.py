"""Unit tests for counting strategies: dict vs hash tree agreement."""

import random

import pytest

from repro.core.counting import DictCounter, HashTreeCounter
from repro.core.items import Itemset


class TestDictCounter:
    def test_counts_zero_initialized(self):
        counter = DictCounter([Itemset([1, 2])])
        assert counter.counts() == {Itemset([1, 2]): 0}

    def test_small_transaction_enumeration_path(self):
        counter = DictCounter([Itemset([1, 2]), Itemset([1, 3])])
        counter.count_transaction((1, 2, 3))
        assert counter.counts() == {Itemset([1, 2]): 1, Itemset([1, 3]): 1}

    def test_probe_path_for_large_transactions(self):
        # One candidate, huge transaction: probing wins over enumerating.
        counter = DictCounter([Itemset([1, 2, 3])])
        counter.count_transaction(tuple(range(60)))
        assert counter.counts()[Itemset([1, 2, 3])] == 1

    def test_rejects_mixed_sizes(self):
        with pytest.raises(ValueError):
            DictCounter([Itemset([1]), Itemset([1, 2])])

    def test_empty_candidates(self):
        counter = DictCounter([])
        counter.count_transaction((1, 2))
        assert counter.counts() == {}


class TestStrategyAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dict_and_hashtree_agree(self, seed):
        rng = random.Random(seed)
        candidates = list({Itemset(rng.sample(range(25), 3)) for _ in range(80)})
        transactions = [
            tuple(sorted(rng.sample(range(25), rng.randrange(3, 12))))
            for _ in range(100)
        ]
        dict_counter = DictCounter(candidates)
        tree_counter = HashTreeCounter(candidates, fanout=4, leaf_capacity=4)
        for transaction in transactions:
            dict_counter.count_transaction(transaction)
            tree_counter.count_transaction(transaction)
        assert dict_counter.counts() == tree_counter.counts()
