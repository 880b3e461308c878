import hashlib
import tracemalloc
from collections import Counter
from itertools import chain

import numpy as np
import pytest

from cactiq import enumeration, graph6
from cactiq.enumeration import (MAX_N, CactusFilter, classes, count_cacti,
                                enumerate_cacti)
from cactiq.families import build_H
from cactiq.graph import (_cactus_blocks, _cactus_code, _peel, are_isomorphic,
                          canonical_code, from_edges, is_cactus,
                          matching_number, pendant_count)

from oracles import (cactus_counts, extensions, oracle_cacti, scanned_level,
                     scanned_positions)

# counts of non-isomorphic cacti on n vertices (trees included)
KNOWN_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 23, 7: 63, 8: 188, 9: 596,
                10: 1979}

# Harary & Uhlenbeck, PNAS 39 (1953); OEIS A000083, n = 1..16.
HARARY_UHLENBECK = [1, 1, 2, 4, 9, 23, 63, 188, 596, 1979, 6804, 24118,
                    87379, 322652, 1209808, 4596158]


class TestCounts:
    @pytest.mark.parametrize("n,want", sorted(KNOWN_COUNTS.items()))
    def test_known_sequence(self, n, want):
        assert count_cacti(n) == want

    def test_counting_oracle_sequence(self):
        assert cactus_counts(16) == HARARY_UHLENBECK

    def test_enumeration_matches_counting_oracle(self):
        assert [count_cacti(n) for n in range(1, 11)] == cactus_counts(10)

    def test_level_past_guard_matches_counting_oracle(self):
        # _level has no guard; n = 11 runs in about a second
        assert len(enumeration._level(11).graphs) == cactus_counts(11)[-1]

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_cacti(MAX_N + 1)
        with pytest.raises(ValueError):
            enumerate_cacti(0)


class TestOutputProperties:
    def test_all_are_cacti(self):
        for n in range(1, 8):
            for g in enumerate_cacti(n):
                assert g.order == n and is_cactus(g)

    def test_sorted_and_distinct_codes(self):
        for n in range(1, 8):
            codes = [canonical_code(g).code for g in enumerate_cacti(n)]
            assert codes == sorted(codes)
            assert len(set(codes)) == len(codes)

    def test_deterministic(self):
        a = enumerate_cacti(6)
        b = enumerate_cacti(6)
        assert [g.edges for g in a] == [g.edges for g in b]

    def test_graph6_lines_pinned(self):
        # every representative and its labelling, as `enumerate --n 1..10`
        # prints them, fixed since the block-cut-tree canonical form
        lines = "".join(graph6.encode(g) + "\n"
                        for n in range(1, 11) for g in enumerate_cacti(n))
        assert lines.count("\n") == sum(KNOWN_COUNTS.values())
        assert hashlib.sha256(lines.encode("ascii")).hexdigest() == \
            "b357b55604f0cc6967db596ed286a78c0976f2aea51259bf219f9b36a2358a33"


class TestAgainstOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_complete_and_duplicate_free(self, n):
        got = enumerate_cacti(n)
        want = oracle_cacti(n)
        assert len(got) == len(want)
        assert [canonical_code(g).code for g in got] == \
            sorted(canonical_code(g).code for g in want)


class TestFilters:
    def test_matching_one(self):
        # matching number 1 on 5 vertices: only the star
        got = enumerate_cacti(5, CactusFilter(matching=1))
        assert len(got) == 1
        assert pendant_count(got[0]) == 4

    def test_n5_matching_2_contains_extremal_candidates(self):
        got = enumerate_cacti(5, CactusFilter(matching=2))
        assert any(are_isomorphic(g, build_H(2, 0)) for g in got)
        assert any(are_isomorphic(g, build_H(1, 2)) for g in got)

    def test_filter_soundness(self):
        for g in enumerate_cacti(6, CactusFilter(matching=2, pendants=3)):
            assert matching_number(g).size == 2
            assert pendant_count(g) == 3

    def test_infeasible_filter_empty(self):
        assert enumerate_cacti(5, CactusFilter(matching=9)) == ()
        assert enumerate_cacti(5, CactusFilter(pendants=7)) == ()
        assert classes(5).positions(CactusFilter(matching=9)) == ()

    def test_negative_filter_rejected(self):
        with pytest.raises(ValueError, match="matching must be nonnegative"):
            CactusFilter(matching=-1)
        with pytest.raises(ValueError, match="pendants must be nonnegative"):
            CactusFilter(matching=2, pendants=-2)
        assert CactusFilter(matching=0, pendants=0).admits(0, 0)

    @pytest.mark.parametrize("n", [1, 6, 9])
    def test_positions_index_the_full_list(self, n):
        graphs = enumerate_cacti(n)
        assert classes(n).positions() == range(len(graphs))
        for filt in ([CactusFilter(matching=m) for m in range(1, n // 2 + 1)]
                     + [CactusFilter(pendants=k) for k in range(n + 1)]):
            positions = classes(n).positions(filt)
            assert list(positions) == sorted(set(positions))
            assert tuple(graphs[i] for i in positions) == \
                enumerate_cacti(n, filt)
            assert all(matching_number(graphs[i]).size == filt.matching
                       or pendant_count(graphs[i]) == filt.pendants
                       for i in positions)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_positions_equal_a_scan_of_every_class(self, n):
        # matching values 0..n/2+1 and pendant values 0..n+1, alone and in
        # every pair, possible or not, against a scan of every class; the
        # count reads the same positions.  A value of -1 is refused.
        ms, ks = range(0, n // 2 + 2), range(0, n + 2)
        for bad in ({"matching": -1}, {"pendants": -1},
                    {"matching": -1, "pendants": -1}):
            with pytest.raises(ValueError, match="must be nonnegative"):
                CactusFilter(**bad)
        filters = ([CactusFilter(matching=m) for m in ms]
                   + [CactusFilter(pendants=k) for k in ks]
                   + [CactusFilter(matching=m, pendants=k) for m in ms for k in ks])
        for filt in filters:
            positions = classes(n).positions(filt)
            assert type(positions) is tuple
            assert positions == scanned_positions(n, filt), filt
            assert count_cacti(n, filt) == len(positions)

    # Over every feasible value a filter picks each class exactly once.
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matching_partition_identity(self, n):
        picked = Counter(g for m in range(1, n // 2 + 1)
                         for g in enumerate_cacti(n, CactusFilter(matching=m)))
        assert picked == Counter(enumerate_cacti(n))
        assert sum(picked.values()) == KNOWN_COUNTS[n]

    @pytest.mark.parametrize("n", range(2, 11))
    def test_pendant_partition_identity(self, n):
        picked = Counter(g for k in range(0, n + 1)
                         for g in enumerate_cacti(n, CactusFilter(pendants=k)))
        assert picked == Counter(enumerate_cacti(n))
        assert sum(picked.values()) == KNOWN_COUNTS[n]


class TestExtensions:
    def test_children_equal_from_edges_build(self):
        for n in range(2, 9):
            for size in range(1, n):
                for g in enumeration._level(size).found:
                    want = []
                    for v in range(g.order):
                        cyc = [v] + list(range(g.order, n))
                        want.append(from_edges(n, list(g.edges) + [
                            (cyc[i - 1], cyc[i]) for i in range(len(cyc))]))
                    assert list(extensions(g, n)) == want

    @pytest.mark.parametrize("n", range(2, 11))
    def test_block_list_codes_equal_canonical_code(self, n):
        for size in range(1, n):
            for g in enumeration._level(size).found:
                assert list(enumeration._child_codes(g, n)) == \
                    [canonical_code(c).code for c in extensions(g, n)]

    def test_path_recoding_equals_full_code_at_11(self):
        # every candidate of order 11, coded in full from its block list
        # (no child Graph is built) against the path recoding
        for size in range(1, 11):
            path = list(range(size, 11))
            for g in enumeration._level(size).found:
                blocks = _cactus_blocks(g)
                assert list(enumeration._child_codes(g, 11)) == \
                    [_cactus_code(11, blocks + [[v, *path]])
                     for v in range(size)]

    @pytest.mark.parametrize("order, edges, n, v, centres", [
        (1, [], 3, 0, ("vertex", "block")),
        (3, [(0, 1), (1, 2)], 4, 1, ("vertex", "vertex")),
        (3, [(0, 1), (1, 2)], 4, 0, ("vertex", "block")),
        (3, [(0, 1), (1, 2), (0, 2)], 5, 0, ("block", "vertex")),
    ], ids=["order-1-parent", "v-is-vertex-centre", "centre-vertex-to-block",
            "centre-block-to-vertex"])
    def test_centre_rule(self, order, edges, n, v, centres):
        # one case per branch of the centre rule: the parent's and the
        # child's centre kinds show which branch the child takes
        def kind(h):
            centre = _peel(h.order, _cactus_blocks(h))[-1]
            return "vertex" if centre < h.order else "block"
        g = from_edges(order, edges)
        child = list(extensions(g, n))[v]
        assert (kind(g), kind(child)) == centres
        assert list(enumeration._child_codes(g, n))[v] == \
            canonical_code(child).code

    @pytest.mark.parametrize("n", range(2, 11))
    def test_first_found_representatives(self, n):
        # each level against a scan that builds and fully codes every
        # candidate of the smaller levels, checked at their own n
        want = scanned_level(n, lambda size: enumeration._level(size).found)
        level = enumeration._level(n)
        assert level.found == tuple(want.values())
        assert level.graphs == tuple(want[code] for code in sorted(want))
        assert len(want) == KNOWN_COUNTS[n]


class TestInvariantTable:
    def test_rebuilt_table_equals_cached(self):
        orders = range(1, 11)
        cached = [enumeration._level(n) for n in orders]
        for level in cached:
            _ = level.groups, level.spectra  # fill both cached parts
        enumeration._level.cache_clear()
        for n, old in zip(orders, cached):
            new = enumeration._level(n)
            assert new is not old
            assert (new.found, new.graphs) == (old.found, old.graphs)
            assert new.groups == old.groups
            assert all(np.array_equal(a, b)
                       for a, b in zip(new.spectra, old.spectra))
            # the groups' positions are each class of the order exactly once
            assert sorted(chain.from_iterable(new.groups.values())) == \
                list(range(KNOWN_COUNTS[n]))

    def test_cold_tables_hold_edge_sets_only(self):
        # a class is its edge set: orders 1..10 built cold allocate 2.7 MB at
        # peak, against 9.2 MB while every Graph also held one neighbour
        # frozenset per vertex
        enumeration._level.cache_clear()
        tracemalloc.start()
        try:
            for n in range(1, 11):
                enumeration._level(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_unfiltered_enumeration_builds_no_table(self):
        enumeration._level.cache_clear()
        enumerate_cacti(7)
        count_cacti(8)
        for n in (7, 8):
            filled = vars(enumeration._level(n))
            assert "groups" not in filled and "spectra" not in filled
