import pytest

from cactiq.enumeration import (MAX_N, CactusFilter, count_cacti,
                                enumerate_cacti, oracle_cacti)
from cactiq.families import build_H
from cactiq.graph import (are_isomorphic, canonical_code, is_cactus,
                          matching_number, pendant_count)

# counts of non-isomorphic cacti on n vertices (trees included)
KNOWN_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 23, 7: 63, 8: 188, 9: 596,
                10: 1979}


class TestCounts:
    @pytest.mark.parametrize("n,want", sorted(KNOWN_COUNTS.items()))
    def test_known_sequence(self, n, want):
        assert count_cacti(n) == want

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


class TestAgainstOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_complete_and_duplicate_free(self, n):
        got = enumerate_cacti(n)
        want = oracle_cacti(n)
        assert len(got) == len(want)
        assert [canonical_code(g).code for g in got] == \
            [canonical_code(g).code for g in want]


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

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matching_partition_identity(self, n):
        total = sum(count_cacti(n, CactusFilter(matching=m))
                    for m in range(1, n // 2 + 1))
        assert total == KNOWN_COUNTS[n]

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_pendant_partition_identity(self, n):
        total = sum(count_cacti(n, CactusFilter(pendants=k))
                    for k in range(0, n))
        assert total == KNOWN_COUNTS[n]
