"""Tests for the cache parameter sweeps (Tables VI/VII, Figure 7)."""

import pytest

from repro.cache.policies import DELAYED_WRITE, FLUSH_5MIN, WRITE_THROUGH
from repro.cache.stream import build_stream
from repro.cache.sweep import (
    block_size_sweep,
    cache_size_policy_sweep,
    paging_comparison,
)

from .conftest import count_block_accesses

SIZES = (256 * 1024, 1024 * 1024, 4 * 1024 * 1024)


@pytest.fixture(scope="module")
def policy_sweep(small_trace):
    return cache_size_policy_sweep(small_trace, cache_sizes=SIZES)


@pytest.fixture(scope="module")
def bs_sweep(small_trace):
    return block_size_sweep(
        small_trace,
        block_sizes=(1024, 4096, 16384),
        cache_sizes=(400 * 1024, 4 * 1024 * 1024),
    )


class TestPolicySweep:
    def test_all_cells_present(self, policy_sweep):
        assert len(policy_sweep.results) == len(SIZES) * 4

    def test_miss_ratio_decreases_with_cache_size(self, policy_sweep):
        for policy in policy_sweep.policies:
            ratios = [policy_sweep.miss_ratio(s, policy) for s in SIZES]
            assert ratios == sorted(ratios, reverse=True)

    def test_policy_ordering_at_every_size(self, policy_sweep):
        # Figure 5's vertical ordering: write-through worst, delayed best.
        for size in SIZES:
            wt = policy_sweep.miss_ratio(size, WRITE_THROUGH)
            f5 = policy_sweep.miss_ratio(size, FLUSH_5MIN)
            dw = policy_sweep.miss_ratio(size, DELAYED_WRITE)
            assert wt >= f5 >= dw

    def test_render_has_row_per_size(self, policy_sweep):
        text = policy_sweep.render()
        assert "write-through" in text
        assert text.count("\n") >= len(SIZES) + 1


class TestBlockSizeSweep:
    def test_no_cache_column_decreases_with_block_size(self, bs_sweep):
        counts = [bs_sweep.no_cache[bs] for bs in bs_sweep.block_sizes]
        assert counts == sorted(counts, reverse=True)

    def test_cached_ios_below_no_cache(self, bs_sweep):
        for bs in bs_sweep.block_sizes:
            for cache in bs_sweep.cache_sizes:
                assert bs_sweep.disk_ios(bs, cache) <= bs_sweep.no_cache[bs]

    def test_bigger_cache_never_worse(self, bs_sweep):
        small, big = bs_sweep.cache_sizes
        for bs in bs_sweep.block_sizes:
            assert bs_sweep.disk_ios(bs, big) <= bs_sweep.disk_ios(bs, small)

    def test_best_block_size_is_from_the_grid(self, bs_sweep):
        assert bs_sweep.best_block_size(400 * 1024) in bs_sweep.block_sizes

    def test_render(self, bs_sweep):
        assert "No Cache" in bs_sweep.render()


class TestCountBlockAccesses:
    def test_counts_blocks_spanned(self, small_trace):
        stream = build_stream(small_trace)
        at_4k = count_block_accesses(stream, 4096)
        at_1k = count_block_accesses(stream, 1024)
        assert at_1k > at_4k >= 1
        # Quadrupling the block size cannot shrink accesses by more than 4x.
        assert at_1k <= 4 * at_4k


class TestPagingComparison:
    def test_paging_adds_accesses(self, small_trace):
        comparison = paging_comparison(small_trace, cache_sizes=(1024 * 1024,))
        size = 1024 * 1024
        assert (
            comparison.simulated[size].block_accesses
            > comparison.ignored[size].block_accesses
        )

    def test_paging_helps_large_caches(self, medium_trace):
        sizes = (512 * 1024, 16 * 1024 * 1024)
        comparison = paging_comparison(medium_trace, cache_sizes=sizes)
        big = sizes[-1]
        # Program reads are highly local: with a big cache the miss ratio
        # with paging included is no worse than without (Figure 7's
        # crossover).
        assert (
            comparison.simulated[big].miss_ratio
            <= comparison.ignored[big].miss_ratio + 0.02
        )

    def test_render(self, small_trace):
        comparison = paging_comparison(small_trace, cache_sizes=(1024 * 1024,))
        assert "Page-in" in comparison.render()


class TestReplacementTitles:
    def test_titles_name_a_non_lru_policy(self, small_trace):
        # LRU titles stay the paper's; any other policy is named, as
        # Table VI's already is.
        sizes = (1024 * 1024,)
        for replacement, suffix in (("lru", ""), ("fifo", ", fifo")):
            table7 = block_size_sweep(
                small_trace, block_sizes=(4096,), cache_sizes=sizes,
                replacement=replacement,
            )
            fig7 = paging_comparison(
                small_trace, cache_sizes=sizes, replacement=replacement
            )
            assert table7.render().splitlines()[0] == (
                "Table VII: disk I/Os vs block size and cache size "
                f"(A5, delayed-write{suffix})"
            )
            assert fig7.render().splitlines()[0] == (
                "Figure 7: miss ratio with paging approximated "
                f"(A5, delayed-write, 4096-byte blocks{suffix})"
            )
