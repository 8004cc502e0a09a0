"""The frozen op-key format and the ``shield`` facades."""

from repro.chain.events import SwapEvent
from repro.faults.plan import render_key
from repro.reliability import shield


class TestRenderKey:
    """The rendered key seeds fault decisions and retry jitter: its
    format is frozen."""

    def test_no_args(self):
        assert render_key(()) == "-"

    def test_single_arg(self):
        assert render_key((123,)) == "123"

    def test_range(self):
        assert render_key((10, 20)) == "10-20"

    def test_typed_log_query(self):
        assert render_key((SwapEvent, 1, 5)) == "SwapEvent:1-5"

    def test_none_bounds(self):
        assert render_key((None, None)) == "None-None"


class TestAdapters:
    """Each ``shield`` facade answers like the source it wraps."""

    def test_archive_adapter(self, sim_result):
        node, _, _ = shield(sim_result.node)
        assert node.latest_block_number() == \
            sim_result.node.latest_block_number()

    def test_archive_adapter_materializes_iterators(self, sim_result):
        node, _, _ = shield(sim_result.node)
        blocks = node.iter_blocks(1, 5)
        assert isinstance(blocks, list) and len(blocks) == 5

    def test_mempool_adapter_reports_downtime(self, sim_result):
        _, observer, _ = shield(sim_result.node, sim_result.observer)
        assert observer.downtime_ranges == \
            tuple(sim_result.observer.downtime_ranges)

    def test_flashbots_adapter(self, sim_result):
        _, _, api = shield(sim_result.node,
                           flashbots_api=sim_result.flashbots_api)
        assert api.block_count() == sim_result.flashbots_api.block_count()


class TestReliableSource:
    """The armor every ``Reliable*`` facade puts around its source."""

    def test_fetch_counts_requests(self, sim_result):
        node, _, _ = shield(sim_result.node)
        node.get_block(1)
        node.get_block(2)
        assert node.caller.stats.requests == 2

    def test_facades_share_one_composition(self, sim_result):
        node, observer, api = shield(sim_result.node,
                                     sim_result.observer,
                                     sim_result.flashbots_api)
        callers = [wrapper.caller for wrapper in (node, observer, api)]
        assert [caller.source for caller in callers] == \
            ["archive", "mempool", "flashbots"]
        # one retry policy, one breaker per source
        assert callers[0].retry is callers[1].retry is callers[2].retry
        assert len({id(caller.breaker) for caller in callers}) == 3

    def test_facade_results_match_bare_source(self, sim_result):
        node, _, _ = shield(sim_result.node)
        assert node.get_block(1).number == \
            sim_result.node.get_block(1).number
        assert [b.number for b in node.iter_blocks(1, 3)] == \
            [b.number for b in sim_result.node.iter_blocks(1, 3)]


class TestShimRemoved:
    """The PR 2 spelling finished its deprecation cycle in 1.5.0."""

    def test_shield_sources_is_gone(self):
        import repro.reliability as reliability
        import repro.reliability.sources as sources

        assert not hasattr(reliability, "shield" "_sources")
        assert not hasattr(sources, "shield" "_sources")
        assert "shield" "_sources" not in reliability.__all__

    def test_shield_wraps_all_three_sources(self, sim_result):
        node, observer, api = shield(
            sim_result.node, sim_result.observer,
            sim_result.flashbots_api)
        assert node.inner is sim_result.node
        assert observer.inner is sim_result.observer
        assert api.inner is sim_result.flashbots_api
