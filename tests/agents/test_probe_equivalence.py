"""Probe-ladder fast path vs. its retained reference.

``ArbitrageSearcher._probe_cycle`` is registered as a fast path
(``@fast_path(reference="_probe_cycle_reference", toggle="memo")``);
R102 requires a test exercising the pair.  This is it: on the same
frozen market state, the memoized ladder (view ``memo={}``) must return
exactly what ``_probe_cycle_reference`` returns on the naive per-rung
path (view ``memo=None``) — same optimal size, same projected profit,
for every candidate route in both orientations.
"""

import random

from repro.agents.fees import FeeModel
from repro.agents.searcher import (
    ArbitrageSearcher,
    ChannelPolicy,
    MarketView,
    ProbeCache,
)
from repro.chain.state import WorldState
from repro.chain.types import ether, gwei
from repro.dex.registry import CURVE, SUSHISWAP, UNISWAP_V2, \
    ExchangeRegistry
from repro.lending.oracle import PRICE_SCALE, PriceOracle
from repro.sim import ScenarioConfig, build_paper_scenario
from repro.sim.scenario import restore_paper_scenario


def _market():
    state = WorldState()
    registry = ExchangeRegistry()
    weth_dai = registry.create_pool(UNISWAP_V2, "WETH", "DAI")
    weth_usdc = registry.create_pool(SUSHISWAP, "WETH", "USDC")
    curve = registry.create_pool(CURVE, "DAI", "USDC")
    weth_dai.add_liquidity(state, WETH=ether(2_000),
                           DAI=ether(6_000_000))
    weth_usdc.add_liquidity(state, WETH=ether(2_000),
                            USDC=ether(6_000_000))
    curve.add_liquidity(state, DAI=ether(1_500_000),
                        USDC=ether(8_500_000))
    oracle = PriceOracle()
    oracle.set_price("DAI", PRICE_SCALE // 3_000)
    oracle.set_price("USDC", PRICE_SCALE // 3_000)
    return state, registry, oracle


def _view(state, registry, oracle, memo, probe_cache=None):
    return MarketView(state=state, registry=registry, oracle=oracle,
                      pending=[], block_number=100,
                      fees=FeeModel(base_fee=0, london_active=False,
                                    prevailing=gwei(50)),
                      rng=random.Random(7), memo=memo,
                      probe_cache=probe_cache)


def test_probe_cycle_matches_reference():
    state, registry, oracle = _market()
    searcher = ArbitrageSearcher("probe-eq", ChannelPolicy(),
                                 min_profit_wei=ether(0.01))
    state.mint_token("WETH", searcher.address, ether(1_000))
    probes = ProbeCache()
    fast_view = _view(state, registry, oracle, memo={},
                      probe_cache=probes)
    ref_view = _view(state, registry, oracle, memo=None)
    routes = searcher._triangle_candidates(fast_view)
    assert routes, "market must offer probe candidates"
    for route in routes:
        fast = searcher._probe_cycle(fast_view, route)
        ref = searcher._probe_cycle(ref_view, route)
        assert fast == ref, f"probe ladder diverged on {route}"
    # A fresh view of the same market answers from the cross-block
    # cache (its per-view memo is empty) — and still matches.
    next_view = _view(state, registry, oracle, memo={},
                      probe_cache=probes)
    for route in routes:
        assert searcher._probe_cycle(next_view, route) == \
            searcher._probe_cycle(ref_view, route)
    assert probes.hits == len(routes)
    # At least one orientation is profitable in this depegged market;
    # equality above must not be vacuous None == None everywhere.
    assert any(searcher._probe_cycle(fast_view, route) is not None
               for route in routes)


def test_probe_cycle_memo_none_routes_to_reference(monkeypatch):
    """toggle=memo really is the dispatch: memo=None hits the
    reference implementation and nothing else."""
    state, registry, oracle = _market()
    searcher = ArbitrageSearcher("probe-ref", ChannelPolicy(),
                                 min_profit_wei=ether(0.01))
    state.mint_token("WETH", searcher.address, ether(1_000))
    calls = []
    original = ArbitrageSearcher._probe_cycle_reference

    def spy(self, view, route, capital):
        calls.append(list(route))
        return original(self, view, route, capital)

    monkeypatch.setattr(ArbitrageSearcher, "_probe_cycle_reference",
                        spy)
    view = _view(state, registry, oracle, memo=None)
    route = searcher._triangle_candidates(view)[0]
    searcher._probe_cycle(view, route)
    assert calls == [route]


def test_each_world_owns_its_probe_cache(monkeypatch):
    """Two identical worlds run back to back in one process do the same
    probe work: each starts with an empty cache of its own and sees the
    same hits, so a second in-process run is no faster than the first.
    A world restored from a seal starts cold too — the cache is never
    sealed."""
    evaluations = []
    original = ArbitrageSearcher._eval_hops

    def counted(hops, amount_in):
        evaluations.append(amount_in)
        return original(hops, amount_in)

    monkeypatch.setattr(ArbitrageSearcher, "_eval_hops",
                        staticmethod(counted))
    config = ScenarioConfig(blocks_per_month=6, seed=7)
    runs = []
    for _ in range(2):
        world = build_paper_scenario(config)
        assert len(world.probe_cache) == 0
        seals = {}
        evaluations.clear()
        world.run(collect_seals=seals)
        runs.append((world.probe_cache.hits, len(evaluations)))
    assert runs[0] == runs[1]
    assert runs[0][0] > 0, "the scenario must exercise cache hits"
    restored = restore_paper_scenario(config, seals[max(seals) - 1])
    assert len(restored.probe_cache) == 0
