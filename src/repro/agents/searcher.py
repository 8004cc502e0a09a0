"""Searcher agents: sandwich, arbitrage and liquidation MEV extractors.

Searchers implement the strategies of paper Definitions 1–3 against live
simulator state: they watch the public mempool and chain state, size their
attacks with the closed-form math in :mod:`repro.dex.arbitrage_math`, and
choose a *channel* per the scenario timeline — the public mempool (open
PGA bidding), Flashbots (sealed-bid bundles with coinbase tips), or a
non-Flashbots private pool.

Every submission carries a :class:`GroundTruth` record.  Ground truth is
for scoring the measurement pipeline (precision/recall) and calibrating
benchmarks only — the pipeline itself never reads it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chain.transaction import Transaction
from repro.chain.types import Address, Hash32, address_from_label
from repro.dex.amm import ConstantProductPool, get_amount_out
from repro.dex.arbitrage_math import optimal_two_pool_arbitrage, \
    plan_sandwich
from repro.dex.registry import SANDWICH_VENUES, ExchangeRegistry
from repro.dex.stableswap import StableSwapPool, stable_amount_out
from repro.dex.weighted import WeightedPool, weighted_amount_out
from repro.dex.router import ArbitrageIntent, SwapAllIntent, SwapIntent
from repro.dex.token import WETH
from repro.agents.fees import FeeModel
from repro.chain.intents import SequenceIntent
from repro.flashbots.auction import sealed_bid_tip_fraction
from repro.flashbots.bundle import Bundle, make_bundle
from repro.lending.flashloan import FlashLoanIntent, FlashLoanProvider
from repro.lending.oracle import PRICE_SCALE, OracleUpdateIntent, \
    PriceOracle
from repro.lending.pool import LendingPool, LiquidationIntent
from repro.markers import fast_path

CHANNEL_PUBLIC = "public"
CHANNEL_FLASHBOTS = "flashbots"
CHANNEL_PRIVATE = "private"

STRATEGY_SANDWICH = "sandwich"
STRATEGY_ARBITRAGE = "arbitrage"
STRATEGY_LIQUIDATION = "liquidation"
STRATEGY_OTHER = "other"

_PROBE_CACHE_MAX = 65_536

_MISS = object()


class ProbeCache:
    """Cross-block cache of geometric probe searches, owned by one world.

    A probe is a pure function of (route, searcher capital, the exact
    reserves of every pool on the route) — all of which are in the key
    — so a hit is exact, never approximate: between trades on a route's
    pools the reserves (and hence the key) are unchanged and the probe
    result is provably the same.  That is also why the cache is never
    sealed: a restored or re-sharded world starts cold and computes the
    same results, only slower.  Bounded at ``_PROBE_CACHE_MAX`` entries
    (cleared wholesale when full).
    """

    def __init__(self) -> None:
        self._entries: Dict[Any, Any] = {}
        #: lookups answered from the cache (observability only)
        self.hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, sig: Any) -> Any:
        """The cached result for ``sig``, or ``_MISS``."""
        result = self._entries.get(sig, _MISS)
        if result is not _MISS:
            self.hits += 1
        return result

    def put(self, sig: Any, result: Any) -> None:
        if len(self._entries) >= _PROBE_CACHE_MAX:
            self._entries.clear()
        self._entries[sig] = result


def _quote_via_pool(amount: int, pool: Any, state: Any,
                    token_in: str) -> int:
    """Pure-shape adapter for pool kinds without an extracted quote
    function (none exist today, but probe routes are caller-supplied)."""
    return pool.quote_out(state, token_in, amount)


@dataclass(frozen=True)
class ChannelPolicy:
    """When a searcher uses which submission channel.

    Defaults to the public mempool; between ``flashbots_from`` and
    ``flashbots_until`` the searcher submits Flashbots bundles; from
    ``private_from`` (if set, and outside the Flashbots window) it uses the
    named private pool.  This encodes the paper's observed lifecycle:
    public → Flashbots (2021 boom) → exodus to private pools (late 2021).
    """

    flashbots_from: Optional[int] = None
    flashbots_until: Optional[int] = None
    private_pool: Optional[str] = None
    private_from: Optional[int] = None
    private_until: Optional[int] = None  # e.g. the pool shut down

    def channel_at(self, block_number: int) -> str:
        in_flashbots = (
            self.flashbots_from is not None
            and block_number >= self.flashbots_from
            and (self.flashbots_until is None
                 or block_number < self.flashbots_until))
        if in_flashbots:
            return CHANNEL_FLASHBOTS
        in_private = (
            self.private_pool is not None
            and self.private_from is not None
            and block_number >= self.private_from
            and (self.private_until is None
                 or block_number < self.private_until))
        if in_private:
            return CHANNEL_PRIVATE
        return CHANNEL_PUBLIC


@dataclass
class GroundTruth:
    """What actually happened, for scoring the measurement pipeline."""

    strategy: str
    searcher: Address
    channel: str
    tx_hashes: Tuple[Hash32, ...]
    block_submitted: int
    victim_hash: Optional[Hash32] = None
    expected_profit_wei: int = 0
    uses_flash_loan: bool = False
    faulty: bool = False
    private_pool: Optional[str] = None


@dataclass
class Submission:
    """One unit of searcher output, routed by channel."""

    channel: str
    ground_truth: GroundTruth
    bundle: Optional[Bundle] = None          # flashbots channel
    txs: Tuple[Transaction, ...] = ()        # public channel
    private_sequence: Tuple[Transaction, ...] = ()  # private channel
    private_pool: Optional[str] = None


@dataclass
class MarketView:
    """Everything a searcher may legitimately observe in one block."""

    state: Any
    registry: ExchangeRegistry
    oracle: PriceOracle
    pending: List[Transaction]
    block_number: int
    fees: FeeModel
    rng: random.Random
    lending_pools: List[LendingPool] = field(default_factory=list)
    flash_provider: Optional[FlashLoanProvider] = None
    competition: Dict[str, int] = field(default_factory=dict)
    #: Per-block cache of (pool, unhealthy loans); the world computes this
    #: once so N liquidation searchers don't rescan every loan book.
    liquidatable_by_pool: Optional[List[Tuple[LendingPool, list]]] = None
    #: Demand bursts: real bundle arrivals cluster (§4.1's mean of 2.71
    #: bundles per Flashbots block with a median of 2); during a rush the
    #: "other" users are several times likelier to submit.
    bundle_rush: bool = False
    #: Scratch cache shared by every searcher scanning this view.  Only
    #: pure, rng-free computations over the view's frozen world state may
    #: be stored here (quotes, cycle projections, price gaps, sandwich
    #: plans); anything that draws from ``rng`` must never be cached.
    #: None disables caching entirely (the bit-identical reference path).
    memo: Optional[Dict[Any, Any]] = None
    #: The world's cross-block probe cache (None: probes are memoized
    #: per view only).
    probe_cache: Optional[ProbeCache] = None

    @property
    def target_block(self) -> int:
        return self.block_number + 1


class Searcher:
    """Base searcher: identity, channel policy, funding bookkeeping."""

    strategy = STRATEGY_OTHER

    def __init__(self, name: str, policy: ChannelPolicy,
                 active_from: int = 1,
                 active_until: Optional[int] = None,
                 faulty_rate: float = 0.0,
                 uses_flash_loans: bool = False,
                 min_profit_wei: int = 10**16,
                 attempt_rate: float = 1.0,
                 tip_mean: Optional[float] = None) -> None:
        if not 0.0 <= faulty_rate <= 1.0:
            raise ValueError("faulty_rate must be within [0, 1]")
        if not 0.0 < attempt_rate <= 1.0:
            raise ValueError("attempt_rate must be within (0, 1]")
        if tip_mean is not None and not 0.0 < tip_mean <= 1.0:
            raise ValueError("tip_mean must be within (0, 1]")
        self.name = name
        self.address: Address = address_from_label(f"searcher:{name}")
        self.policy = policy
        self.active_from = active_from
        self.active_until = active_until
        self.faulty_rate = faulty_rate
        self.uses_flash_loans = uses_flash_loans
        self.min_profit_wei = min_profit_wei
        #: probability of competing for a given block at all (bot uptime,
        #: node latency, gas-estimation misses); thins bundle supply to
        #: realistic densities without changing per-event economics.
        self.attempt_rate = attempt_rate
        #: override for the sealed-bid mean tip fraction (ablations);
        #: None → the market default in repro.flashbots.auction.
        self.tip_mean = tip_mean

    def is_active(self, block_number: int) -> bool:
        if block_number < self.active_from:
            return False
        if self.active_until is not None and \
                block_number >= self.active_until:
            return False
        return True

    def scan(self, view: MarketView) -> List[Submission]:
        """Produce this block's submissions (empty when nothing found)."""
        raise NotImplementedError

    # Shared helpers -----------------------------------------------------------

    def _tip_for(self, view: MarketView, expected_profit: int,
                 faulty: bool) -> int:
        """Coinbase tip for a Flashbots bundle (sealed-bid overbidding).

        A faulty searcher (Section 5.2's buggy contracts) overestimates its
        profit and tips more than the extraction is worth — the source of
        negative Flashbots profits.
        """
        competition = view.competition.get(self.strategy, 3)
        if self.tip_mean is not None:
            fraction = sealed_bid_tip_fraction(view.rng, competition,
                                               mean=self.tip_mean)
        else:
            fraction = sealed_bid_tip_fraction(view.rng, competition)
        if faulty:
            fraction = 1.1 + view.rng.random() * 0.5
        return max(1, int(expected_profit * fraction))

    def _is_faulty(self, rng: random.Random) -> bool:
        return rng.random() < self.faulty_rate

    def _truth(self, view: MarketView, channel: str, txs, victim_hash,
               profit: int, flash_loan: bool, faulty: bool,
               pool_name: Optional[str] = None) -> GroundTruth:
        return GroundTruth(
            strategy=self.strategy, searcher=self.address,
            channel=channel,
            tx_hashes=tuple(tx.hash for tx in txs),
            block_submitted=view.block_number, victim_hash=victim_hash,
            expected_profit_wei=profit, uses_flash_loan=flash_loan,
            faulty=faulty, private_pool=pool_name)

    def _package(self, view: MarketView, txs: Sequence[Transaction],
                 victim_tx: Optional[Transaction], profit: int,
                 flash_loan: bool, faulty: bool,
                 include_victim_in_bundle: bool = True) -> Submission:
        """Route crafted transactions through the current channel."""
        channel = self.policy.channel_at(view.target_block)
        victim_hash = victim_tx.hash if victim_tx is not None else None
        if channel == CHANNEL_FLASHBOTS:
            bundle_txs = list(txs)
            if victim_tx is not None and include_victim_in_bundle:
                bundle_txs = self._weave_victim(txs, victim_tx)
            bundle = make_bundle(self.address, bundle_txs,
                                 view.target_block)
            truth = self._truth(view, channel, txs, victim_hash, profit,
                                flash_loan, faulty)
            return Submission(channel=channel, bundle=bundle,
                              ground_truth=truth)
        if channel == CHANNEL_PRIVATE:
            sequence = list(txs)
            if victim_tx is not None and include_victim_in_bundle:
                sequence = self._weave_victim(txs, victim_tx)
            truth = self._truth(view, channel, txs, victim_hash, profit,
                                flash_loan, faulty,
                                pool_name=self.policy.private_pool)
            return Submission(channel=channel,
                              private_sequence=tuple(sequence),
                              private_pool=self.policy.private_pool,
                              ground_truth=truth)
        truth = self._truth(view, channel, txs, victim_hash, profit,
                            flash_loan, faulty)
        return Submission(channel=channel, txs=tuple(txs),
                          ground_truth=truth)

    @staticmethod
    def _weave_victim(txs: Sequence[Transaction],
                      victim_tx: Transaction) -> List[Transaction]:
        """Insert the victim between the legs (sandwich) or ahead of a
        single backrun transaction."""
        txs = list(txs)
        if len(txs) == 2:
            return [txs[0], victim_tx, txs[1]]
        return [victim_tx] + txs


class SandwichSearcher(Searcher):
    """Definition 1: frontrun + backrun around a pending victim swap."""

    strategy = STRATEGY_SANDWICH

    def __init__(self, *args, max_targets_per_block: int = 1,
                 visibility: float = 0.65,
                 pick_random_targets: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 < visibility <= 1.0:
            raise ValueError("visibility must be within (0, 1]")
        self.max_targets_per_block = max_targets_per_block
        #: True → pick uniformly among visible victims instead of racing
        #: everyone for the largest (how self-extracting miners avoid
        #: colliding with the Flashbots crowd).
        self.pick_random_targets = pick_random_targets
        #: probability of spotting any given pending victim in time — the
        #: latency/coverage imperfection that spreads real searchers
        #: across different victims instead of all piling on the largest.
        self.visibility = visibility

    def scan(self, view: MarketView) -> List[Submission]:
        victims = self._rank_victims(view)
        submissions: List[Submission] = []
        for victim_tx, pool in victims[:self.max_targets_per_block]:
            submission = self._attack(view, victim_tx, pool)
            if submission is not None:
                submissions.append(submission)
        return submissions

    def _rank_victims(self, view: MarketView):
        """Pending sandwichable swaps, largest first."""
        candidates = []
        for tx in view.pending:
            intent = tx.intent
            if not isinstance(intent, SwapIntent):
                continue
            if tx.sender == self.address:
                continue
            pool = view.registry.get(intent.pool_address)
            if pool is None or pool.venue not in SANDWICH_VENUES:
                continue
            if not isinstance(pool, ConstantProductPool):
                continue
            if view.rng.random() > self.visibility:
                continue
            candidates.append((tx, pool))
        if self.pick_random_targets:
            view.rng.shuffle(candidates)
        else:
            candidates.sort(key=lambda item: -item[0].intent.amount_in)
        return candidates

    def _plan_attack(self, view: MarketView, pool: ConstantProductPool,
                     intent: SwapIntent, capital: int):
        """Pure sandwich sizing against frozen state (no rng): the plan
        and its ETH-denominated profit, or None when unattackable."""
        token_in = intent.token_in
        token_out = pool.other(token_in)
        if not (view.oracle.has_price(token_in)
                and view.oracle.has_price(token_out)):
            return None
        reserve_in = pool.reserve_of(view.state, token_in)
        reserve_out = pool.reserve_of(view.state, token_out)
        plan = plan_sandwich(reserve_in, reserve_out, intent.amount_in,
                             intent.min_amount_out, pool.fee_bps,
                             max_capital=capital)
        if plan is None:
            return None
        profit_eth = view.oracle.value_in_eth(token_in,
                                              plan.expected_profit)
        return plan, profit_eth

    def _attack(self, view: MarketView, victim_tx: Transaction,
                pool: ConstantProductPool) -> Optional[Submission]:
        intent: SwapIntent = victim_tx.intent
        token_in = intent.token_in
        token_out = pool.other(token_in)
        capital = view.state.token_balance(token_in, self.address)
        memo = view.memo
        key = ("sandwich", pool.address, victim_tx.hash, capital)
        if memo is not None and key in memo:
            planned = memo[key]
        else:
            planned = self._plan_attack(view, pool, intent, capital)
            if memo is not None:
                memo[key] = planned
        if planned is None:
            return None
        plan, profit_eth = planned
        if profit_eth < self.min_profit_wei:
            return None

        faulty = self._is_faulty(view.rng)
        channel = self.policy.channel_at(view.target_block)
        nonce = view.state.nonce(self.address)
        # Guard the backrun with a minimum output near the projection so a
        # lost race reverts instead of dumping at a loss — unless the
        # searcher's contract is faulty (Section 5.2).
        back_min = 0 if faulty else plan.backrun_out * 995 // 1000

        if channel == CHANNEL_FLASHBOTS:
            victim_price = view.fees.effective_price(victim_tx)
            tip = self._tip_for(view, profit_eth, faulty)
            front_fields = view.fees.bundle_fields()
            back_fields = view.fees.bundle_fields()
        else:
            victim_price = view.fees.effective_price(victim_tx)
            tip = 0
            if channel == CHANNEL_PUBLIC:
                front_fields = view.fees.frontrun_fields(
                    view.rng, victim_price, profit_eth, 150_000,
                    view.competition.get(self.strategy, 3))
            else:
                front_fields = view.fees.bundle_fields()
            back_fields = (view.fees.backrun_fields(victim_price)
                           if channel == CHANNEL_PUBLIC
                           else view.fees.bundle_fields())

        front = Transaction(
            sender=self.address, nonce=nonce, to=pool.address,
            gas_limit=150_000,
            intent=SwapIntent(pool.address, token_in, plan.frontrun_in,
                              min_amount_out=0 if faulty
                              else plan.frontrun_out),
            meta={"mev": self.strategy, "leg": "front"},
            _uid=view.state.next_tx_uid(), **front_fields)
        back = Transaction(
            sender=self.address, nonce=nonce + 1, to=pool.address,
            gas_limit=150_000,
            intent=SwapIntent(pool.address, token_out, plan.frontrun_out,
                              min_amount_out=back_min,
                              coinbase_tip=tip),
            meta={"mev": self.strategy, "leg": "back"},
            _uid=view.state.next_tx_uid(), **back_fields)
        return self._package(view, [front, back], victim_tx, profit_eth,
                             flash_loan=False, faulty=faulty)


class ArbitrageSearcher(Searcher):
    """Definition 2: close price gaps across venues, optimally sized."""

    strategy = STRATEGY_ARBITRAGE

    def scan(self, view: MarketView) -> List[Submission]:
        copied = self._copy_pending_arbitrage(view)
        if copied is not None:
            return [copied]
        passive = self._passive_gap_search(view)
        return [passive] if passive is not None else []

    # Proactive: copy a pending victim arbitrage and frontrun it -----------

    def _copy_pending_arbitrage(self, view: MarketView,
                                ) -> Optional[Submission]:
        for tx in view.pending:
            intent = tx.intent
            if not isinstance(intent, ArbitrageIntent):
                continue
            if tx.sender == self.address:
                continue
            if tx.meta.get("mev") is not None:
                continue  # never copy a fellow professional (too risky)
            profit = self._project_cycle(view, intent.route,
                                         intent.token_in,
                                         intent.amount_in)
            if profit is None or profit < self.min_profit_wei:
                continue
            return self._craft(view, list(intent.route), intent.token_in,
                               intent.amount_in, profit, victim_tx=tx)
        return None

    # Passive: scan venue price gaps -------------------------------------------

    def _passive_gap_search(self, view: MarketView,
                            ) -> Optional[Submission]:
        best: Optional[Tuple[int, list, int]] = None
        for token in self._tokens(view):
            gap = self._best_gap(view, token)
            if gap is None:
                continue
            cheap, dear, ratio = gap
            if ratio < 1.004:  # below fee floor, skip early
                continue
            plan = self._size_cycle(view, dear, cheap)
            if plan is None:
                continue
            amount_in, profit = plan
            if profit < self.min_profit_wei:
                continue
            if best is None or profit > best[0]:
                best = (profit, [dear.address, cheap.address], amount_in)
        for route in self._triangle_candidates(view):
            plan = self._probe_cycle(view, route)
            if plan is None:
                continue
            amount_in, profit = plan
            if profit < self.min_profit_wei:
                continue
            if best is None or profit > best[0]:
                best = (profit, route, amount_in)
        if best is None:
            return None
        profit, route, amount_in = best
        return self._craft(view, route, WETH, amount_in, profit,
                           victim_tx=None)

    def _best_gap(self, view: MarketView, token: str):
        """WETH/token price gap across venues (memoized: pure in state)."""
        memo = view.memo
        key = ("gap", token)
        if memo is not None and key in memo:
            return memo[key]
        gap = view.registry.best_price_gap(view.state, WETH, token)
        if memo is not None:
            memo[key] = gap
        return gap

    def _triangle_candidates(self, view: MarketView) -> List[List[str]]:
        """Three-hop cycles through a non-WETH connector pool.

        Real searchers close triangular gaps (e.g. WETH→DAI→USDC→WETH
        through Curve) that no two-pool comparison can see; the cyclic
        detection heuristic handles any length, so these extractions
        exercise the ≥3-venue path of the paper's arbitrage dataset.
        """
        memo = view.memo
        if memo is not None and "arb:triangles" in memo:
            return memo["arb:triangles"]
        routes: List[List[str]] = []
        connectors = [p for p in view.registry.pools
                      if not p.has_token(WETH)
                      and min(p.reserves(view.state)) > 0]
        for connector in connectors:
            token_a, token_b = connector.token0, connector.token1
            pools_a = [p for p in
                       view.registry.pools_for_pair(WETH, token_a)
                       if min(p.reserves(view.state)) > 0]
            pools_b = [p for p in
                       view.registry.pools_for_pair(WETH, token_b)
                       if min(p.reserves(view.state)) > 0]
            # The deepest venue on each side is the realistic route.
            def deepest(pools):
                return max(pools, key=lambda p:
                           p.reserve_of(view.state, WETH),
                           default=None)
            pool_a, pool_b = deepest(pools_a), deepest(pools_b)
            if pool_a is None or pool_b is None:
                continue
            routes.append([pool_a.address, connector.address,
                           pool_b.address])
            routes.append([pool_b.address, connector.address,
                           pool_a.address])
        if memo is not None:
            memo["arb:triangles"] = routes
        return routes

    def _tokens(self, view: MarketView) -> List[str]:
        memo = view.memo
        if memo is not None and "arb:tokens" in memo:
            return memo["arb:tokens"]
        tokens = {p.token0 for p in view.registry.pools}
        tokens |= {p.token1 for p in view.registry.pools}
        tokens.discard(WETH)
        result = sorted(tokens)
        if memo is not None:
            memo["arb:tokens"] = result
        return result

    def _size_cycle(self, view: MarketView, dear, cheap,
                    ) -> Optional[Tuple[int, int]]:
        """Optimal WETH input through (dear → cheap); None if unprofitable.

        Uses the closed form when both pools are constant-product, probe
        search otherwise (Curve legs).
        """
        token = cheap.other(WETH)
        if isinstance(dear, ConstantProductPool) and \
                isinstance(cheap, ConstantProductPool):
            memo = view.memo
            key = ("size2", dear.address, cheap.address)
            if memo is not None and key in memo:
                return memo[key]
            plan = optimal_two_pool_arbitrage(
                dear.reserve_of(view.state, WETH),
                dear.reserve_of(view.state, token),
                cheap.reserve_of(view.state, token),
                cheap.reserve_of(view.state, WETH),
                dear.fee_bps, cheap.fee_bps)
            result = (None if plan is None
                      else (plan.amount_in, plan.expected_profit))
            if memo is not None:
                memo[key] = result
            return result
        return self._probe_cycle(view, [dear.address, cheap.address])

    @fast_path(reference="_probe_cycle_reference", toggle="memo")
    def _probe_cycle(self, view: MarketView, route: List[str],
                     ) -> Optional[Tuple[int, int]]:
        """Geometric probe search for non-CP legs.

        On the fast path the route's reserves are read once and the whole
        probe ladder is evaluated through the pools' pure quote functions
        (``get_amount_out``/``stable_amount_out``/``weighted_amount_out``
        — each exactly equals ``quote_out`` given the same reserves, and
        reserves cannot change between rungs because probing mutates no
        state).  The reference path quotes through the pools per rung.
        """
        capital = max(view.state.token_balance(WETH, self.address),
                      10**20)
        memo = view.memo
        if memo is None:
            return self._probe_cycle_reference(view, route, capital)
        key = ("probe", tuple(route), capital)
        if key in memo:
            return memo[key]
        hops, sig = self._route_hops(view, route, capital)
        probes = view.probe_cache if sig is not None else None
        if probes is not None:
            cached = probes.get(sig)
            if cached is not _MISS:
                memo[key] = cached
                return cached
        best: Optional[Tuple[int, int]] = None
        first = max(1, capital // 256)
        amount = first
        while amount <= capital:
            profit = (self._eval_hops(hops, amount)
                      if hops is not None else None)
            # First-rung dominance prune (exact): every pool curve is
            # concave through the origin in real arithmetic, so the
            # cycle's output/input ratio is non-increasing in the input.
            # If the smallest rung already loses more than 1 ppm — six
            # orders of magnitude beyond the few-wei slack integer
            # flooring can introduce (guarded by the rung-size floor) —
            # every larger rung is strictly unprofitable too and the
            # ladder's result is None exactly.
            if (amount == first and first >= 10**12
                    and profit is not None
                    and profit <= -(first // 1_000_000)):
                break
            if profit is not None and (best is None or profit > best[1]):
                best = (amount, profit)
            amount *= 2
        result = None if best is None or best[1] <= 0 else best
        memo[key] = result
        if probes is not None:
            probes.put(sig, result)
        return result

    def _probe_cycle_reference(self, view: MarketView, route: List[str],
                               capital: int) -> Optional[Tuple[int, int]]:
        """Naive per-rung probe (the ``fast_paths=False`` world)."""
        best: Optional[Tuple[int, int]] = None
        amount = max(1, capital // 256)
        while amount <= capital:
            profit = self._project_cycle(view, route, WETH, amount)
            if profit is not None and (best is None or profit > best[1]):
                best = (amount, profit)
            amount *= 2
        return None if best is None or best[1] <= 0 else best

    @staticmethod
    def _route_hops(view: MarketView, route: List[str], capital: int,
                    ) -> Tuple[Optional[list], Optional[tuple]]:
        """Resolve a WETH cycle into per-hop pure quote closures.

        Returns ``(hops, signature)`` where each hop is ``(fn, args)``
        with ``fn(amount, *args) == pool.quote_out(state, token, amount)``
        and the signature keys the cross-block probe cache on every
        reserve the ladder reads.  ``hops`` is None when the route is
        invalid (unknown pool, token mismatch, or not a WETH cycle) —
        every projection on such a route is None.  The signature stays
        usable in that case: the same registry lookup fails next block
        too, so a cached None is still exact.
        """
        state = view.state
        hops = []
        parts = []
        token = WETH
        valid = True
        for address in route:
            pool = view.registry.get(address)
            if pool is None:
                return None, None
            reserve0 = state.token_balance(pool.token0, pool.address)
            reserve1 = state.token_balance(pool.token1, pool.address)
            parts.append((reserve0, reserve1))
            if not valid or not pool.has_token(token):
                valid = False
                continue
            token_in = token
            if token_in == pool.token0:
                reserve_in, reserve_out = reserve0, reserve1
                token = pool.token1
            else:
                reserve_in, reserve_out = reserve1, reserve0
                token = pool.token0
            if isinstance(pool, ConstantProductPool):
                hops.append((get_amount_out,
                             (reserve_in, reserve_out, pool.fee_bps)))
            elif isinstance(pool, StableSwapPool):
                hops.append((stable_amount_out,
                             (reserve_in, reserve_out, pool.amp,
                              pool.fee_bps)))
            elif isinstance(pool, WeightedPool):
                hops.append((weighted_amount_out,
                             (reserve_in, reserve_out,
                              pool.weight_of(token_in),
                              pool.weight_of(token), pool.fee_bps)))
            else:  # unknown pool kind: quote through the pool itself
                hops.append((_quote_via_pool, (pool, state, token_in)))
        sig = (tuple(route), capital, tuple(parts))
        if not valid or token != WETH:
            return None, sig
        return hops, sig

    @staticmethod
    def _eval_hops(hops: list, amount_in: int) -> Optional[int]:
        """Profit of the pre-resolved cycle for one input amount."""
        amount = amount_in
        for fn, args in hops:
            try:
                amount = fn(amount, *args)
            except (ValueError, ArithmeticError):
                return None
            if amount <= 0:
                return None
        return amount - amount_in

    def _project_cycle(self, view: MarketView, route: List[str],
                       token_in: str, amount_in: int) -> Optional[int]:
        """Expected profit of a cycle using current quotes; None if any
        hop is invalid.  Memoized on the view: the projection reads only
        frozen pool reserves, so every searcher probing the same route
        and size shares one computation."""
        memo = view.memo
        if memo is None:
            return self._project_cycle_uncached(view, route, token_in,
                                                amount_in)
        key = ("cycle", tuple(route), token_in, amount_in)
        if key in memo:
            return memo[key]
        result = self._project_cycle_uncached(view, route, token_in,
                                              amount_in)
        memo[key] = result
        return result

    def _project_cycle_uncached(self, view: MarketView, route: List[str],
                                token_in: str, amount_in: int,
                                ) -> Optional[int]:
        token = token_in
        amount = amount_in
        state = view.state
        for address in route:
            pool = view.registry.get(address)
            if pool is None or not pool.has_token(token):
                return None
            try:
                amount = pool.quote_out(state, token, amount)
            except (ValueError, ArithmeticError):
                return None
            if amount <= 0:
                return None
            token = pool.other(token)
        if token != token_in:
            return None
        return amount - amount_in

    def _craft(self, view: MarketView, route: List[str], token_in: str,
               amount_in: int, profit: int,
               victim_tx: Optional[Transaction]) -> Submission:
        # Routes may come from the shared view memo; copy before handing
        # one to an intent so no two submissions alias the same list.
        route = list(route)
        faulty = self._is_faulty(view.rng)
        channel = self.policy.channel_at(view.target_block)
        capital = view.state.token_balance(token_in, self.address)
        use_flash = (self.uses_flash_loans
                     and view.flash_provider is not None
                     and amount_in > capital)
        tip = (self._tip_for(view, profit, faulty)
               if channel == CHANNEL_FLASHBOTS else 0)
        arb = ArbitrageIntent(route=route, token_in=token_in,
                              amount_in=amount_in,
                              min_profit=0 if faulty else 1,
                              coinbase_tip=tip)
        intent = arb
        gas_limit = 200_000 + 100_000 * len(route)
        if use_flash:
            intent = FlashLoanIntent(view.flash_provider.address,
                                     token_in, amount_in, inner=arb)
            gas_limit += 150_000
        if channel == CHANNEL_PUBLIC:
            if victim_tx is not None:
                fields = view.fees.frontrun_fields(
                    view.rng, view.fees.effective_price(victim_tx),
                    profit, gas_limit,
                    view.competition.get(self.strategy, 3))
            else:
                fields = view.fees.frontrun_fields(
                    view.rng, view.fees.prevailing, profit, gas_limit,
                    view.competition.get(self.strategy, 3))
        else:
            fields = view.fees.bundle_fields()
        tx = Transaction(sender=self.address,
                         nonce=view.state.nonce(self.address),
                         to=route[0], gas_limit=gas_limit, intent=intent,
                         meta={"mev": self.strategy},
                         _uid=view.state.next_tx_uid(), **fields)
        # A copied arbitrage *frontruns* its victim: the copy must land
        # first, so the victim is never woven ahead of it in a bundle.
        return self._package(view, [tx], victim_tx, profit,
                             flash_loan=use_flash, faulty=faulty,
                             include_victim_in_bundle=False)


class LiquidationSearcher(Searcher):
    """Definition 3: fixed-spread liquidations, passive and proactive."""

    strategy = STRATEGY_LIQUIDATION

    def scan(self, view: MarketView) -> List[Submission]:
        proactive = self._backrun_oracle_update(view)
        if proactive is not None:
            return [proactive]
        passive = self._passive_scan(view)
        return [passive] if passive is not None else []

    def _passive_scan(self, view: MarketView) -> Optional[Submission]:
        if view.liquidatable_by_pool is not None:
            candidates = view.liquidatable_by_pool
        else:
            candidates = [(pool, pool.liquidatable_loans())
                          for pool in view.lending_pools]
        for pool, loans in candidates:
            for loan in loans:
                submission = self._craft(view, pool, loan,
                                         victim_tx=None)
                if submission is not None:
                    return submission
        return None

    def _backrun_oracle_update(self, view: MarketView,
                               ) -> Optional[Submission]:
        """Find a pending oracle update that unlocks a liquidation.

        The open-loan list and each would-unlock verdict are pure in the
        view's state (scans never mutate), so both are memoized per view
        and shared by every competing liquidation searcher.
        """
        memo = view.memo
        for tx in view.pending:
            intent = tx.intent
            if not isinstance(intent, OracleUpdateIntent):
                continue
            for pool in view.lending_pools:
                if memo is None:
                    loans = pool.open_loans()
                else:
                    loans_key = ("liq:open", pool.address)
                    loans = memo.get(loans_key)
                    if loans is None:
                        loans = memo[loans_key] = pool.open_loans()
                for loan in loans:
                    if memo is None:
                        unlocks = self._would_unlock(pool, loan,
                                                     intent.token,
                                                     intent.price_wei)
                    else:
                        unlock_key = ("liq:unlock", pool.address,
                                      loan.loan_id, intent.token,
                                      intent.price_wei)
                        unlocks = memo.get(unlock_key)
                        if unlocks is None:
                            unlocks = memo[unlock_key] = \
                                self._would_unlock(pool, loan,
                                                   intent.token,
                                                   intent.price_wei)
                    if not unlocks:
                        continue
                    submission = self._craft(view, pool, loan,
                                             victim_tx=tx,
                                             price_override=(
                                                 intent.token,
                                                 intent.price_wei))
                    if submission is not None:
                        return submission
        return None

    @staticmethod
    def _would_unlock(pool: LendingPool, loan, token: str,
                      new_price: int) -> bool:
        """Health factor of ``loan`` if ``token`` repriced to
        ``new_price`` — liquidatable and not already liquidatable now."""
        if pool.is_liquidatable(loan):
            return False

        def value(tok: str, amount: int) -> int:
            price = new_price if tok == token else pool.oracle.price(tok)
            return amount * price // PRICE_SCALE

        debt_value = value(loan.debt_token, loan.debt_amount)
        if debt_value == 0:
            return False
        collateral_value = value(loan.collateral_token,
                                 loan.collateral_amount)
        health = (collateral_value * pool.liquidation_threshold_bps
                  / 10_000 / debt_value)
        return health < 1.0

    def _craft(self, view: MarketView, pool: LendingPool, loan,
               victim_tx: Optional[Transaction] = None,
               price_override: Optional[Tuple[str, int]] = None,
               ) -> Optional[Submission]:
        repay = pool.max_repay(loan)
        if repay <= 0:
            return None

        def price_of(token: str) -> int:
            if price_override is not None and token == price_override[0]:
                return price_override[1]
            return view.oracle.price(token)

        repay_value = repay * price_of(loan.debt_token) // PRICE_SCALE
        bonus_value = repay_value * (10_000 + pool.bonus_bps) // 10_000
        seize = min(bonus_value * PRICE_SCALE
                    // price_of(loan.collateral_token),
                    loan.collateral_amount)
        seize_value = seize * price_of(loan.collateral_token) \
            // PRICE_SCALE
        profit = seize_value - repay_value
        if profit < self.min_profit_wei:
            return None

        faulty = self._is_faulty(view.rng)
        channel = self.policy.channel_at(view.target_block)
        capital = view.state.token_balance(loan.debt_token, self.address)
        use_flash = (self.uses_flash_loans
                     and view.flash_provider is not None
                     and repay > capital)
        tip = (self._tip_for(view, profit, faulty)
               if channel == CHANNEL_FLASHBOTS else 0)
        liq = LiquidationIntent(pool.address, loan.loan_id, repay,
                                coinbase_tip=tip)
        gas_limit = 450_000
        intent = liq
        if use_flash:
            swap_back = self._collateral_unwind(view, loan)
            if swap_back is None:
                return None
            intent = FlashLoanIntent(
                view.flash_provider.address, loan.debt_token, repay,
                inner=SequenceIntent([liq, swap_back]))
            gas_limit += 300_000
        if channel == CHANNEL_PUBLIC:
            anchor = (view.fees.effective_price(victim_tx)
                      if victim_tx is not None else view.fees.prevailing)
            if victim_tx is not None:
                # Backrun: bid just under the oracle update's price.
                fields = view.fees.backrun_fields(anchor)
            else:
                fields = view.fees.frontrun_fields(
                    view.rng, anchor, profit, gas_limit,
                    view.competition.get(self.strategy, 3))
        else:
            fields = view.fees.bundle_fields()
        tx = Transaction(sender=self.address,
                         nonce=view.state.nonce(self.address),
                         to=pool.address, gas_limit=gas_limit,
                         intent=intent, meta={"mev": self.strategy},
                         _uid=view.state.next_tx_uid(), **fields)
        return self._package(view, [tx], victim_tx, profit,
                             flash_loan=use_flash, faulty=faulty)

    def _collateral_unwind(self, view: MarketView, loan,
                           ) -> Optional[SwapAllIntent]:
        """Swap seized collateral back to the debt token (flash repay)."""
        pools = view.registry.pools_for_pair(loan.collateral_token,
                                             loan.debt_token)
        liquid = [p for p in pools
                  if min(p.reserves(view.state)) > 0]
        if not liquid:
            return None
        return SwapAllIntent(liquid[0].address, loan.collateral_token)


class OtherBundleUser(Searcher):
    """Non-MEV Flashbots users: order-dependent trades and MEV-protected
    swaps submitted as single-transaction bundles (the dominant bundle
    population in Figure 7)."""

    strategy = STRATEGY_OTHER

    def __init__(self, *args, trade_size_eth: float = 2.0,
                 tip_eth: float = 0.004, activity: float = 0.03,
                 **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 <= activity <= 1.0:
            raise ValueError("activity must be within [0, 1]")
        self.trade_size_eth = trade_size_eth
        self.tip_eth = tip_eth
        self.activity = activity

    def scan(self, view: MarketView) -> List[Submission]:
        if self.policy.channel_at(view.target_block) != \
                CHANNEL_FLASHBOTS:
            return []
        activity = self.activity * (4.0 if view.bundle_rush else 1.0)
        if view.rng.random() >= activity:
            return []
        memo = view.memo
        if memo is not None and "other:weth-pools" in memo:
            pools = memo["other:weth-pools"]
        else:
            pools = [p for p in view.registry.pools
                     if p.has_token(WETH)
                     and isinstance(p, ConstantProductPool)
                     and min(p.reserves(view.state)) > 0]
            if memo is not None:
                memo["other:weth-pools"] = pools
        if not pools:
            return []
        pool = view.rng.choice(pools)
        amount = max(1, int(self.trade_size_eth
                            * view.rng.uniform(0.3, 2.0) * 10**18))
        capital = view.state.token_balance(WETH, self.address)
        amount = min(amount, capital)
        if amount <= 0:
            return []
        quote = pool.quote_out(view.state, WETH, amount)
        tip = max(1, int(self.tip_eth * view.rng.uniform(0.5, 2.0)
                         * 10**18))
        tx = Transaction(
            sender=self.address, nonce=view.state.nonce(self.address),
            to=pool.address, gas_limit=150_000,
            intent=SwapIntent(pool.address, WETH, amount,
                              min_amount_out=quote * 999 // 1000,
                              coinbase_tip=tip),
            meta={"mev": None, "other_bundle": True},
            _uid=view.state.next_tx_uid(), **view.fees.bundle_fields())
        truth = self._truth(view, CHANNEL_FLASHBOTS, [tx], None, 0,
                            False, False)
        bundle = make_bundle(self.address, [tx], view.target_block)
        return [Submission(channel=CHANNEL_FLASHBOTS, bundle=bundle,
                           ground_truth=truth)]
