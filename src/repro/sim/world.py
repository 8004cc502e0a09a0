"""The simulation driver: a per-block market loop over the study window.

Each step reproduces one block's worth of ecosystem activity:

1. organic traffic (swaps, transfers, borrows, oracle updates) is gossiped
   into the public mempool, where the measurement observer samples it;
2. searchers scan the mempool and chain state and submit MEV through
   their current channel (public PGA / Flashbots relay / private pool);
3. a miner is drawn from the hashpower lottery and builds the block with
   MEV-geth semantics (bundles first, private sequences, then the public
   fee-ordered tail);
4. the chain, the Flashbots public API, and all queues are updated.

The result object packages exactly the artifacts the paper's measurement
pipeline consumes — an archive node, a pending-transaction trace, and the
Flashbots blocks dataset — plus ground truth for scoring.
"""

from __future__ import annotations

import hashlib
import math
import pickle
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.agents.fees import FeeModel
from repro.agents.miner import MinerProfile, MinerSet
from repro.agents.searcher import (
    CHANNEL_FLASHBOTS,
    CHANNEL_PRIVATE,
    CHANNEL_PUBLIC,
    GroundTruth,
    MarketView,
    ProbeCache,
    Searcher,
    Submission,
)
from repro.agents.trader import BorrowerPopulation, OracleKeeper, \
    TraderPopulation
from repro.chain.fork import ForkSchedule
from repro.chain.gas import INITIAL_BASE_FEE, next_base_fee
from repro.chain.mempool import Mempool
from repro.chain.node import ArchiveNode, Blockchain
from repro.chain.p2p import GossipNetwork, MempoolObserver
from repro.chain.segments import SegmentStore, SpillingBlockchain
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.chain.types import Address, ether
from repro.dex.registry import ExchangeRegistry
from repro.flashbots.api import FlashbotsBlocksApi
from repro.flashbots.bundle import MINER_PAYOUT, ROGUE, make_bundle
from repro.flashbots.mev_geth import build_block
from repro.flashbots.relay import Relay
from repro.lending.flashloan import FlashLoanProvider
from repro.lending.oracle import PriceOracle
from repro.lending.pool import LendingPool
from repro.markers import fast_path
from repro.privatepools.pool import PrivatePoolDirectory
from repro.sim.calendar import StudyCalendar
from repro.sim.config import ScenarioConfig
from repro.sim.overlap import BackgroundWriter, FlatGC
from repro.sim.prices import GasDemandModel, PriceUniverse

#: DeFi activity ramp: month ``m``'s traffic multiplier is
#: ``min(1.0, ACTIVITY_RAMP_BASE + ACTIVITY_RAMP_SLOPE * m)`` — volume
#: ramps through 2020–21 and then saturates.  Hoisted to module level
#: so scale-dependent consumers (the bench ``scale_flat`` gate baselines
#: at the first saturated epoch) stay in sync with the model.
ACTIVITY_RAMP_BASE = 0.35
ACTIVITY_RAMP_SLOPE = 0.08


def activity_saturation_month() -> int:
    """First month index whose activity multiplier reaches 1.0.

    Before this month, per-block traffic still grows with the ramp, so
    throughput comparisons across epochs only make sense from here on.
    """
    return math.ceil((1.0 - ACTIVITY_RAMP_BASE) / ACTIVITY_RAMP_SLOPE)


def epoch_stream_seed(seed: int, stream: str, epoch_index: int) -> str:
    """The seed string for one named RNG stream in one epoch.

    Every world RNG stream is reseeded from this at each epoch boundary,
    so a stream's draws within an epoch depend only on
    ``(scenario_seed, epoch_index)`` — never on earlier epochs.  That is
    the property that lets a fresh worker resume any epoch from its seal
    (string seeds hash through SHA-512 inside :mod:`random`, so the
    derivation is stable across processes and ``PYTHONHASHSEED``).
    """
    return f"repro-epoch:{seed}:{stream}:{epoch_index}"


@dataclass(frozen=True)
class SealPart:
    """One append-only chunk of a growing dataset inside a seal.

    The three datasets that grow with total progress — the observer's
    first-seen trace, the ground-truth log, and the Flashbots blocks
    table — are strictly append-only, so each epoch's additions can be
    pickled once at the boundary that completes them and *shared by
    reference* with every later seal.  A seal therefore costs O(epoch)
    pickling instead of O(progress), and a collection of E seals holds
    O(progress) chunk bytes instead of O(E × progress).
    """

    #: which dataset the chunk extends (``observer``/``truths``/``api``).
    kind: str
    #: chunk ordinal within its kind (restoration merges in order).
    index: int
    #: number of entries in this chunk.
    count: int
    payload: bytes
    digest: str


def seal_fingerprint(core_digest: str,
                     parts: Sequence[SealPart]) -> str:
    """Seal identity from its parts' digests.

    Computed over the core digest plus every chunk's ``(kind, index,
    count, digest)``, so it changes iff any byte of the carried state
    changes — while never re-hashing previously sealed chunk bytes.
    """
    hasher = hashlib.sha256()
    hasher.update(f"core:{core_digest}".encode())
    for part in parts:
        hasher.update(
            f"|{part.kind}:{part.index}:{part.count}:"
            f"{part.digest}".encode())
    return hasher.hexdigest()


@dataclass(frozen=True)
class EpochSeal:
    """Picklable snapshot of everything a world carries across an epoch
    boundary: mempool (incl. nonce-gap carryover), agent and searcher
    state, pool ledgers, the world state (with its transaction-uid
    allocator), miner profiles, observer trace, fee state.

    The ``payload`` is a single pickle of the carried-object graph, so
    shared references (keeper → oracle, gossip → observer, intents →
    pools) survive restoration intact.  The three datasets that grow
    with total progress travel outside it as append-only
    :class:`SealPart` chunks reused across seals (the observer is
    pickled inside the core graph with an empty trace to keep its
    gossip wiring, then refilled from chunks on restore).  RNG state is
    deliberately *not* sealed — each epoch's streams derive from
    :func:`epoch_stream_seed` alone.
    """

    #: epoch that begins at ``first_block`` (terminal seals use one past
    #: the last epoch index: they only carry final state for splicing).
    epoch_index: int
    first_block: int
    #: tip hash at the boundary (``None`` at genesis) — lets the splice
    #: validate linkage before stitching worker output onto the chain.
    parent_hash: Optional[str]
    payload: bytes
    fingerprint: str
    parts: Tuple[SealPart, ...] = ()

    def _parts_of(self, kind: str) -> List[SealPart]:
        chunks = [part for part in self.parts if part.kind == kind]
        chunks.sort(key=lambda part: part.index)
        return chunks

    def carried(self) -> dict:
        """Rebuild the carried-state graph (verifying the fingerprint).

        Verifies the core payload and every chunk against the seal
        fingerprint, unpickles the core graph, then merges the chunked
        datasets back in: the observer trace is refilled in first-seen
        order, the ground-truth log re-concatenated, and the Flashbots
        dataset rebuilt (with its transaction index) from its rows.
        """
        core_digest = hashlib.sha256(self.payload).hexdigest()
        expected = seal_fingerprint(core_digest, self.parts)
        if expected != self.fingerprint or any(
                hashlib.sha256(part.payload).hexdigest() != part.digest
                for part in self.parts):
            raise ValueError(
                f"epoch seal {self.epoch_index} payload corrupt: "
                f"fingerprint mismatch")
        core = pickle.loads(self.payload)
        observer = core["observer"]
        trace: Dict[str, int] = {}
        for part in self._parts_of("observer"):
            trace.update(pickle.loads(part.payload))
        observer.swap_trace(trace)
        truths: List[GroundTruth] = []
        for part in self._parts_of("truths"):
            truths.extend(pickle.loads(part.payload))
        core["ground_truths"] = truths
        records = []
        for part in self._parts_of("api"):
            records.extend(pickle.loads(part.payload))
        core["flashbots_api"] = FlashbotsBlocksApi.from_records(
            records, core.pop("api_gaps"))
        return core


@dataclass
class SimulationResult:
    """Everything the measurement pipeline (and the tests) need."""

    config: ScenarioConfig
    calendar: StudyCalendar
    forks: ForkSchedule
    blockchain: Blockchain
    node: ArchiveNode
    observer: MempoolObserver
    flashbots_api: FlashbotsBlocksApi
    relay: Relay
    miners: MinerSet
    private_pools: PrivatePoolDirectory
    oracle: PriceOracle
    registry: ExchangeRegistry
    lending_pools: List[LendingPool]
    ground_truths: List[GroundTruth]
    flashbots_launch_block: int

    def landed(self, truth: GroundTruth) -> bool:
        """True iff every transaction of the action was mined and
        succeeded (the action actually happened on chain)."""
        for tx_hash in truth.tx_hashes:
            located = self.blockchain.locate_transaction(tx_hash)
            if located is None:
                return False
            block, index = located
            if not block.receipts[index].status:
                return False
        return True

    def landed_truths(self) -> List[GroundTruth]:
        return [t for t in self.ground_truths if self.landed(t)]


class World:
    """Assembled simulation; :meth:`run` drives it block by block."""

    def __init__(self, config: ScenarioConfig, calendar: StudyCalendar,
                 forks: ForkSchedule, state: WorldState,
                 registry: ExchangeRegistry, oracle: PriceOracle,
                 universe: PriceUniverse,
                 lending_pools: List[LendingPool],
                 flash_provider: Optional[FlashLoanProvider],
                 miners: MinerSet, relay: Relay,
                 private_pools: PrivatePoolDirectory,
                 traders: TraderPopulation,
                 borrowers: BorrowerPopulation,
                 keeper: OracleKeeper,
                 searchers: Sequence[Searcher],
                 flashbots_launch_block: int,
                 rng: Optional[random.Random] = None,
                 self_mev_searchers: Optional[Dict[Address,
                                                   Searcher]] = None,
                 fast_paths: bool = True,
                 ) -> None:
        self.config = config
        self.calendar = calendar
        self.forks = forks
        self.state = state
        self.registry = registry
        self.oracle = oracle
        self.universe = universe
        self.lending_pools = lending_pools
        self.flash_provider = flash_provider
        self.miners = miners
        self.relay = relay
        self.private_pools = private_pools
        self.traders = traders
        self.borrowers = borrowers
        self.keeper = keeper
        self.searchers = list(searchers)
        #: miner address → the searcher persona it extracts MEV with when
        #: it builds a block itself (Section 6.3's self-extraction).
        self.self_mev_searchers = dict(self_mev_searchers or {})
        self.flashbots_launch_block = flashbots_launch_block
        self.rng = rng or random.Random(config.seed)
        #: when False, every optimized structure (incremental mempool
        #: index, per-scan memo dicts) is swapped for the original naive
        #: path — the reference the bench ``sim_identical`` gate replays.
        self.fast_paths = fast_paths
        #: sealed-epoch width; boundaries fall every ``epoch_blocks``
        #: blocks (default: month edges).  Crossing one reseeds every
        #: RNG stream from ``(seed, epoch_index)``.
        self.epoch_blocks = config.epoch_blocks or config.blocks_per_month
        self._epoch_entered: Optional[int] = None
        #: height the world believes it is at when its chain is empty —
        #: nonzero only for worlds restored from an :class:`EpochSeal`,
        #: whose chain starts mid-window.
        self._initial_height = 0

        self.blockchain = Blockchain()
        self.node = ArchiveNode(self.blockchain)
        self.mempool = Mempool(ttl_blocks=40, incremental=fast_paths)
        self.gossip = GossipNetwork(
            random.Random(config.seed + 1),
            observation_rate=config.observation_rate)
        obs_start = calendar.first_block_of(
            config.observation_start_month)
        obs_end = (calendar.month_bounds(config.observation_end_month)[1]
                   if config.observation_end_month else None)
        self.observer = MempoolObserver(start_block=obs_start,
                                        end_block=obs_end)
        self.gossip.attach_observer(self.observer)
        self.flashbots_api = FlashbotsBlocksApi()
        self.ground_truths: List[GroundTruth] = []
        self.base_fee = 0
        self._giant_payout_done = False
        self._last_payout: Dict[Address, int] = {}
        self._contracts = self._collect_contracts()
        # Hoisted out of step(): the gas-demand model holds only static
        # parameters plus the rng handle — constructing it draws nothing,
        # so one shared instance is draw-for-draw identical to a fresh
        # one per block.
        self._gas_model = GasDemandModel(
            self.rng, organic_gwei=config.organic_gas_gwei,
            pga_multiplier=config.pga_gas_multiplier)
        self._scale_by_month: Dict[int, float] = {}
        #: cross-block probe results shared by every scan of this world;
        #: never sealed (every hit is exact, so a restored world starting
        #: cold computes the same results).
        self.probe_cache = ProbeCache()
        #: chunks already sealed for the growing datasets, reused by
        #: every later seal, plus the per-dataset entry counts they
        #: cover (the version counters of the incremental seal).
        self._seal_parts: List[SealPart] = []
        self._sealed_counts: Dict[str, int] = {
            "observer": 0, "truths": 0, "api": 0}
        #: overlapped spill I/O (attach_segment_store(overlap_io=True)):
        #: the writer owns a background thread; the world flushes it at
        #: every run() exit so callers always observe durable segments,
        #: and close_io() stops it.
        self._overlap_writer: Optional[BackgroundWriter] = None
        self._spool_seals = False
        #: long-run GC regime hook (install_flat_gc); stepped at every
        #: epoch boundary.  Draw-neutral: GC timing never touches RNGs.
        self._flat_gc: Optional[FlatGC] = None

    # Setup helpers -----------------------------------------------------------

    def _collect_contracts(self) -> Dict[Address, object]:
        contracts: Dict[Address, object] = dict(self.registry.contracts)
        contracts[self.oracle.address] = self.oracle
        for pool in self.lending_pools:
            contracts[pool.address] = pool
        if self.flash_provider is not None:
            contracts[self.flash_provider.address] = self.flash_provider
        return contracts

    # Public traffic -------------------------------------------------------

    def submit_public(self, tx: Transaction, current_block: int) -> None:
        """Gossip a transaction: observer may see it, miners will."""
        self.gossip.broadcast(tx, current_block)
        self.mempool.add(tx, current_block)

    # Per-block activity --------------------------------------------------------

    def _poisson(self, rate: float) -> int:
        """Small-rate Poisson sample (inversion method)."""
        if rate <= 0:
            return 0
        count, threshold = 0, self.rng.random()
        cumulative = probability = math.exp(-rate)
        while threshold > cumulative and count < 100:
            count += 1
            probability *= rate / count
            cumulative += probability
        return count

    def _activity_scale(self, block_number: int) -> float:
        """Monthly activity multiplier (DeFi volume ramps over 2020–21)."""
        index = self.calendar.month_index(block_number)
        cached = self._scale_by_month.get(index)
        if cached is None:
            cached = min(1.0, ACTIVITY_RAMP_BASE
                         + ACTIVITY_RAMP_SLOPE * index)
            self._scale_by_month[index] = cached
        return cached

    def _generate_traffic(self, current: int, fees: FeeModel) -> None:
        scale = self._activity_scale(current + 1)
        for _ in range(self._poisson(self.config.swaps_per_block
                                     * scale)):
            tx = self.traders.make_swap(self.state, self.registry, fees)
            if tx is not None:
                self.submit_public(tx, current)
        for _ in range(self._poisson(self.config.transfers_per_block
                                     * scale)):
            self.submit_public(self.traders.make_transfer(self.state,
                                                          fees), current)
        for _ in range(self._poisson(self.config.stable_swaps_per_block
                                     * scale)):
            tx = self.traders.make_stable_swap(self.state,
                                               self.registry, fees)
            if tx is not None:
                self.submit_public(tx, current)
        if self.rng.random() < self.config.amateur_arb_rate * scale:
            tx = self.traders.make_naive_arbitrage(self.state,
                                                   self.registry, fees)
            if tx is not None:
                self.submit_public(tx, current)
        open_loans = sum(pool.open_loan_count()
                         for pool in self.lending_pools)
        if (open_loans < self.config.max_open_loans
                and self.rng.random() < self.config.borrow_rate * scale
                and self.lending_pools):
            pool = self.rng.choice(self.lending_pools)
            tx = self.borrowers.make_borrow(self.state, pool,
                                            self.oracle, fees)
            if tx is not None:
                self.submit_public(tx, current)
        for tx in self.keeper.make_updates(self.state, fees,
                                           current + 1):
            self.submit_public(tx, current)

    def _active_searchers(self, target_block: int) -> List[Searcher]:
        """Searchers whose lifecycle covers ``target_block`` (computed
        once per step; activity depends only on the block number)."""
        return [s for s in self.searchers if s.is_active(target_block)]

    def _pga_intensity(self, target_block: int,
                       active: Optional[List[Searcher]] = None) -> float:
        """Share of active MEV searchers bidding in the *public* mempool —
        the driver of Figure 6's gas-price regimes."""
        if active is None:
            active = self._active_searchers(target_block)
        bidding = [s for s in active if s.strategy != "other"]
        if not bidding:
            return 0.0
        public = sum(1 for s in bidding
                     if s.policy.channel_at(target_block)
                     == CHANNEL_PUBLIC)
        return public / len(bidding)

    def _competition(self, target_block: int,
                     active: Optional[List[Searcher]] = None,
                     ) -> Dict[str, int]:
        if active is None:
            active = self._active_searchers(target_block)
        counts: Dict[str, int] = {}
        for searcher in active:
            counts[searcher.strategy] = \
                counts.get(searcher.strategy, 0) + 1
        return counts

    @fast_path(toggle="fast_paths")
    def _run_searchers(self, current: int, fees: FeeModel,
                       active: Optional[List[Searcher]] = None,
                       competition: Optional[Dict[str, int]] = None,
                       ) -> None:
        target = current + 1
        if active is None:
            active = self._active_searchers(target)
        if competition is None:
            competition = self._competition(target, active)
        liquidatable = [(pool, pool.liquidatable_loans())
                        for pool in self.lending_pools]
        view = MarketView(
            state=self.state, registry=self.registry, oracle=self.oracle,
            pending=self.mempool.transactions, block_number=current,
            fees=fees, rng=self.rng, lending_pools=self.lending_pools,
            flash_provider=self.flash_provider,
            competition=competition,
            liquidatable_by_pool=liquidatable,
            bundle_rush=self.rng.random() < 0.25,
            memo={} if self.fast_paths else None,
            probe_cache=self.probe_cache)
        flashbots_live = target >= self.flashbots_launch_block
        for searcher in active:
            rate = searcher.attempt_rate
            # Once Flashbots exists, sandwiching through the open mempool
            # is a losing race against bundles (the paper finds only
            # 5.6 % of window sandwiches were public): the remaining
            # public sandwichers try far less often.
            if (flashbots_live and searcher.strategy == "sandwich"
                    and searcher.policy.channel_at(target)
                    == CHANNEL_PUBLIC):
                rate *= 0.35
            if rate < 1.0 and self.rng.random() > rate:
                continue
            for submission in searcher.scan(view):
                self._route_submission(submission, current,
                                       flashbots_live)

    def _route_submission(self, submission: Submission, current: int,
                          flashbots_live: bool) -> None:
        if submission.channel == CHANNEL_FLASHBOTS:
            if not flashbots_live or submission.bundle is None:
                return
            if self.relay.submit(submission.bundle, current):
                self.ground_truths.append(submission.ground_truth)
            return
        if submission.channel == CHANNEL_PRIVATE:
            pool = self.private_pools.get(submission.private_pool or "")
            if pool is None:
                return
            if pool.submit_sequence(submission.private_sequence,
                                    current):
                self.ground_truths.append(submission.ground_truth)
            return
        accepted_any = False
        for tx in submission.txs:
            if self.mempool.add(tx, current):
                self.gossip.broadcast(tx, current)
                accepted_any = True
        if accepted_any:
            self.ground_truths.append(submission.ground_truth)

    # Miner-side extras ------------------------------------------------------

    def _payout_bundle(self, miner: MinerProfile, target: int,
                       fees: FeeModel):
        schedule = miner.payout_schedule
        if schedule is None:
            return None
        if not miner.in_flashbots(target) or \
                target < self.flashbots_launch_block:
            return None
        # Payouts fire on the first block the pool mines once the payout
        # interval has elapsed (pools batch payouts, then wait for their
        # own next block to include them fee-free).
        last = self._last_payout.get(miner.address,
                                     self.flashbots_launch_block)
        if target - last < schedule.interval_blocks:
            return None
        self._last_payout[miner.address] = target
        recipients = schedule.recipients
        # One F2Pool payout in the study is famously 700 transactions
        # (block 12,481,590 in the paper): the first payout due after the
        # giant-payout month fires at full size.
        giant_block = (self.flashbots_launch_block
                       + 4 * self.config.blocks_per_month)
        if (miner.name == "f2pool" and not self._giant_payout_done
                and target >= giant_block):
            recipients = self.config.giant_payout_recipients
            self._giant_payout_done = True
        needed = recipients * (schedule.amount_wei + ether(0.01))
        if self.state.eth_balance(miner.address) < needed:
            self.state.credit_eth(miner.address, needed * 2)
        txs = []
        nonce = self.state.nonce(miner.address)
        for i in range(recipients):
            recipient = f"0x{'11' * 10}{i:020x}"
            txs.append(Transaction(
                sender=miner.address, nonce=nonce + i, to=recipient,
                value=schedule.amount_wei, gas_limit=21_000,
                meta={"role": "payout"}, _uid=self.state.next_tx_uid(),
                **fees.bundle_fields()))
        return make_bundle(miner.address, txs, target,
                           bundle_type=MINER_PAYOUT)

    def _rogue_bundle(self, miner: MinerProfile, target: int,
                      fees: FeeModel):
        if not miner.in_flashbots(target) or \
                target < self.flashbots_launch_block:
            return None
        if self.rng.random() >= self.config.rogue_bundle_rate:
            return None
        if self.state.eth_balance(miner.address) < ether(5):
            self.state.credit_eth(miner.address, ether(100))
        tx = Transaction(
            sender=miner.address, nonce=self.state.nonce(miner.address),
            to=miner.mev_account, value=ether(self.rng.uniform(0.1, 2)),
            gas_limit=21_000, meta={"role": "rogue"},
            _uid=self.state.next_tx_uid(), **fees.bundle_fields())
        return make_bundle(miner.address, [tx], target,
                           bundle_type=ROGUE)

    @fast_path(toggle="fast_paths")
    def _self_mev_sequences(self, miner: MinerProfile, current: int,
                            fees: FeeModel,
                            competition: Optional[Dict[str, int]] = None,
                            ) -> List[tuple]:
        """A self-extracting miner's own sandwiches for the block it is
        building right now: it scans the mempool exactly when it wins the
        lottery and inserts its attack privately (Section 6.3)."""
        searcher = self.self_mev_searchers.get(miner.address)
        if searcher is None or not miner.self_mev:
            return []
        if competition is None:
            competition = self._competition(current + 1)
        # Fresh memo: payout/rogue bundles may have credited ETH between
        # the public searcher scan and this one, so cached quotes from
        # _run_searchers are not guaranteed valid here.
        view = MarketView(
            state=self.state, registry=self.registry, oracle=self.oracle,
            pending=self.mempool.transactions, block_number=current,
            fees=fees, rng=self.rng, lending_pools=self.lending_pools,
            flash_provider=self.flash_provider,
            competition=competition,
            memo={} if self.fast_paths else None,
            probe_cache=self.probe_cache)
        sequences: List[tuple] = []
        for submission in searcher.scan(view):
            if submission.channel != CHANNEL_PRIVATE or \
                    not submission.private_sequence:
                continue
            sequences.append(submission.private_sequence)
            self.ground_truths.append(submission.ground_truth)
        return sequences

    @fast_path(toggle="fast_paths")
    def _prune_private_backlog(self) -> int:
        """Drop private sequences that can never be included again.

        Inline pair: with ``fast_paths=False`` nothing is pruned and
        every dead sequence is rescanned (and re-rejected by the exact
        nonce check) on each member-miner block — the naive behaviour
        the fast path must match block for block.  Pruning draws no
        randomness and removes only sequences whose every future
        inclusion attempt fails validation before touching state, so
        the built blocks are identical either way (see
        :meth:`repro.privatepools.pool.PrivatePool.prune_dead`).
        """
        if not self.fast_paths:
            return 0
        return self.private_pools.prune_dead(self.state.nonce)

    # Epoch boundaries & seals ------------------------------------------------

    def _height(self) -> int:
        """Current chain height; mid-window start for restored worlds."""
        height = self.blockchain.height
        return self._initial_height if height is None else height

    def _enter_epoch(self, epoch_index: int) -> None:
        """Reseed every RNG stream for ``epoch_index``.

        Streams are reseeded *in place* so every alias stays wired —
        ``_gas_model`` shares ``self.rng``, the gossip network owns the
        observation stream, and the populations each own theirs.
        """
        if self._flat_gc is not None:
            self._flat_gc.epoch_boundary()
        seed = self.config.seed
        self.rng.seed(epoch_stream_seed(seed, "world", epoch_index))
        self.gossip.rng.seed(
            epoch_stream_seed(seed, "gossip", epoch_index))
        self.traders.rng.seed(
            epoch_stream_seed(seed, "traders", epoch_index))
        self.borrowers.rng.seed(
            epoch_stream_seed(seed, "borrowers", epoch_index))
        self.keeper.rng.seed(
            epoch_stream_seed(seed, "keeper", epoch_index))
        self.universe.reseed_epoch(seed, epoch_index)
        self._epoch_entered = epoch_index

    def seal(self) -> EpochSeal:
        """Snapshot the carried state at the current epoch boundary.

        Only valid when the height *is* a boundary (a multiple of
        ``epoch_blocks``, or the end of the study window).  The returned
        seal plus ``(seed, epoch_index)`` is everything a fresh worker
        needs to reproduce the next epoch draw-for-draw — see
        :func:`repro.sim.scenario.restore_paper_scenario`.
        """
        height = self._height()
        if (height % self.epoch_blocks != 0
                and height != self.calendar.total_blocks):
            raise ValueError(
                f"cannot seal mid-epoch: height {height} is not a "
                f"boundary (epoch_blocks={self.epoch_blocks})")
        carried = {
            "state": self.state, "registry": self.registry,
            "oracle": self.oracle, "universe": self.universe,
            "lending_pools": self.lending_pools,
            "flash_provider": self.flash_provider,
            "miners": self.miners, "relay": self.relay,
            "private_pools": self.private_pools,
            "traders": self.traders, "borrowers": self.borrowers,
            "keeper": self.keeper, "searchers": self.searchers,
            "self_mev_searchers": self.self_mev_searchers,
            "mempool": self.mempool, "gossip": self.gossip,
            "observer": self.observer,
            "api_gaps": tuple(self.flashbots_api.coverage_gaps()),
            "base_fee": self.base_fee,
            "giant_payout_done": self._giant_payout_done,
            "last_payout": self._last_payout,
        }
        # The growing datasets travel as shared append-only chunks, not
        # in the core pickle: the observer stays inside the graph (its
        # gossip wiring must survive) but is pickled with an empty
        # trace; the Flashbots dataset and ground-truth log are only
        # referenced by the world, so they are simply left out.
        trace = self.observer.swap_trace({})
        try:
            payload = pickle.dumps(carried,
                                   protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            self.observer.swap_trace(trace)
        self._extend_seal_parts()
        parts = tuple(self._seal_parts)
        tip = self.blockchain.height
        parent_hash = None
        if tip is not None:
            tip_block = self.blockchain.block_by_number(tip)
            if tip_block is not None:
                parent_hash = tip_block.hash
        return EpochSeal(
            epoch_index=-(-height // self.epoch_blocks),
            first_block=height + 1,
            parent_hash=parent_hash, payload=payload,
            fingerprint=seal_fingerprint(
                hashlib.sha256(payload).hexdigest(), parts),
            parts=parts)

    def _extend_seal_parts(self) -> None:
        """Chunk the entries added to each growing dataset since the
        last boundary.  Each dataset's entry count is its version
        counter (all three are append-only), so an unchanged dataset
        contributes no new chunk and its existing pickles are reused."""
        sources = (
            ("observer", self.observer.trace_length(),
             self.observer.trace_slice),
            ("truths", len(self.ground_truths),
             lambda start: self.ground_truths[start:]),
            ("api", self.flashbots_api.record_count(),
             self.flashbots_api.records_slice),
        )
        for kind, length, slice_from in sources:
            start = self._sealed_counts[kind]
            if length <= start:
                continue
            entries = slice_from(start)
            blob = pickle.dumps(entries,
                                protocol=pickle.HIGHEST_PROTOCOL)
            index = sum(1 for part in self._seal_parts
                        if part.kind == kind)
            self._seal_parts.append(SealPart(
                kind=kind, index=index, count=len(entries),
                payload=blob,
                digest=hashlib.sha256(blob).hexdigest()))
            self._sealed_counts[kind] = length

    def restore_carry(self, seal: EpochSeal, carried: dict) -> None:
        """Adopt the non-constructor carried state from ``carried``.

        The constructor-visible components (state, registry, pools,
        populations, …) must already have been passed to ``__init__``
        from the *same* unpickled graph — see
        :func:`repro.sim.scenario.restore_paper_scenario` — so that
        ``_collect_contracts`` and the gas model wire against the
        restored objects.  This method overwrites the pieces the
        constructor built fresh and positions the world at the seal.
        """
        if self.blockchain.height is not None:
            raise ValueError("restore_carry requires an empty chain")
        self.mempool = carried["mempool"]
        self.gossip = carried["gossip"]
        self.observer = carried["observer"]
        self.flashbots_api = carried["flashbots_api"]
        self.ground_truths = carried["ground_truths"]
        self.base_fee = carried["base_fee"]
        self._giant_payout_done = carried["giant_payout_done"]
        self._last_payout = carried["last_payout"]
        self._initial_height = seal.first_block - 1
        self._epoch_entered = None
        # Adopt the incoming seal's chunks so seals taken later in this
        # world reuse them byte for byte — a worker's seal of epoch N+1
        # is then identical to the serial run's, prefix chunks included.
        self._seal_parts = list(seal.parts)
        self._sealed_counts = {
            kind: sum(part.count for part in seal.parts
                      if part.kind == kind)
            for kind in ("observer", "truths", "api")}

    def attach_segment_store(self, store: SegmentStore,
                             max_resident_epochs: int = 2,
                             overlap_io: bool = False,
                             spool_seals: bool = False) -> None:
        """Swap the in-memory chain for a spillable, segment-backed one.

        Completed epochs spill to ``store`` as fingerprinted segment
        files and all but the newest ``max_resident_epochs`` are evicted
        from memory, so peak residency is O(epoch) instead of O(world).
        Must be called before the first block is mined.

        With ``overlap_io`` the spill pickles and fsyncs run on a
        background thread (:class:`~repro.sim.overlap.BackgroundWriter`)
        so ``step`` never blocks on disk; the bounded queue's
        backpressure keeps residency at O(epoch), and every ``run()``
        exit flushes the queue so callers always observe durable files.
        The files written are byte-identical to the synchronous path.
        With ``spool_seals``, every seal taken by
        ``run(collect_seals=...)`` is also written durably to the store
        as a ``seal-NNNNNN.pkl`` sidecar (through the same writer when
        overlapped).
        """
        if self.blockchain.height is not None:
            raise ValueError(
                "attach_segment_store requires an empty chain")
        if overlap_io:
            self._overlap_writer = BackgroundWriter()
            store.attach_writer(self._overlap_writer)
        self._spool_seals = spool_seals
        self.blockchain = SpillingBlockchain(
            store, epoch_blocks=self.epoch_blocks,
            first_block=self._initial_height + 1,
            max_resident_epochs=max_resident_epochs)
        self.node = ArchiveNode(self.blockchain)

    def install_flat_gc(self, flat_gc: Optional[FlatGC] = None) -> FlatGC:
        """Adopt the long-run GC regime (see :mod:`repro.sim.overlap`).

        Collects and freezes the survivor heap now and again at every
        epoch boundary, with a raised gen-0 threshold in between, so
        full collections stop rescanning the ever-growing frozen heap.
        GC timing draws nothing — block outputs are unchanged.  The
        caller owns ``uninstall()`` (or uses the returned object as a
        context manager around ``run``).
        """
        self._flat_gc = flat_gc or FlatGC()
        if not self._flat_gc.installed:
            self._flat_gc.install()
        return self._flat_gc

    # The main loop ---------------------------------------------------------

    def step(self) -> None:
        current = self._height()
        number = current + 1
        epoch = (number - 1) // self.epoch_blocks
        if epoch != self._epoch_entered:
            self._enter_epoch(epoch)
        london = self.forks.is_london(number)
        if london and self.base_fee == 0:
            self.base_fee = INITIAL_BASE_FEE
        active = self._active_searchers(number)
        competition = self._competition(number, active)
        fees = FeeModel(base_fee=self.base_fee, london_active=london,
                        prevailing=self._gas_model.level(
                            self._pga_intensity(number, active)))

        self._generate_traffic(current, fees)
        self._run_searchers(current, fees, active, competition)

        miner = self.miners.pick(self.rng)
        bundles = []
        flashbots_member = (miner.in_flashbots(number)
                            and number >= self.flashbots_launch_block)
        if flashbots_member:
            bundles.extend(self.relay.bundles_for_block(number,
                                                        miner.address))
            payout = self._payout_bundle(miner, number, fees)
            if payout is not None:
                bundles.append(payout)
            rogue = self._rogue_bundle(miner, number, fees)
            if rogue is not None:
                bundles.append(rogue)
        private_sequences = list(self.private_pools.pending_for_miner(
            miner.address, number))
        private_sequences += self._self_mev_sequences(miner, current,
                                                      fees, competition)

        result = build_block(
            self.state, self.mempool, number=number,
            timestamp=13 * number, coinbase=miner.address,
            base_fee=self.base_fee, contracts=self._contracts,
            bundles=bundles, private_sequences=private_sequences,
            burn_base_fee=london)
        self.blockchain.append(result.block)

        if result.included_bundles:
            self.flashbots_api.record_block(number, miner.address,
                                            result.included_bundles)

        included_hashes: Set[str] = set(result.block.tx_hashes)
        self.mempool.remove(included_hashes)
        self.mempool.evict_stale(number)
        self.private_pools.mark_included(included_hashes)
        self.private_pools.expire_stale(number)
        self._prune_private_backlog()
        self.relay.mark_included(number, {
            item.bundle.bundle_id for item in result.included_bundles})
        self.relay.expire_before(number + 1)

        if london:
            self.base_fee = next_base_fee(self.base_fee,
                                          result.block.gas_used,
                                          result.block.gas_limit)

    def run(self, blocks: Optional[int] = None,
            collect_seals: Optional[Dict[int, EpochSeal]] = None,
            ) -> SimulationResult:
        """Advance ``blocks`` steps (default: the whole study window).

        With ``collect_seals`` (a dict to fill), an :class:`EpochSeal`
        is taken at every epoch boundary crossed — including the start
        and, when the run ends on a boundary, the terminal state —
        keyed by the epoch the seal begins.
        """
        total = blocks if blocks is not None \
            else self.calendar.total_blocks
        start = self._height()
        end = min(start + total, self.calendar.total_blocks)
        while self._height() < end:
            if (collect_seals is not None
                    and self._height() % self.epoch_blocks == 0):
                boundary = self.seal()
                collect_seals[boundary.epoch_index] = boundary
                self._spool_seal(boundary)
            self.step()
        if collect_seals is not None:
            final = self._height()
            if (final % self.epoch_blocks == 0
                    or final == self.calendar.total_blocks):
                boundary = self.seal()
                collect_seals[boundary.epoch_index] = boundary
                self._spool_seal(boundary)
        self.flush_io()
        return self.result()

    def _spool_seal(self, seal: EpochSeal) -> None:
        """Durably spool one seal to the segment store (if enabled)."""
        if not self._spool_seals:
            return
        chain = self.blockchain
        if isinstance(chain, SpillingBlockchain):
            chain.store.write_sidecar(
                f"seal-{seal.epoch_index:06d}.pkl", seal)

    def flush_io(self) -> None:
        """Drain any overlapped spill writes to durable storage."""
        chain = self.blockchain
        if isinstance(chain, SpillingBlockchain):
            chain.flush()

    def close_io(self) -> None:
        """Stop the overlapped spill writer and detach it from the store.

        Its worker thread and locks go with it, so a finished run's
        result can be pickled; any later spill writes synchronously.
        """
        writer, self._overlap_writer = self._overlap_writer, None
        if writer is not None:
            writer.close()
            self.blockchain.store.attach_writer(None)

    def result(self) -> SimulationResult:
        return SimulationResult(
            config=self.config, calendar=self.calendar, forks=self.forks,
            blockchain=self.blockchain, node=self.node,
            observer=self.observer, flashbots_api=self.flashbots_api,
            relay=self.relay, miners=self.miners,
            private_pools=self.private_pools, oracle=self.oracle,
            registry=self.registry, lending_pools=self.lending_pools,
            ground_truths=self.ground_truths,
            flashbots_launch_block=self.flashbots_launch_block)
