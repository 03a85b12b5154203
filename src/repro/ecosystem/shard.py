"""Sharded world construction: plan, pack, merge.

The monolithic :meth:`~repro.ecosystem.builder.WorldBuilder.build` holds
the entire world in one heap.  At 10--100x paper scale that is millions
of placement objects -- too much to build serially and too much to keep
resident just to compute summary tables.  This module splits the build
into a deterministic **plan** of independent units, executes contiguous
unit ranges (**shards**) on a pre-forked
:class:`~repro.parallel.pool.WorkerPool`, ships results back as packed
columnar blobs, and **merges** them in plan order.

Why shard count can never change a byte
---------------------------------------

* **The plan is serial.**  Entity populations and the campaign identity
  pre-pass run in the parent before any fork; every shard sees the same
  :class:`~repro.ecosystem.builder.BuildContext` copy-on-write.
* **Units own their streams.**  A unit draws only from RNG streams
  derived from ``(root_seed, unit label)`` -- ``campaign.<class>.<i>``,
  ``dga.<j>``, ``hyb.<j>``, ``junk.<j>`` -- so its output is a pure
  function of ``(ctx, unit)``, independent of which worker runs it or
  what ran before it.
* **Units own their names.**  Storefront name generators are salted
  per campaign / per block (see
  :class:`~repro.domains.names.SpamNameGenerator`), so shard-local
  issuance is globally collision-free without a shared issued set.
* **The merge folds in plan order** with operations that are either
  commutative (registry registration keeps the earliest date; XOR
  fingerprint folding) or first-write-wins over effectively disjoint
  key sets (hosting, redirector tags), so grouping units into 1 or 64
  shards yields the same world.  Shard boundaries are *cuts* in the
  fixed unit sequence; concatenating shard outputs reproduces the full
  unit sequence exactly.

The one caveat: gibberish pools (DGA bursts, junk reports) no longer
share an issued-name set across blocks, so two blocks *can* emit the
same name -- a birthday collision in a >10^12 name space, astronomically
rare at paper scale and deterministic (same seed, same collision) when
it happens.  The merge resolves any such collision by plan order.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
from array import array
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro import obs
from repro.ecosystem.builder import (
    BuildContext,
    CLASS_BUILD_ORDER,
    MEMBER_STRIDE,
    UnitResult,
    WorldBuilder,
    build_campaign_unit,
    build_dga_block,
    build_hyb_block,
    build_junk_block,
    dga_botnet_id,
    draw_identities,
    register_benign,
)
from repro.ecosystem.config import EcosystemConfig
from repro.ecosystem.entities import (
    AddressStrategy,
    Campaign,
    CampaignClass,
    DomainPlacement,
)
from repro.ecosystem.registry import Registry
from repro.ecosystem.world import HostingRecord, World
from repro.obs.hosttime import Stopwatch, peak_rss_kib
from repro.parallel.pool import WorkerPool, resolve_jobs
from repro.simtime import Timeline

#: Maximum campaigns per campaign-partition unit.  (program, botnet)
#: partitions larger than this are chunked so the planner can balance
#: shards even when one program dominates.
PARTITION_MAX = 512
#: Names per DGA / web-spam / junk block unit.
DGA_BLOCK = 4096
HYB_BLOCK = 2048
JUNK_BLOCK = 2048

#: Rough per-item build cost by unit kind (campaign bodies draw
#: placements, registrations and hosting; block names are one draw
#: each).  Only relative magnitudes matter -- the planner balances
#: cumulative cost across shards.
_UNIT_COST = {"camp": 24.0, "dga": 1.0, "hyb": 1.5, "junk": 1.0}

#: Enum definition orders, used as compact integer ranks in packed rows.
CLASS_ORDER: Tuple[CampaignClass, ...] = tuple(CampaignClass)
STRATEGY_ORDER: Tuple[AddressStrategy, ...] = tuple(AddressStrategy)


@dataclasses.dataclass(frozen=True)
class PlanUnit:
    """One independently buildable unit of the world.

    ``kind`` selects the builder: ``camp`` (a chunk of one
    (program, botnet) campaign partition, with the flat identity rows
    in ``members``), or a ``dga`` / ``hyb`` / ``junk`` block of
    ``count`` names with block index ``index``.
    """

    kind: str
    index: int
    count: int
    members: Optional[array] = None

    @property
    def cost(self) -> float:
        return self.count * _UNIT_COST[self.kind]


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """The full, deterministic unit sequence for one world build.

    Derived from config + seed alone (via the identity pre-pass); the
    same plan drives serial and parallel builds, so "how many shards"
    is decided after -- and independently of -- "what work exists".
    """

    units: Tuple[PlanUnit, ...]
    #: Number of non-DGA campaigns; also the DGA campaign's id.
    n_campaigns: int
    #: Botnet the DGA episode runs on (None when it is disabled).
    dga_botnet_id: Optional[int]

    @property
    def cumulative_cost(self) -> Tuple[float, ...]:
        acc = 0.0
        out: List[float] = []
        for unit in self.units:
            acc += unit.cost
            out.append(acc)
        return tuple(out)


def build_plan(ctx: BuildContext) -> ShardPlan:
    """Derive the unit sequence: identity pre-pass, partition, chunk.

    Campaigns are partitioned by their (program, botnet) identity --
    the paper's natural unit of attribution, and RNG-independent
    because identities are fixed *before* any campaign body draws.
    Partitions are visited in sorted key order and chunked to at most
    :data:`PARTITION_MAX` campaigns; the gibberish/side pools follow as
    fixed-size blocks.
    """
    members = draw_identities(ctx)
    partitions: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
    for row in members:
        key = (row[4], row[6])  # (program_id, botnet_id), -1 for absent
        partitions.setdefault(key, []).append(row)

    units: List[PlanUnit] = []
    part_index = 0
    for key in sorted(partitions):
        rows = partitions[key]
        for lo in range(0, len(rows), PARTITION_MAX):
            chunk = rows[lo:lo + PARTITION_MAX]
            flat = array("q")
            for row in chunk:
                flat.extend(row)
            units.append(
                PlanUnit(
                    kind="camp",
                    index=part_index,
                    count=len(chunk),
                    members=flat,
                )
            )
            part_index += 1

    cfg = ctx.config
    for kind, total, block in (
        ("dga", cfg.dga.n_domains, DGA_BLOCK),
        ("hyb", cfg.hyb_webspam_pool, HYB_BLOCK),
        ("junk", cfg.junk_report_pool, JUNK_BLOCK),
    ):
        for j, lo in enumerate(range(0, total, block)):
            units.append(
                PlanUnit(kind=kind, index=j, count=min(block, total - lo))
            )

    return ShardPlan(
        units=tuple(units),
        n_campaigns=len(members),
        dga_botnet_id=(
            dga_botnet_id(cfg, ctx.botnets) if cfg.dga.n_domains > 0 else None
        ),
    )


def shard_ranges(plan: ShardPlan, shards: int) -> List[Tuple[int, int]]:
    """Cut the unit sequence into ≤ *shards* contiguous, cost-balanced
    ranges.  Returns non-empty ``(lo, hi)`` unit-index pairs whose
    concatenation is exactly ``range(len(plan.units))`` -- the property
    the merge's shard-count invariance rests on.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    cumulative = plan.cumulative_cost
    if not cumulative:
        return []
    total = cumulative[-1]
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for s in range(1, shards + 1):
        target = total * s / shards
        hi = bisect.bisect_left(cumulative, target) + 1
        hi = max(hi, lo)
        hi = min(hi, len(plan.units))
        if s == shards:
            hi = len(plan.units)
        if hi > lo:
            ranges.append((lo, hi))
        lo = hi
    return ranges


def build_unit(ctx: BuildContext, plan: ShardPlan, index: int) -> UnitResult:
    """Build unit *index* of *plan* (pure in ``(ctx, plan, index)``)."""
    unit = plan.units[index]
    if unit.kind == "camp":
        assert unit.members is not None
        return build_campaign_unit(ctx, unit.members)
    if unit.kind == "dga":
        return build_dga_block(ctx, unit.index, unit.count)
    if unit.kind == "hyb":
        return build_hyb_block(ctx, unit.index, unit.count)
    if unit.kind == "junk":
        return build_junk_block(ctx, unit.index, unit.count)
    raise ValueError(f"unknown unit kind {unit.kind!r}")


# ----------------------------------------------------------------------
# Packed shard blobs
# ----------------------------------------------------------------------


def _join(domains: Iterable[str]) -> bytes:
    return "\n".join(domains).encode("utf-8")


def _split(blob: bytes) -> List[str]:
    if not blob:
        return []
    return blob.decode("utf-8").split("\n")


class PackedUnit(NamedTuple):
    """One :class:`UnitResult` in columnar form (cheap to pickle).

    Workers return these instead of object graphs: a handful of typed
    arrays and newline-joined name blobs pickle as flat buffers,
    sidestepping per-object pickling costs the same way
    :mod:`repro.io.columns` does for feed records.  Campaign placements
    are stored per campaign in campaign order; ``placements`` rows
    beyond the campaigns' total are the unit's loose (DGA) placements.
    """

    kind: str
    #: Per campaign: id, class rank, strategy rank, program, affiliate,
    #: botnet (-1 for absent), n_placements.
    camp_meta: array
    #: Per campaign: chaff, redirector, filter_evasion.
    camp_floats: array
    p_domains: bytes
    #: Per placement: start, end, broadcast_lag.
    p_times: array
    p_volumes: array
    reg_domains: bytes
    reg_times: array
    host_domains: bytes
    #: Per hosting record: live_from, live_until.
    host_times: array
    #: Per hosting record: program, affiliate (-1 for absent), dead flag.
    host_ids: array
    tag_domains: bytes
    #: Per redirector tag: program, affiliate (-1 for absent).
    tag_ids: array
    pool_domains: bytes


def pack_unit(unit: UnitResult) -> PackedUnit:
    """Pack a built unit into columnar form."""
    camp_meta = array("q")
    camp_floats = array("d")
    p_names: List[str] = []
    p_times = array("q")
    p_volumes = array("d")
    for c in unit.campaigns:
        camp_meta.extend(
            (
                c.campaign_id,
                CLASS_ORDER.index(c.campaign_class),
                STRATEGY_ORDER.index(c.strategy),
                -1 if c.program_id is None else c.program_id,
                -1 if c.affiliate_id is None else c.affiliate_id,
                -1 if c.botnet_id is None else c.botnet_id,
                len(c.placements),
            )
        )
        camp_floats.extend(
            (c.chaff_probability, c.redirector_probability, c.filter_evasion)
        )
        for p in c.placements:
            p_names.append(p.domain)
            p_times.extend((p.start, p.end, p.broadcast_lag))
            p_volumes.append(p.volume)
    for p in unit.placements:
        p_names.append(p.domain)
        p_times.extend((p.start, p.end, p.broadcast_lag))
        p_volumes.append(p.volume)

    reg_times = array("q")
    reg_names: List[str] = []
    for domain, t in unit.registrations:
        reg_names.append(domain)
        reg_times.append(t)

    host_names: List[str] = []
    host_times = array("q")
    host_ids = array("q")
    for record in unit.hosting:
        host_names.append(record.domain)
        host_times.extend((record.live_from, record.live_until))
        host_ids.extend(
            (
                -1 if record.program_id is None else record.program_id,
                -1 if record.affiliate_id is None else record.affiliate_id,
                int(record.dead),
            )
        )

    tag_names: List[str] = []
    tag_ids = array("q")
    for domain, program, affiliate in unit.redirector_tags:
        tag_names.append(domain)
        tag_ids.extend((program, affiliate))

    return PackedUnit(
        kind=unit.kind,
        camp_meta=camp_meta,
        camp_floats=camp_floats,
        p_domains=_join(p_names),
        p_times=p_times,
        p_volumes=p_volumes,
        reg_domains=_join(reg_names),
        reg_times=reg_times,
        host_domains=_join(host_names),
        host_times=host_times,
        host_ids=host_ids,
        tag_domains=_join(tag_names),
        tag_ids=tag_ids,
        pool_domains=_join(unit.pool),
    )


def unpack_unit(packed: PackedUnit) -> UnitResult:
    """Reconstruct a :class:`UnitResult` from its packed form."""
    result = UnitResult(kind=packed.kind)
    names = _split(packed.p_domains)

    def placements_at(start: int, n: int) -> List[DomainPlacement]:
        out: List[DomainPlacement] = []
        for i in range(start, start + n):
            out.append(
                DomainPlacement(
                    domain=names[i],
                    start=packed.p_times[3 * i],
                    end=packed.p_times[3 * i + 1],
                    volume=packed.p_volumes[i],
                    broadcast_lag=packed.p_times[3 * i + 2],
                )
            )
        return out

    cursor = 0
    meta = packed.camp_meta
    for offset in range(0, len(meta), 7):
        (cid, cls_rank, strat_rank, program, affiliate, botnet,
         n_placements) = meta[offset:offset + 7]
        findex = offset // 7
        result.campaigns.append(
            Campaign(
                campaign_id=cid,
                campaign_class=CLASS_ORDER[cls_rank],
                strategy=STRATEGY_ORDER[strat_rank],
                placements=placements_at(cursor, n_placements),
                affiliate_id=None if affiliate < 0 else affiliate,
                program_id=None if program < 0 else program,
                botnet_id=None if botnet < 0 else botnet,
                chaff_probability=packed.camp_floats[3 * findex],
                redirector_probability=packed.camp_floats[3 * findex + 1],
                filter_evasion=packed.camp_floats[3 * findex + 2],
            )
        )
        cursor += n_placements
    result.placements = placements_at(cursor, len(names) - cursor)

    for i, domain in enumerate(_split(packed.reg_domains)):
        result.registrations.append((domain, packed.reg_times[i]))
    for i, domain in enumerate(_split(packed.host_domains)):
        result.hosting.append(
            HostingRecord(
                domain=domain,
                live_from=packed.host_times[2 * i],
                live_until=packed.host_times[2 * i + 1],
                program_id=(
                    None if packed.host_ids[3 * i] < 0
                    else packed.host_ids[3 * i]
                ),
                affiliate_id=(
                    None if packed.host_ids[3 * i + 1] < 0
                    else packed.host_ids[3 * i + 1]
                ),
                dead=bool(packed.host_ids[3 * i + 2]),
            )
        )
    for i, domain in enumerate(_split(packed.tag_domains)):
        result.redirector_tags.append(
            (domain, packed.tag_ids[2 * i], packed.tag_ids[2 * i + 1])
        )
    result.pool = _split(packed.pool_domains)
    return result


class ShardResult(NamedTuple):
    """A task's output for one contiguous unit range."""

    lo: int
    hi: int
    #: Built units; packed when the shard crossed a process boundary.
    units: Tuple[Union[UnitResult, PackedUnit], ...]
    #: Peak RSS of the process that built the shard, after building it
    #: (a process lifetime high-water mark, so it bounds this shard
    #: from above).
    peak_rss_kib: Optional[int]
    build_seconds: float

    def __reduce__(self) -> Tuple[object, ...]:
        # A shard built in a forked worker travels as packed units --
        # typed arrays and name blobs instead of object graphs -- and
        # stays packed until the merge reaches it.
        units = tuple(
            unit if isinstance(unit, PackedUnit) else pack_unit(unit)
            for unit in self.units
        )
        return (
            ShardResult,
            (self.lo, self.hi, units, self.peak_rss_kib, self.build_seconds),
        )

    def unit_results(self) -> Iterator[UnitResult]:
        """The units in plan order, unpacked one at a time."""
        for unit in self.units:
            yield unpack_unit(unit) if isinstance(unit, PackedUnit) else unit


def _build_shard_task(
    state: Tuple[BuildContext, ShardPlan], payload: Tuple[int, int]
) -> ShardResult:
    """Pool task: build units ``[lo, hi)`` of the plan."""
    ctx, plan = state
    lo, hi = payload
    watch = Stopwatch()
    units = tuple(build_unit(ctx, plan, index) for index in range(lo, hi))
    return ShardResult(lo, hi, units, peak_rss_kib(), watch.elapsed())


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------


def merge_units(
    ctx: BuildContext,
    plan: ShardPlan,
    units: Iterable[UnitResult],
) -> World:
    """Fold unit results (in plan order) into the assembled world.

    Fold operations and why order cannot matter:

    * **registry** -- ``Registry.register`` keeps the earliest
      registration date (a commutative min-fold), and the serial build
      registers each domain through the exact same calls.
    * **hosting** -- first-write-wins over key sets that are disjoint
      across units (salted storefront names), so "first" is only ever
      exercised by the astronomically rare gibberish-pool birthday
      collision, which plan order resolves deterministically.
    * **redirector tags** -- first-write-wins over *shared* benign
      redirector domains, so here order genuinely matters; it stays
      deterministic because units always fold in plan order: the
      parallel path streams shard results back in submission-index
      order (``WorkerPool.run_stream``), which is plan order for any
      shard count.
    * **campaigns** -- collected from camp units and sorted by the
      globally unique campaign id assigned at plan time.
    * **DGA placements / side pools** -- concatenated in plan (block)
      order, which shard cuts preserve by construction.
    """
    registry = Registry()
    register_benign(ctx, registry)

    campaigns: List[Campaign] = []
    dga_placements: List[DomainPlacement] = []
    hosting: Dict[str, HostingRecord] = {}
    redirector_tags: Dict[str, Tuple[int, Optional[int]]] = {}
    hyb_webspam: List[str] = []
    junk_domains: List[str] = []

    for unit in units:
        for domain, registered_at in unit.registrations:
            registry.register(domain, registered_at)
        for record in unit.hosting:
            hosting.setdefault(record.domain, record)
        for domain, program, affiliate in unit.redirector_tags:
            redirector_tags.setdefault(
                domain, (program, None if affiliate < 0 else affiliate)
            )
        campaigns.extend(unit.campaigns)
        if unit.kind == "dga":
            dga_placements.extend(unit.placements)
        elif unit.kind == "hyb":
            hyb_webspam.extend(unit.pool)
        elif unit.kind == "junk":
            junk_domains.extend(unit.pool)

    campaigns.sort(key=lambda c: c.campaign_id)

    dga_campaign: Optional[Campaign] = None
    dga_domains: Set[str] = set()
    if dga_placements:
        dga_campaign = Campaign(
            campaign_id=plan.n_campaigns,
            campaign_class=CampaignClass.DGA_POISON,
            strategy=AddressStrategy.BRUTE_FORCE,
            placements=dga_placements,
            botnet_id=plan.dga_botnet_id,
            filter_evasion=0.0,
        )
        campaigns.append(dga_campaign)
        dga_domains = {p.domain for p in dga_placements}

    return World(
        timeline=ctx.timeline,
        programs=ctx.programs,
        affiliates=ctx.affiliates,
        botnets=ctx.botnets,
        campaigns=campaigns,
        registry=registry,
        benign=ctx.benign,
        hosting=hosting,
        dga_domains=dga_domains,
        dga_campaign=dga_campaign,
        redirector_tags=redirector_tags,
        hyb_webspam=hyb_webspam,
        junk_domains=junk_domains,
    )


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------


def _iter_units(
    ctx: BuildContext,
    plan: ShardPlan,
    shards: int,
    jobs: Optional[int],
) -> Iterator[UnitResult]:
    """Yield unit results in plan order, building shards on a pool.

    The pool inherits ``(ctx, plan)`` at fork time, so a task carries
    only a ``(lo, hi)`` unit range.  In-process nothing is shipped, so
    a task is one unit and the build stays one unit deep, exactly like
    :meth:`WorldBuilder.build`.
    """
    ranges = shard_ranges(plan, max(1, shards))
    with WorkerPool(
        max(1, min(resolve_jobs(jobs), len(ranges))), (ctx, plan)
    ) as pool:
        if not pool.forked:
            ranges = [(unit, unit + 1) for unit in range(len(plan.units))]
        labels = [f"world.shard[{lo}:{hi}]" for lo, hi in ranges]
        for index, shard in pool.run_stream(
            _build_shard_task, ranges, labels
        ):
            with obs.span(
                "world.shard",
                shard=index,
                units=shard.hi - shard.lo,
                worker_peak_rss_kib=shard.peak_rss_kib,
                worker_seconds=round(shard.build_seconds, 6),
            ):
                yield from shard.unit_results()


def build_world_sharded(
    config: Optional[EcosystemConfig] = None,
    seed: int = 2012,
    timeline: Optional[Timeline] = None,
    shards: int = 1,
    jobs: Optional[int] = None,
) -> World:
    """Build a world from *shards* parallel shard builds + one merge.

    ``shards=1``, ``jobs`` of 1, or any environment where forking is
    unavailable runs the units in-process, one at a time -- exactly
    what :meth:`WorldBuilder.build` runs, byte-identical by
    construction.
    """
    from repro.ecosystem.config import paper_config

    builder = WorldBuilder(config or paper_config(), seed, timeline)
    with obs.span("world.context"):
        ctx = builder.context()
    with obs.span("world.plan"):
        plan = build_plan(ctx)
    with obs.span("world.merge", units=len(plan.units), shards=shards):
        return merge_units(ctx, plan, _iter_units(ctx, plan, shards, jobs))


# ----------------------------------------------------------------------
# Content fingerprint
# ----------------------------------------------------------------------


class ContentFingerprint:
    """Order-independent digest of a world's campaign/pool content.

    Each row (campaign, placement, pool name) hashes to 16 bytes and is
    XOR-folded into the accumulator, so the digest is invariant to fold
    order -- the natural shape for content assembled from shards.  The
    digest covers exactly the conflict-free content: campaign rows,
    placement rows (bound to their campaign id), and the side pools
    with their global position.  It deliberately excludes benign-world
    registration dates, which iterate a Python ``set`` of strings and
    therefore vary with the interpreter's hash salt (while staying
    semantically equivalent: every benign domain long predates the
    window).
    """

    def __init__(self) -> None:
        self._acc = 0
        self._hyb = 0
        self._junk = 0
        self._dga_placements = 0

    def _fold(self, *fields: object) -> None:
        row = "|".join(str(f) for f in fields).encode("utf-8")
        self._acc ^= int.from_bytes(
            hashlib.sha256(row).digest()[:16], "big"
        )

    def add_placement(self, campaign_id: int, p: DomainPlacement) -> None:
        self._fold(
            "P", campaign_id, p.domain, p.start, p.end,
            p.broadcast_lag, repr(p.volume),
        )

    def add_campaign(self, c: Campaign) -> None:
        self._fold(
            "C",
            c.campaign_id,
            c.campaign_class.value,
            c.strategy.value,
            -1 if c.program_id is None else c.program_id,
            -1 if c.affiliate_id is None else c.affiliate_id,
            -1 if c.botnet_id is None else c.botnet_id,
            len(c.placements),
            repr(c.chaff_probability),
            repr(c.redirector_probability),
            repr(c.filter_evasion),
        )
        for p in c.placements:
            self.add_placement(c.campaign_id, p)

    def add_pool(self, kind: str, index: int, domain: str) -> None:
        self._fold(kind, index, domain)

    def add_unit(self, plan: ShardPlan, unit: UnitResult) -> None:
        """Fold one unit result (units may arrive in any order)."""
        for c in unit.campaigns:
            self.add_campaign(c)
        for p in unit.placements:
            self.add_placement(plan.n_campaigns, p)
            self._dga_placements += 1
        if unit.kind == "hyb":
            for domain in unit.pool:
                self.add_pool("hyb", self._hyb, domain)
                self._hyb += 1
        elif unit.kind == "junk":
            for domain in unit.pool:
                self.add_pool("junk", self._junk, domain)
                self._junk += 1

    def finish_units(self, plan: ShardPlan) -> None:
        """Fold the synthetic DGA campaign row the merge would create."""
        if self._dga_placements:
            self._fold(
                "C",
                plan.n_campaigns,
                CampaignClass.DGA_POISON.value,
                AddressStrategy.BRUTE_FORCE.value,
                -1,
                -1,
                -1 if plan.dga_botnet_id is None else plan.dga_botnet_id,
                self._dga_placements,
                repr(0.0),
                repr(0.0),
                repr(0.0),
            )

    @property
    def dga_placement_count(self) -> int:
        """Loose DGA placements folded so far."""
        return self._dga_placements

    def hexdigest(self) -> str:
        return f"{self._acc:032x}"


def world_fingerprint(world: World) -> str:
    """Content fingerprint of an assembled :class:`World`."""
    fp = ContentFingerprint()
    for campaign in world.campaigns:
        fp.add_campaign(campaign)
    for index, domain in enumerate(world.hyb_webspam):
        fp.add_pool("hyb", index, domain)
    for index, domain in enumerate(world.junk_domains):
        fp.add_pool("junk", index, domain)
    return fp.hexdigest()


# ----------------------------------------------------------------------
# Bounded-memory scale summary
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class WorldScaleSummary:
    """What a scale run reports without materializing a :class:`World`."""

    campaigns: int
    placements: int
    advertised_domains: int
    registered_domains: int
    pool_domains: int
    total_volume: float
    #: Placement events folded (every placement is one event).
    merged_events: int
    first_event: Optional[int]
    last_event: Optional[int]
    fingerprint: str
    shards: int


def summarize_world_sharded(
    config: Optional[EcosystemConfig] = None,
    seed: int = 2012,
    timeline: Optional[Timeline] = None,
    shards: int = 1,
    jobs: Optional[int] = None,
) -> WorldScaleSummary:
    """Build at scale and summarize without assembling a world.

    Units are folded one at a time into counters, the XOR content
    fingerprint, and the earliest/latest placement start, so the only
    whole-run state is those scalars plus the benign redirector set --
    never campaign object graphs or per-placement columns.

    Every reported quantity is invariant to shard count: counts and the
    fingerprint fold per unit, domain distinctness uses unit-local
    counting (exact thanks to salted names, with benign redirector
    placements tracked globally), and min/max are order-free.
    """
    from repro.ecosystem.config import paper_config

    builder = WorldBuilder(config or paper_config(), seed, timeline)
    with obs.span("world.context"):
        ctx = builder.context()
    with obs.span("world.plan"):
        plan = build_plan(ctx)

    fp = ContentFingerprint()
    campaigns = 0
    placements = 0
    pool_domains = 0
    registered = len(ctx.benign.all_benign)
    distinct = 0
    total_volume = 0.0
    benign_placed: Set[str] = set()
    first_event: Optional[int] = None
    last_event: Optional[int] = None

    with obs.span("world.summary.fold", units=len(plan.units), shards=shards):
        for unit in _iter_units(ctx, plan, shards, jobs):
            local: Set[str] = set()
            starts: List[int] = []
            for c in unit.campaigns:
                campaigns += 1
                for p in c.placements:
                    placements += 1
                    total_volume += p.volume
                    starts.append(p.start)
                    if p.domain in ctx.benign_union:
                        benign_placed.add(p.domain)
                    else:
                        local.add(p.domain)
            for p in unit.placements:
                placements += 1
                total_volume += p.volume
                starts.append(p.start)
                local.add(p.domain)
            if starts:
                lo, hi = min(starts), max(starts)
                if first_event is None or lo < first_event:
                    first_event = lo
                if last_event is None or hi > last_event:
                    last_event = hi
            distinct += len(local)
            registered += len(unit.registrations)
            pool_domains += len(unit.pool)
            fp.add_unit(plan, unit)
    fp.finish_units(plan)
    if fp.dga_placement_count:
        campaigns += 1

    return WorldScaleSummary(
        campaigns=campaigns,
        placements=placements,
        advertised_domains=distinct + len(benign_placed),
        registered_domains=registered,
        pool_domains=pool_domains,
        total_volume=total_volume,
        merged_events=placements,
        first_event=first_event,
        last_event=last_event,
        fingerprint=fp.hexdigest(),
        shards=shards,
    )
