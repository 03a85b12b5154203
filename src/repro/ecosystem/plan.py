"""The world's unit plan: plan, build unit by unit, merge in plan order.

:meth:`~repro.ecosystem.builder.WorldBuilder.build` is the one world
build.  It derives a deterministic **plan** of independent units from
config and seed, builds the units one at a time, and **merges** them in
plan order.  :func:`summarize_world` walks the same units but folds
each into counters and a content fingerprint instead of assembling a
:class:`~repro.ecosystem.world.World`, so a 10--100x scale run holds
one unit at a time.

Why every byte is fixed by ``(config, seed)``
---------------------------------------------

* **The plan is serial.**  Entity populations and the campaign identity
  pre-pass run before any unit body draws; every unit reads the same
  :class:`~repro.ecosystem.builder.BuildContext`.
* **Units own their streams.**  A unit draws only from RNG streams
  derived from ``(root_seed, unit label)`` -- ``campaign.<class>.<i>``,
  ``dga.<j>``, ``hyb.<j>``, ``junk.<j>`` -- so its output is a pure
  function of ``(ctx, unit)``, independent of what ran before it.
* **Units own their names.**  Storefront name generators are salted
  per campaign / per block (see
  :class:`~repro.domains.names.SpamNameGenerator`), so unit-local
  issuance is globally collision-free without a shared issued set.
* **The merge folds in plan order** with operations that are either
  commutative (registry registration keeps the earliest date; XOR
  fingerprint folding) or first-write-wins over effectively disjoint
  key sets (hosting, redirector tags), so the world depends on the
  unit sequence, never on how its building was scheduled.

The one caveat: gibberish pools (DGA bursts, junk reports) do not
share an issued-name set across blocks, so two blocks *can* emit the
same name -- a birthday collision in a >10^12 name space, astronomically
rare at paper scale and deterministic (same seed, same collision) when
it happens.  The merge resolves any such collision by plan order.
"""

from __future__ import annotations

import dataclasses
import hashlib
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro import obs
from repro.ecosystem.builder import (
    BuildContext,
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
from repro.simtime import Timeline

#: Maximum campaigns per campaign-partition unit; larger
#: (program, botnet) partitions are chunked.  Unit boundaries, like the
#: block sizes below, are part of the world's identity: changing one
#: reorders the merge and re-labels the block streams.
PARTITION_MAX = 512
#: Names per DGA / web-spam / junk block unit.
DGA_BLOCK = 4096
HYB_BLOCK = 2048
JUNK_BLOCK = 2048


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


@dataclasses.dataclass(frozen=True)
class WorldPlan:
    """The full, deterministic unit sequence for one world build.

    Derived from config + seed alone (via the identity pre-pass).
    """

    units: Tuple[PlanUnit, ...]
    #: Number of non-DGA campaigns; also the DGA campaign's id.
    n_campaigns: int
    #: Botnet the DGA episode runs on (None when it is disabled).
    dga_botnet_id: Optional[int]


def build_plan(ctx: BuildContext) -> WorldPlan:
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

    return WorldPlan(
        units=tuple(units),
        n_campaigns=len(members),
        dga_botnet_id=(
            dga_botnet_id(cfg, ctx.botnets) if cfg.dga.n_domains > 0 else None
        ),
    )


def build_unit(ctx: BuildContext, plan: WorldPlan, index: int) -> UnitResult:
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


def build_units(ctx: BuildContext, plan: WorldPlan) -> Iterator[UnitResult]:
    """Build every unit of *plan* in plan order, one at a time."""
    for index in range(len(plan.units)):
        yield build_unit(ctx, plan, index)


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------


def merge_units(
    ctx: BuildContext,
    plan: WorldPlan,
    units: Iterable[UnitResult],
) -> World:
    """Fold unit results (in plan order) into the assembled world.

    Fold operations and why order cannot matter:

    * **registry** -- ``Registry.register`` keeps the earliest
      registration date (a commutative min-fold).
    * **hosting** -- first-write-wins over key sets that are disjoint
      across units (salted storefront names), so "first" is only ever
      exercised by the astronomically rare gibberish-pool birthday
      collision, which plan order resolves deterministically.
    * **redirector tags** -- first-write-wins over *shared* benign
      redirector domains, so here order genuinely matters; it stays
      deterministic because units always fold in plan order.
    * **campaigns** -- collected from camp units and sorted by the
      globally unique campaign id assigned at plan time.
    * **DGA placements / side pools** -- concatenated in plan (block)
      order.
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
# Content fingerprint
# ----------------------------------------------------------------------


class ContentFingerprint:
    """Order-independent digest of a world's campaign/pool content.

    Each row (campaign, placement, pool name) hashes to 16 bytes and is
    XOR-folded into the accumulator, so the digest is invariant to fold
    order: a unit-by-unit fold and a walk of the assembled world agree.  The
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

    def add_unit(self, plan: WorldPlan, unit: UnitResult) -> None:
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

    def finish_units(self, plan: WorldPlan) -> None:
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
# Scale summary: one unit resident at a time
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


def summarize_world(
    config: Optional[EcosystemConfig] = None,
    seed: int = 2012,
    timeline: Optional[Timeline] = None,
) -> WorldScaleSummary:
    """Build at scale and summarize without assembling a world.

    Units are folded one at a time into counters, the XOR content
    fingerprint, and the earliest/latest placement start, so the only
    whole-run state is those scalars plus the benign redirector set --
    never campaign object graphs or per-placement columns.

    Every reported quantity equals what the assembled world would
    report: counts and the fingerprint fold per unit, domain
    distinctness uses unit-local counting (exact thanks to salted
    names, with benign redirector placements tracked globally), and
    min/max are order-free.
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

    with obs.span("world.summary.fold", units=len(plan.units)):
        for unit in build_units(ctx, plan):
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
    )
