"""Ground-truth spam ecosystem simulator.

The paper's raw inputs are ten proprietary feeds observing the same
underlying reality: spam campaigns run by affiliates of a few dozen
affiliate programs, delivered by botnets or direct senders, advertising
constantly-rotating registered domains, polluted by chaff, redirectors
and (for a few weeks) Rustock's random pseudo-domains.

This package generates that reality synthetically: a :class:`World`
containing affiliate programs, affiliates (with revenue), botnets,
campaigns with domain schedules and targeting strategies, a domain
registry, and the benign web (Alexa/ODP, redirector services, chaff).
Feed collectors (:mod:`repro.feeds`) then observe the world through
their respective collection biases, and the oracles
(:mod:`repro.oracles`) answer the measurement-side questions the paper's
analysis needs (DNS registration, web liveness/tagging, incoming-mail
volume).
"""

from repro.ecosystem.config import (
    CampaignClassConfig,
    EcosystemConfig,
    paper_config,
    scaled_config,
    small_config,
)
from repro.ecosystem.entities import (
    Affiliate,
    AffiliateProgram,
    AddressStrategy,
    Botnet,
    Campaign,
    CampaignClass,
    DomainPlacement,
    GoodsCategory,
)
from repro.ecosystem.registry import Registry, RegistryEntry
from repro.ecosystem.benign import BenignWorld
from repro.ecosystem.builder import BuildContext, WorldBuilder, build_world
from repro.ecosystem.plan import (
    WorldPlan,
    WorldScaleSummary,
    build_plan,
    summarize_world,
    world_fingerprint,
)
from repro.ecosystem.world import World

__all__ = [
    "AddressStrategy",
    "Affiliate",
    "AffiliateProgram",
    "BenignWorld",
    "Botnet",
    "BuildContext",
    "Campaign",
    "CampaignClass",
    "CampaignClassConfig",
    "DomainPlacement",
    "EcosystemConfig",
    "GoodsCategory",
    "Registry",
    "RegistryEntry",
    "World",
    "WorldBuilder",
    "WorldPlan",
    "WorldScaleSummary",
    "build_plan",
    "build_world",
    "paper_config",
    "scaled_config",
    "small_config",
    "summarize_world",
    "world_fingerprint",
]
