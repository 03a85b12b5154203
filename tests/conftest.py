"""Shared fixtures.

Three worlds at three costs:

* ``toy_world`` -- a tiny hand-built world with known ground truth, for
  exact-value assertions in analysis tests.
* ``small_world`` / ``small_datasets`` / ``small_comparison`` -- the
  miniature generated world (fast, used by most module tests).
* ``paper_pipeline`` -- the full paper-scale pipeline (built once per
  session; used only by the integration shape tests).
"""

from __future__ import annotations

import pytest

from repro.ecosystem import build_world, paper_config, small_config
from repro.ecosystem.benign import BenignWorld
from repro.ecosystem.entities import (
    AddressStrategy,
    Affiliate,
    AffiliateProgram,
    Botnet,
    Campaign,
    CampaignClass,
    DomainPlacement,
    GoodsCategory,
)
from repro.ecosystem.registry import Registry
from repro.ecosystem.world import HostingRecord, World
from repro.feeds import collect_all, standard_feed_suite
from repro.analysis import FeedComparison
from repro.pipeline import PaperPipeline
from repro.simtime import Timeline, days

SMALL_SEED = 7


@pytest.fixture(scope="session", autouse=True)
def isolated_artifact_cache(tmp_path_factory):
    """Point the default artifact cache at a per-session temp directory.

    CLI-driving tests run with the default cache location; without this
    they would fill the user's ``~/.cache/repro``.  Tests that check how
    the default location resolves set their own environment with
    ``monkeypatch``, which restores this value afterwards.
    """
    patch = pytest.MonkeyPatch()
    patch.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache"))
    )
    yield
    patch.undo()


@pytest.fixture(scope="session")
def small_world():
    """The generated miniature world."""
    return build_world(small_config(), seed=SMALL_SEED)


@pytest.fixture(scope="session")
def small_datasets(small_world):
    """All ten feeds collected over the miniature world."""
    return collect_all(small_world, standard_feed_suite(SMALL_SEED))


@pytest.fixture(scope="session")
def small_comparison(small_world, small_datasets):
    """Analysis context over the miniature world."""
    return FeedComparison(small_world, small_datasets, seed=SMALL_SEED)


@pytest.fixture(scope="session")
def paper_pipeline():
    """The full paper-scale pipeline (expensive; built once)."""
    pipeline = PaperPipeline(paper_config(), seed=2012)
    pipeline.run()
    return pipeline


def build_toy_world() -> World:
    """A two-campaign world with fully-known ground truth.

    * Campaign 0: tagged (program 0 / affiliate 0), loud brute-force,
      two domains, delivered by monitored botnet 0.
    * Campaign 1: tagged (program 1 / affiliate 1), quiet purchased
      list, one domain, direct sending.
    * Benign world: 3 Alexa domains (one a redirector), 2 ODP-only.
    """
    timeline = Timeline()
    programs = {
        0: AffiliateProgram(0, "rx-promotion", GoodsCategory.PHARMA, 1.0,
                            embeds_affiliate_id=True),
        1: AffiliateProgram(1, "replica-co", GoodsCategory.REPLICA, 0.5),
    }
    affiliates = {
        0: Affiliate(0, 0, 100_000.0),
        1: Affiliate(1, 1, 5_000.0),
    }
    botnets = {0: Botnet(0, "rustock", 1.0, monitored=True)}

    c0 = Campaign(
        campaign_id=0,
        campaign_class=CampaignClass.BOTNET_BROADCAST,
        strategy=AddressStrategy.BRUTE_FORCE,
        placements=[
            DomainPlacement("loudpills.com", days(10), days(20), 50_000.0,
                            broadcast_lag=days(1)),
            DomainPlacement("loudpills2.net", days(18), days(30), 60_000.0,
                            broadcast_lag=days(2)),
        ],
        affiliate_id=0,
        program_id=0,
        botnet_id=0,
        filter_evasion=0.05,
    )
    c1 = Campaign(
        campaign_id=1,
        campaign_class=CampaignClass.QUIET_TARGETED,
        strategy=AddressStrategy.PURCHASED,
        placements=[
            DomainPlacement("quietwatch.biz", days(40), days(50), 400.0),
        ],
        affiliate_id=1,
        program_id=1,
        filter_evasion=0.9,
    )

    registry = Registry()
    for name, reg_at in [
        ("loudpills.com", days(9)),
        ("loudpills2.net", days(16)),
        ("quietwatch.biz", days(38)),
    ]:
        registry.register(name, reg_at)

    alexa = ["megaportal.com", "shortlink.us", "bignews.org"]
    odp = {"bignews.org", "dirlisted.net", "dirlisted2.info"}
    benign = BenignWorld(
        alexa_ranked=alexa,
        odp_domains=odp,
        redirectors=["shortlink.us"],
        chaff_pool=["megaportal.com"],
        newsletter_domains=["newsweekly.com"],
    )
    for domain in benign.all_benign:
        registry.register(domain, -days(500))

    hosting = {
        "loudpills.com": HostingRecord(
            "loudpills.com", days(9), days(40), 0, 0
        ),
        "loudpills2.net": HostingRecord(
            "loudpills2.net", days(16), days(60), 0, 0
        ),
        "quietwatch.biz": HostingRecord(
            "quietwatch.biz", days(38), days(55), 1, 1
        ),
    }

    return World(
        timeline=timeline,
        programs=programs,
        affiliates=affiliates,
        botnets=botnets,
        campaigns=[c0, c1],
        registry=registry,
        benign=benign,
        hosting=hosting,
        dga_domains=set(),
        dga_campaign=None,
        redirector_tags={"shortlink.us": (0, 0)},
        hyb_webspam=[],
        junk_domains=["qwxkzj.com"],
    )


@pytest.fixture()
def toy_world():
    """Fresh hand-built world per test (cheap to construct)."""
    return build_toy_world()
