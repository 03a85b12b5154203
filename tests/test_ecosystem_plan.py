"""The unit-planned world build: determinism, merge, and scale summary.

The load-bearing invariant is that the world is a pure function of
``(config, seed)``: every build unit draws from its own labelled RNG
stream, storefront names are salted per unit, and the merge folds with
commutative (or plan-ordered) operations.  The serial scale summary
folds the same units and must agree with the assembled world.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.domains import salt_token
from repro.domains.names import SpamNameGenerator
from repro.ecosystem import (
    WorldBuilder,
    build_world,
    scaled_config,
    small_config,
    summarize_world,
    world_fingerprint,
)
from repro.ecosystem.plan import (
    ContentFingerprint,
    build_plan,
    build_units,
    merge_units,
)
from repro.io.artifacts import fingerprint
from repro.stats.rng import SeedSequence


@pytest.fixture(scope="module")
def ctx_and_plan():
    builder = WorldBuilder(small_config(), seed=7)
    ctx = builder.context()
    return ctx, build_plan(ctx)


@pytest.fixture(scope="module")
def all_units(ctx_and_plan):
    ctx, plan = ctx_and_plan
    return list(build_units(ctx, plan))


class TestSaltGrammar:
    def test_salt_token_injective(self):
        tokens = [salt_token(i) for i in range(3000)]
        assert len(set(tokens)) == len(tokens)
        assert all(t.isalpha() and t.islower() for t in tokens)

    def test_salt_token_rejects_negative(self):
        with pytest.raises(ValueError):
            salt_token(-1)

    def test_salted_names_disjoint_across_salts(self):
        names = {}
        for salt_index in range(4):
            rng = SeedSequence(7).rng(f"salt-test.{salt_index}")
            gen = SpamNameGenerator(
                rng, "pharma", salt=salt_token(salt_index)
            )
            names[salt_index] = {gen.generate() for _ in range(200)}
        for a in names:
            for b in names:
                if a != b:
                    assert not (names[a] & names[b])

    def test_salt_must_be_alphabetic(self):
        rng = SeedSequence(7).rng("salt-test.bad")
        with pytest.raises(ValueError):
            SpamNameGenerator(rng, "pharma", salt="a-b")


class TestMergeCommutativity:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_camp_unit_order_does_not_matter(
        self, ctx_and_plan, all_units, data
    ):
        # Campaign units fold the same in any order: registry min-fold,
        # sorted campaign ids and salt-disjoint hosting keys make the
        # merge insensitive to it.  Redirector tags key on *shared*
        # benign redirector domains, so only the tagged key set is
        # order-free -- the winning (program, affiliate) pair relies on
        # plan-order folding.  Block (dga/hyb/junk) units keep their
        # relative order.
        ctx, plan = ctx_and_plan
        camp_positions = [
            i for i, u in enumerate(all_units) if u.kind == "camp"
        ]
        perm = data.draw(st.permutations(camp_positions))
        shuffled = list(all_units)
        for target, source in zip(camp_positions, perm):
            shuffled[target] = all_units[source]

        baseline = merge_units(ctx, plan, iter(all_units))
        permuted = merge_units(ctx, plan, iter(shuffled))

        assert world_fingerprint(baseline) == world_fingerprint(permuted)
        assert len(permuted.registry) == len(baseline.registry)
        assert permuted.hosting == baseline.hosting
        assert set(permuted.redirector_tags) == set(baseline.redirector_tags)
        assert [c.campaign_id for c in permuted.campaigns] == [
            c.campaign_id for c in baseline.campaigns
        ]

    def test_unit_fingerprint_fold_matches_world(
        self, ctx_and_plan, all_units
    ):
        ctx, plan = ctx_and_plan
        fp = ContentFingerprint()
        for unit in all_units:
            fp.add_unit(plan, unit)
        fp.finish_units(plan)
        world = merge_units(ctx, plan, iter(all_units))
        assert fp.hexdigest() == world_fingerprint(world)


class TestScaleSummary:
    def test_summary_matches_assembled_world(self):
        config = small_config()
        world = build_world(config, seed=7)
        summary = summarize_world(config, seed=7)
        counts = world.summary()
        assert summary.campaigns == counts["campaigns"]
        assert summary.advertised_domains == counts["advertised_domains"]
        assert summary.registered_domains == counts["registered_domains"]
        assert summary.fingerprint == world_fingerprint(world)
        starts = [p.start for c in world.campaigns for p in c.placements]
        assert summary.merged_events == summary.placements == len(starts)
        assert summary.first_event == min(starts)
        assert summary.last_event == max(starts)

class TestBuildSpans:
    def test_build_layers_nest_under_world_build(self):
        tracer = obs.Tracer()
        with obs.activate(tracer):
            build_world(small_config(), seed=7)
        (root,) = tracer.span_payloads()
        assert root["name"] == "world.build"
        assert root["attributes"] == {}
        assert [child["name"] for child in root["children"]] == [
            "world.context", "world.plan", "world.merge",
        ]

    def test_summary_folds_under_its_own_span(self):
        tracer = obs.Tracer()
        with obs.activate(tracer):
            summarize_world(small_config(), seed=7)
        assert [span["name"] for span in tracer.span_payloads()] == [
            "world.context", "world.plan", "world.summary.fold",
        ]


class TestScaledConfig:
    def test_scale_changes_cache_fingerprint(self):
        base = small_config()
        assert fingerprint(scaled_config(base, 2.0)) != fingerprint(base)
        assert fingerprint(scaled_config(base, 1.0)) == fingerprint(base)

    def test_scale_multiplies_populations(self):
        base = small_config()
        doubled = scaled_config(base, 2.0)
        for cls, before in base.campaign_classes.items():
            after = doubled.class_config(cls)
            assert after.count == max(1, round(before.count * 2.0))
        assert doubled.dga.n_domains == round(base.dga.n_domains * 2.0)
        # The benign web is infrastructure, not spam-side population.
        assert doubled.benign.alexa_size == base.benign.alexa_size

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            scaled_config(small_config(), 0.0)
