"""Sharded world build: determinism, packing, merge, and scale summary.

The load-bearing invariant is that shard count is *pure execution
width*: ``shards=1`` is byte-identical to the monolithic
``WorldBuilder.build()``, and any other count produces the same world
because every build unit draws from its own labelled RNG stream and the
merge folds with commutative (or canonically ordered) operations.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains import salt_token
from repro.domains.names import SpamNameGenerator
from repro.ecosystem import (
    WorldBuilder,
    build_world_sharded,
    scaled_config,
    small_config,
    summarize_world_sharded,
    world_fingerprint,
)
from repro.ecosystem.shard import (
    ContentFingerprint,
    build_plan,
    build_unit,
    merge_units,
    pack_unit,
    shard_ranges,
    unpack_unit,
)
from repro.io.artifacts import fingerprint
from repro.parallel import WorkerCrashed
from repro.parallel import fork_available
from repro.stats.rng import SeedSequence

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def _crash_task(state, payload):  # pragma: no cover - runs in a worker
    os._exit(21)


@pytest.fixture(scope="module")
def ctx_and_plan():
    builder = WorldBuilder(small_config(), seed=7)
    ctx = builder.context()
    return ctx, build_plan(ctx)


@pytest.fixture(scope="module")
def all_units(ctx_and_plan):
    ctx, plan = ctx_and_plan
    return [build_unit(ctx, plan, i) for i in range(len(plan.units))]


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


class TestPlanAndRanges:
    def test_ranges_partition_the_unit_sequence(self, ctx_and_plan):
        _, plan = ctx_and_plan
        for shards in (1, 2, 3, 8, 64, len(plan.units) + 5):
            ranges = shard_ranges(plan, shards)
            assert ranges[0][0] == 0
            assert ranges[-1][1] == len(plan.units)
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo
            assert all(lo < hi for lo, hi in ranges)

    @given(shards=st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_ranges_cover_exactly_once(self, ctx_and_plan, shards):
        _, plan = ctx_and_plan
        covered = [
            u for lo, hi in shard_ranges(plan, shards) for u in range(lo, hi)
        ]
        assert covered == list(range(len(plan.units)))


class TestPackedCodec:
    def test_roundtrip_every_unit_kind(self, ctx_and_plan, all_units):
        kinds = set()
        for unit in all_units:
            assert unpack_unit(pack_unit(unit)) == unit
            kinds.add(unit.kind)
        assert kinds == {"camp", "dga", "hyb", "junk"}


class TestShardCountInvariance:
    @pytest.mark.parametrize("seed", [7, 11, 2012])
    def test_shards_one_matches_monolithic(self, seed):
        config = small_config()
        mono = WorldBuilder(config, seed=seed).build()
        sharded = build_world_sharded(config, seed=seed, shards=1)
        assert world_fingerprint(mono) == world_fingerprint(sharded)
        assert mono.summary() == sharded.summary()

    @needs_fork
    @pytest.mark.parametrize("seed", [7, 11, 2012])
    def test_world_invariant_across_shard_counts(self, seed):
        config = small_config()
        prints = {
            shards: world_fingerprint(
                build_world_sharded(
                    config, seed=seed, shards=shards, jobs=2
                )
            )
            for shards in (1, 2, 8)
        }
        assert len(set(prints.values())) == 1

    @needs_fork
    def test_paper_tables_invariant_across_shard_counts(self):
        from repro.pipeline import PaperPipeline

        tables = {}
        for shards in (1, 2, 8):
            with PaperPipeline(
                small_config(), seed=7, shards=shards, jobs=2
            ) as pipeline:
                pipeline.run()
                tables[shards] = (
                    pipeline.render_table1()
                    + pipeline.render_table2()
                    + pipeline.render_table3()
                )
        assert tables[1] == tables[2] == tables[8]


class TestMergeCommutativity:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_camp_unit_order_does_not_matter(
        self, ctx_and_plan, all_units, data
    ):
        # Campaign units may arrive in any order (parallel shards finish
        # when they finish); registry min-fold, sorted campaign ids and
        # salt-disjoint hosting keys make the merge insensitive to it.
        # Redirector tags key on *shared* benign redirector domains, so
        # only the tagged key set is order-free -- the winning
        # (program, affiliate) pair relies on plan-order folding, which
        # run_stream's submission-order yield guarantees.  Block
        # (dga/hyb/junk) units keep their relative order, which shard
        # cuts preserve by construction.
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


class TestWorkerCrash:
    @needs_fork
    def test_shard_worker_crash_raises(self, monkeypatch):
        import repro.ecosystem.shard as shard_mod

        monkeypatch.setattr(shard_mod, "_build_shard_task", _crash_task)
        with pytest.raises(WorkerCrashed):
            build_world_sharded(small_config(), seed=7, shards=4, jobs=2)


class TestScaleSummary:
    def test_summary_matches_assembled_world(self):
        config = small_config()
        world = build_world_sharded(config, seed=7, shards=1)
        summary = summarize_world_sharded(config, seed=7, shards=1)
        counts = world.summary()
        assert summary.campaigns == counts["campaigns"]
        assert summary.advertised_domains == counts["advertised_domains"]
        assert summary.registered_domains == counts["registered_domains"]
        assert summary.fingerprint == world_fingerprint(world)

    @needs_fork
    def test_summary_invariant_across_shard_counts(self):
        config = small_config()
        baseline = summarize_world_sharded(config, seed=7, shards=1)
        import dataclasses

        for shards in (3, 8):
            other = summarize_world_sharded(
                config, seed=7, shards=shards, jobs=2
            )
            # shard count is reported, everything else must fold equal
            assert dataclasses.replace(other, shards=1) == baseline


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
