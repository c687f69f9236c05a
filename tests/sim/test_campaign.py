"""Campaign persistence: round trips, caching, fingerprints."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.campaign import (
    Campaign,
    payload_checksum,
    run_id,
    stats_from_dict,
    stats_to_dict,
)
from repro.sim.config import baseline_config
from repro.sim.fastpath import fast_simulate
from repro.units import KB


class TestFingerprints:
    def test_same_inputs_same_id(self, mu3_small):
        config = baseline_config(cache_size_bytes=4 * KB)
        assert run_id(config, mu3_small) == run_id(config, mu3_small)

    def test_config_changes_id(self, mu3_small):
        a = baseline_config(cache_size_bytes=4 * KB)
        b = baseline_config(cache_size_bytes=8 * KB)
        assert run_id(a, mu3_small) != run_id(b, mu3_small)

    def test_cycle_time_changes_id(self, mu3_small):
        a = baseline_config(cache_size_bytes=4 * KB)
        assert run_id(a, mu3_small) != run_id(
            a.with_cycle_ns(20.0), mu3_small
        )

    def test_trace_changes_id(self, mu3_small, rd2n4_small):
        config = baseline_config(cache_size_bytes=4 * KB)
        assert run_id(config, mu3_small) != run_id(config, rd2n4_small)


class TestSerialization:
    def test_round_trip(self, mu3_small):
        config = baseline_config(cache_size_bytes=4 * KB)
        stats = fast_simulate(config, mu3_small)
        back = stats_from_dict(stats_to_dict(stats))
        assert back == stats

    def test_unknown_fields_are_collected_not_swallowed(self, mu3_small):
        """Regression: keys from a newer schema used to be dropped
        silently; they must be recorded in the ``unknown`` collector."""
        config = baseline_config(cache_size_bytes=4 * KB)
        payload = stats_to_dict(fast_simulate(config, mu3_small))
        payload["frobnication"] = 7
        payload["icache"]["victim_hits"] = 0

        dropped = []
        back = stats_from_dict(payload, unknown=dropped)
        assert sorted(dropped) == ["frobnication", "icache.victim_hits"]
        assert back == fast_simulate(config, mu3_small)

        # without a collector the behaviour is unchanged: tolerant load
        assert stats_from_dict(payload) == back


class TestFsckSchemaDrift:
    def test_fsck_reports_unknown_fields(self, tmp_path, mu3_small):
        import json

        campaign = Campaign(tmp_path / "runs")
        config = baseline_config(cache_size_bytes=4 * KB)
        campaign.save(
            run_id(config, mu3_small), fast_simulate(config, mu3_small)
        )
        path = campaign.directory / f"{run_id(config, mu3_small)}.json"

        # emulate a result written by a newer schema: extra keys, with
        # the checksum recomputed so the file still validates
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["stats"]["dcache"]["victim_hits"] = 3
        payload["checksum"] = payload_checksum(payload["stats"])
        path.write_text(json.dumps(payload), encoding="utf-8")

        report = campaign.fsck()
        assert report.clean  # drift is not corruption
        assert report.unknown_fields == [
            (path.name, "dcache.victim_hits")
        ]
        assert "unknown field" in report.render()


class TestCampaign:
    def test_run_simulates_then_caches(self, tmp_path, mu3_small):
        from repro.sim.resilience import CampaignExecutor, sweep_jobs

        campaign = Campaign(tmp_path / "runs")
        config = baseline_config(cache_size_bytes=4 * KB)
        jobs = sweep_jobs([config], [mu3_small])
        first = CampaignExecutor(campaign).run_sweep(jobs).records
        second = CampaignExecutor(campaign).run_sweep(jobs).records
        assert [r.cached for r in first + second] == [False, True]
        assert campaign.load(run_id(config, mu3_small)) == fast_simulate(
            config, mu3_small
        )
        assert len(campaign) == 1

    def test_results_iterates_everything(self, tmp_path, mu3_small):
        campaign = Campaign(tmp_path / "runs")
        for size in (4 * KB, 8 * KB):
            config = baseline_config(cache_size_bytes=size)
            campaign.save(
                run_id(config, mu3_small), fast_simulate(config, mu3_small)
            )
        assert len(list(campaign.results())) == 2

    def test_missing_run_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            Campaign(tmp_path / "runs").load("nope")

    def test_survives_reopen(self, tmp_path, mu3_small):
        config = baseline_config(cache_size_bytes=4 * KB)
        stats = fast_simulate(config, mu3_small)
        Campaign(tmp_path / "runs").save(run_id(config, mu3_small), stats)
        reopened = Campaign(tmp_path / "runs")
        identifier = run_id(config, mu3_small)
        assert identifier in reopened
        assert reopened.load(identifier) == stats
