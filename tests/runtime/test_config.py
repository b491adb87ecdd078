"""RuntimeConfig tests: the cost model, recovery thresholds, and the
round-protocol option surface."""

from dataclasses import fields

import pytest

from repro.errors import ClusterConfigError
from repro.runtime.config import RuntimeConfig, SyncConfig
from repro.transport.config import cluster_from_dict


class TestOptionSurface:
    def test_sync_config_has_exactly_two_fields(self):
        """Every field here doubles the configurations simfuzz, tier-1
        and the benchmark must cover — a new one belongs in review."""
        assert {f.name for f in fields(SyncConfig)} == {
            "collection",
            "batch_max_ops",
        }
        assert SyncConfig().collection == "concurrent"

    def test_retired_runtime_options_stay_retired(self):
        names = {f.name for f in fields(RuntimeConfig)}
        assert "parallel_flush" not in names
        assert "delta_refresh" not in names
        assert "failover_timeout" not in names
        assert "max_ops_per_flush" not in names
        # An old cluster.yaml that still sets the retired round
        # pipelining depth fails loudly instead of running depth 1.
        old = {
            "nodes": [{"id": "n1", "port": 9101, "master": True}],
            "runtime": {"pipeline_depth": 1},
        }
        with pytest.raises(
            ClusterConfigError, match="unknown runtime option.*pipeline_depth"
        ):
            cluster_from_dict(old)


class TestCostModel:
    def test_flush_cost_scales_with_ops(self):
        config = RuntimeConfig()
        assert config.flush_cpu(10) > config.flush_cpu(0) > 0

    def test_apply_and_update_costs(self):
        config = RuntimeConfig()
        assert config.apply_cpu(5) == config.apply_cpu_base + 5 * config.apply_cpu_per_op
        assert config.update_cpu(5) == (
            config.update_cpu_base + 5 * config.update_cpu_per_op
        )

    def test_removal_threshold_exceeds_paper_outlier_line(self):
        # Two stall timeouts must land past 12 s so full recoveries are
        # the Figure 5 outliers.
        config = RuntimeConfig()
        assert config.removal_threshold > 12.0

    def test_frozen(self):
        import dataclasses

        config = RuntimeConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.sync_interval = 5.0  # type: ignore[misc]
