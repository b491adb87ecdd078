"""RuntimeConfig tests: the cost model, recovery thresholds, and the
runtime's option surface."""

from dataclasses import fields

import pytest

from repro.errors import ClusterConfigError
from repro.runtime import config as runtime_config
from repro.runtime.config import RuntimeConfig, SyncConfig
from repro.transport.config import _RUNTIME_KEYS, _SYNC_KEYS, cluster_from_dict

#: Options that became module constants: each had one value outside tests.
RETIRED_TO_CONSTANTS = (
    "flush_cpu_base",
    "flush_cpu_per_op",
    "apply_cpu_base",
    "apply_cpu_per_op",
    "update_cpu_base",
    "update_cpu_per_op",
    "missing_ops_timeout",
    "fsync_interval",
    "wal_segment_bytes",
)


class TestOptionSurface:
    def test_sync_config_has_exactly_two_fields(self):
        """Every field here doubles the configurations simfuzz, tier-1
        and the benchmark must cover — a new one belongs in review."""
        assert {f.name for f in fields(SyncConfig)} == {
            "collection",
            "batch_max_ops",
        }
        assert SyncConfig().collection == "concurrent"

    def test_runtime_config_has_exactly_nine_fields(self):
        """An option stays only if callers outside tests set two values
        (or it is a path); the rest are constants in runtime/config.py."""
        assert {f.name for f in fields(RuntimeConfig)} == {
            "sync_interval",
            "stall_timeout",
            "tracing",
            "refresh_oracle",
            "sync",
            "durability",
            "data_dir",
            "fsync_policy",
            "snapshot_interval",
        }
        # cluster.yaml's runtime section: all but the test instruments and
        # data_dir (which the cluster section and each node entry set)
        assert set(_RUNTIME_KEYS) | set(_SYNC_KEYS) == {
            "sync_interval",
            "stall_timeout",
            "durability",
            "fsync_policy",
            "snapshot_interval",
            "collection",
            "batch_max_ops",
        }

    def test_retired_runtime_options_stay_retired(self):
        names = {f.name for f in fields(RuntimeConfig)}
        assert "parallel_flush" not in names
        assert "delta_refresh" not in names
        assert "failover_timeout" not in names
        assert "max_ops_per_flush" not in names
        for name in RETIRED_TO_CONSTANTS:
            assert name not in names
            with pytest.raises(TypeError, match=name):
                RuntimeConfig(**{name: 1})
        assert not hasattr(RuntimeConfig, "removal_threshold")
        # An old cluster.yaml that still sets a retired key fails loudly
        # instead of silently running the one value the runtime has.
        for key in (
            "pipeline_depth",
            "missing_ops_timeout",
            "fsync_interval",
            "wal_segment_bytes",
        ):
            old = {
                "nodes": [{"id": "n1", "port": 9101, "master": True}],
                "runtime": {key: 1},
            }
            with pytest.raises(
                ClusterConfigError, match=f"unknown runtime option.*{key}"
            ):
                cluster_from_dict(old)


class TestCostModel:
    def test_flush_cost_scales_with_ops(self):
        assert runtime_config.flush_cpu(10) > runtime_config.flush_cpu(0) > 0

    def test_apply_and_update_costs(self):
        assert runtime_config.apply_cpu(5) == (
            runtime_config.APPLY_CPU_BASE + 5 * runtime_config.APPLY_CPU_PER_OP
        )
        assert runtime_config.update_cpu(5) == (
            runtime_config.UPDATE_CPU_BASE + 5 * runtime_config.UPDATE_CPU_PER_OP
        )

    def test_removal_threshold_exceeds_paper_outlier_line(self):
        # Two stall timeouts (resend, then removal) must land past 12 s
        # so full recoveries are the Figure 5 outliers.
        assert 2 * RuntimeConfig().stall_timeout > 12.0

    def test_frozen(self):
        import dataclasses

        config = RuntimeConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.sync_interval = 5.0  # type: ignore[misc]
