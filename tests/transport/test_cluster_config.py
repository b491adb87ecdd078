"""cluster.yaml loading: env expansion, the built-in parser, validation."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.errors import ClusterConfigError
from repro.transport.config import (
    cluster_from_dict,
    expand_env,
    load_cluster_config,
    parse_simple_yaml,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

SAMPLE = """\
cluster:
  name: quickstart
  data_dir: ${DATA_DIR:-/tmp/cluster}
nodes:
  - id: n1
    host: 127.0.0.1
    port: ${N1_PORT:-9101}
    master: true
  - id: n2
    port: 9102
  - id: n3
    port: 9103
    data_dir: /var/lib/n3
gateway:
  node: n1
  port: 9180
runtime:  # trailing comment
  sync_interval: 0.25
  stall_timeout: 2.0
  collection: concurrent
  durability: disk
"""


class TestExpandEnv:
    def test_set_variable_expands(self):
        assert expand_env("port: ${P}", {"P": "9101"}) == "port: 9101"

    def test_default_used_when_unset(self):
        assert expand_env("x: ${P:-42}", {}) == "x: 42"

    def test_set_variable_beats_default(self):
        assert expand_env("x: ${P:-42}", {"P": "7"}) == "x: 7"

    def test_unset_without_default_raises(self):
        with pytest.raises(ClusterConfigError, match="'P'"):
            expand_env("x: ${P}", {})

    def test_text_without_references_unchanged(self):
        assert expand_env("plain: text", {}) == "plain: text"


class TestSimpleYaml:
    def test_nested_mappings_and_lists(self):
        doc = parse_simple_yaml(expand_env(SAMPLE, {}))
        assert doc["cluster"] == {"name": "quickstart", "data_dir": "/tmp/cluster"}
        assert doc["nodes"][0] == {
            "id": "n1",
            "host": "127.0.0.1",
            "port": 9101,
            "master": True,
        }
        assert doc["nodes"][1] == {"id": "n2", "port": 9102}
        assert doc["runtime"]["sync_interval"] == 0.25

    def test_scalar_coercion(self):
        doc = parse_simple_yaml(
            "a: 1\nb: 2.5\nc: true\nd: false\ne: null\nf: 'quoted'\ng: text"
        )
        assert doc == {
            "a": 1,
            "b": 2.5,
            "c": True,
            "d": False,
            "e": None,
            "f": "quoted",
            "g": "text",
        }

    def test_comments_stripped(self):
        doc = parse_simple_yaml("# full line\nkey: value  # trailing\n")
        assert doc == {"key": "value"}

    def test_list_of_scalars(self):
        assert parse_simple_yaml("items:\n  - a\n  - 2\n") == {"items": ["a", 2]}

    def test_bad_indentation_raises(self):
        with pytest.raises(ClusterConfigError):
            parse_simple_yaml("a:\n      b: 1\n   c: 2\n")


class TestClusterValidation:
    def base(self):
        return {
            "nodes": [
                {"id": "n1", "port": 9101, "master": True},
                {"id": "n2", "port": 9102},
            ]
        }

    def test_minimal_config_validates(self):
        cluster = cluster_from_dict(self.base())
        assert cluster.master_id == "n1"
        assert [spec.node_id for spec in cluster.nodes] == ["n1", "n2"]
        assert cluster.gateway is None

    def test_duplicate_ids_rejected(self):
        data = self.base()
        data["nodes"].append({"id": "n1", "port": 9103})
        with pytest.raises(ClusterConfigError, match="duplicate"):
            cluster_from_dict(data)

    def test_no_master_rejected(self):
        data = {"nodes": [{"id": "n1", "port": 9101}]}
        with pytest.raises(ClusterConfigError, match="master"):
            cluster_from_dict(data)

    def test_two_masters_rejected(self):
        data = {
            "nodes": [
                {"id": "n1", "port": 9101, "master": True},
                {"id": "n2", "port": 9102, "master": True},
            ]
        }
        with pytest.raises(ClusterConfigError, match="master"):
            cluster_from_dict(data)

    def test_empty_nodes_rejected(self):
        with pytest.raises(ClusterConfigError, match="nodes"):
            cluster_from_dict({"nodes": []})

    def test_gateway_node_must_exist(self):
        data = self.base()
        data["gateway"] = {"node": "ghost"}
        with pytest.raises(ClusterConfigError, match="ghost"):
            cluster_from_dict(data)

    def test_unknown_runtime_option_rejected(self):
        # a typo, and retired options an old cluster.yaml may still set
        for key, value in (
            ("sync_intervle", 0.5),
            ("delta_refresh", False),
            ("failover_timeout", 4.0),
            ("pipeline_depth", 2),
        ):
            data = self.base()
            data["runtime"] = {key: value}
            with pytest.raises(ClusterConfigError, match=key):
                cluster_from_dict(data)

    def test_unknown_node_lookup_raises(self):
        cluster = cluster_from_dict(self.base())
        with pytest.raises(ClusterConfigError, match="ghost"):
            cluster.node("ghost")


class TestDerivedViews:
    def load(self, tmp_path, env=None):
        path = tmp_path / "cluster.yaml"
        path.write_text(SAMPLE, encoding="utf-8")
        return load_cluster_config(str(path), env if env is not None else {})

    def test_load_expands_env_defaults(self, tmp_path):
        cluster = self.load(tmp_path)
        assert cluster.name == "quickstart"
        assert cluster.node("n1").port == 9101
        assert cluster.data_dir == "/tmp/cluster"

    def test_load_honours_environment(self, tmp_path):
        cluster = self.load(tmp_path, {"N1_PORT": "7777", "DATA_DIR": "/d"})
        assert cluster.node("n1").port == 7777
        assert cluster.data_dir == "/d"

    def test_peers_for_excludes_self(self, tmp_path):
        cluster = self.load(tmp_path)
        peers = cluster.peers_for("n2")
        assert set(peers) == {"n1", "n3"}
        assert peers["n1"] == ("127.0.0.1", 9101)

    def test_node_data_dir_override(self, tmp_path):
        cluster = self.load(tmp_path)
        assert cluster.node_data_dir("n2") == "/tmp/cluster"
        assert cluster.node_data_dir("n3") == "/var/lib/n3"

    def test_runtime_for_roots_durability_in_data_dir(self, tmp_path):
        cluster = self.load(tmp_path)
        runtime = cluster.runtime_for("n3")
        assert runtime.durability == "disk"
        assert runtime.data_dir == "/var/lib/n3"
        assert runtime.sync_interval == 0.25
        assert runtime.sync.collection == "concurrent"

    def test_gateway_spec(self, tmp_path):
        cluster = self.load(tmp_path)
        assert cluster.gateway is not None
        assert cluster.gateway.node == "n1"
        assert cluster.gateway.port == 9180

    def test_missing_file_raises(self):
        with pytest.raises(ClusterConfigError, match="cannot read"):
            load_cluster_config("/nonexistent/cluster.yaml", {})


class TestOneParser:
    """A cluster.yaml means the same thing on every machine."""

    @pytest.mark.parametrize(
        "n1, n2, culprit",
        [
            ("true", "no", "'n2'.*'no'"),
            ("yes", "false", "'n1'.*'yes'"),
            ("1", "false", "'n1'.*1"),
        ],
    )
    def test_master_must_be_a_real_boolean(self, tmp_path, n1, n2, culprit):
        # YAML 1.1 spellings a full parser would coerce: bool("no") is
        # True, so anything but true/false is refused by name, not guessed
        path = tmp_path / "cluster.yaml"
        path.write_text(
            "nodes:\n"
            f"  - id: n1\n    port: 9101\n    master: {n1}\n"
            f"  - id: n2\n    port: 9102\n    master: {n2}\n",
            encoding="utf-8",
        )
        with pytest.raises(ClusterConfigError, match=f"node {culprit}"):
            load_cluster_config(str(path), {})

    def test_shipped_configs_load(self, tmp_path):
        example = load_cluster_config(
            str(REPO_ROOT / "examples" / "cluster" / "cluster.yaml"), {}
        )
        assert example.master_id == "n1"
        deploy = (REPO_ROOT / "docs" / "DEPLOY.md").read_text(encoding="utf-8")
        sample = tmp_path / "cluster.yaml"
        sample.write_text(
            re.search(r"```yaml\n(.*?)```", deploy, re.S).group(1), encoding="utf-8"
        )
        documented = load_cluster_config(str(sample), {})
        assert documented.master_id == "n1"
        assert documented.runtime.sync.batch_max_ops == 64

    def test_no_yaml_dependency_under_src(self):
        importers = [
            str(path.relative_to(REPO_ROOT))
            for path in sorted((REPO_ROOT / "src").rglob("*.py"))
            if re.search(
                r"^\s*(import|from) yaml\b", path.read_text(encoding="utf-8"), re.M
            )
        ]
        assert importers == []
