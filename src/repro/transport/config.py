"""``cluster.yaml`` loading: deployment shape for real-socket clusters.

Schema (all sections except ``nodes`` optional)::

    cluster:
      name: quickstart
      data_dir: ${CLUSTER_DATA_DIR:-./cluster-data}   # per-node dirs beneath
    nodes:
      - id: n1
        host: 127.0.0.1
        port: ${N1_PORT:-9101}
        master: true
      - id: n2
        host: 127.0.0.1
        port: 9102
    gateway:
      node: n1            # which daemon serves the HTTP/WS gateway
      host: 127.0.0.1
      port: 9180
    runtime:              # RuntimeConfig / SyncConfig knobs
      sync_interval: 0.25
      stall_timeout: 2.0
      collection: concurrent
      batch_max_ops: 64
      durability: disk
      fsync_policy: interval
      snapshot_interval: 8

``${VAR}`` references expand from the environment before parsing (with
``${VAR:-default}`` fallback syntax), so one checked-in config file
serves every deployment — the pattern real multi-node launchers use.

Parsing uses one built-in parser for the indentation subset this
schema needs (nested mappings, lists of mappings, scalar coercion,
comments) — there is no YAML dependency, so a file means the same thing
on every machine and the daemon boots anywhere the library runs.
"""

from __future__ import annotations

import dataclasses
import os
import re
from dataclasses import dataclass

from repro.errors import ClusterConfigError
from repro.runtime.config import RuntimeConfig, SyncConfig

_ENV_PATTERN = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)(?::-([^}]*))?\}")


def expand_env(text: str, env: dict | None = None) -> str:
    """Expand ``${VAR}`` / ``${VAR:-default}`` references in ``text``.

    An unset variable without a default is an error — a silently empty
    host or port is far worse than a refused boot.
    """
    mapping = os.environ if env is None else env

    def replace(match: re.Match) -> str:
        name, default = match.group(1), match.group(2)
        value = mapping.get(name)
        if value is None:
            if default is not None:
                return default
            raise ClusterConfigError(
                f"environment variable {name!r} referenced by the cluster "
                "config is not set (use ${" + name + ":-default} for a default)"
            )
        return value

    return _ENV_PATTERN.sub(replace, text)


# ---------------------------------------------------------------------------
# Minimal YAML-subset parser
# ---------------------------------------------------------------------------


def _coerce_scalar(token: str):
    token = token.strip()
    if token == "" or token in ("null", "~"):
        return None
    if token in ("true", "True"):
        return True
    if token in ("false", "False"):
        return False
    if (token.startswith('"') and token.endswith('"') and len(token) >= 2) or (
        token.startswith("'") and token.endswith("'") and len(token) >= 2
    ):
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _strip_comment(line: str) -> str:
    # A '#' starts a comment at line start or after whitespace; the
    # schema's values never legitimately contain '#'.
    out = []
    for index, char in enumerate(line):
        if char == "#" and (index == 0 or line[index - 1] in " \t"):
            break
        out.append(char)
    return "".join(out).rstrip()


def parse_simple_yaml(text: str):
    """Parse the indentation subset of YAML the cluster schema uses.

    Supports nested mappings (2+ space indents), lists of mappings or
    scalars (``- `` items), inline scalars with type coercion, and
    full/trailing comments.  Not a general YAML parser — just enough
    for ``cluster.yaml``.
    """
    lines: list[tuple[int, str]] = []  # (indent, content)
    for raw in text.splitlines():
        stripped = _strip_comment(raw)
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip(" "))
        lines.append((indent, stripped.strip()))

    def parse_block(start: int, indent: int):
        """Parse the block of lines[start:] at exactly ``indent``."""
        if start >= len(lines):
            return None, start
        if lines[start][1].startswith("- "):
            return parse_list(start, indent)
        return parse_mapping(start, indent)

    def parse_mapping(start: int, indent: int):
        result: dict = {}
        index = start
        while index < len(lines):
            line_indent, content = lines[index]
            if line_indent < indent:
                break
            if line_indent > indent or content.startswith("- "):
                raise ClusterConfigError(
                    f"unexpected indentation near {content!r}"
                )
            if ":" not in content:
                raise ClusterConfigError(f"expected 'key: value', got {content!r}")
            key, _, rest = content.partition(":")
            key = key.strip()
            rest = rest.strip()
            index += 1
            if rest:
                result[key] = _coerce_scalar(rest)
            else:
                # Block value: the following deeper-indented lines.
                if index < len(lines) and lines[index][0] > indent:
                    value, index = parse_block(index, lines[index][0])
                    result[key] = value
                else:
                    result[key] = None
        return result, index

    def parse_list(start: int, indent: int):
        result: list = []
        index = start
        while index < len(lines):
            line_indent, content = lines[index]
            if line_indent < indent or not content.startswith("- "):
                break
            item_text = content[2:].strip()
            item_indent = line_indent + 2  # continuation keys align after '- '
            if not item_text:
                index += 1
                if index < len(lines) and lines[index][0] >= item_indent:
                    value, index = parse_block(index, lines[index][0])
                    result.append(value)
                else:
                    result.append(None)
                continue
            if ":" in item_text:
                # Inline first key of a mapping item; continuation keys
                # follow at the item indent.
                key, _, rest = item_text.partition(":")
                item: dict = {key.strip(): _coerce_scalar(rest.strip())}
                index += 1
                if index < len(lines) and lines[index][0] >= item_indent and not lines[
                    index
                ][1].startswith("- "):
                    more, index = parse_mapping(index, lines[index][0])
                    item.update(more)
                result.append(item)
            else:
                result.append(_coerce_scalar(item_text))
                index += 1
        return result, index

    value, index = parse_block(0, lines[0][0] if lines else 0)
    if index != len(lines):
        raise ClusterConfigError(
            f"trailing unparsed content near {lines[index][1]!r}"
        )
    return value


# ---------------------------------------------------------------------------
# Validated deployment description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeSpec:
    """One daemon's address and role."""

    node_id: str
    host: str
    port: int
    master: bool = False
    data_dir: str | None = None  # overrides <cluster data_dir>/<node_id>


@dataclass(frozen=True)
class GatewaySpec:
    """Where the HTTP/WebSocket gateway listens, and on which node."""

    node: str
    host: str = "127.0.0.1"
    port: int = 9180


@dataclass(frozen=True)
class ClusterConfig:
    """A parsed, validated cluster.yaml."""

    name: str
    nodes: tuple[NodeSpec, ...]
    gateway: GatewaySpec | None
    runtime: RuntimeConfig
    data_dir: str | None = None

    @property
    def master_id(self) -> str:
        for spec in self.nodes:
            if spec.master:
                return spec.node_id
        raise ClusterConfigError("cluster has no master node")

    def node(self, node_id: str) -> NodeSpec:
        for spec in self.nodes:
            if spec.node_id == node_id:
                return spec
        known = ", ".join(spec.node_id for spec in self.nodes)
        raise ClusterConfigError(
            f"unknown node id {node_id!r} (cluster defines: {known})"
        )

    def peers_for(self, node_id: str) -> dict[str, tuple[str, int]]:
        """The peer table one daemon dials: everyone but itself."""
        return {
            spec.node_id: (spec.host, spec.port)
            for spec in self.nodes
            if spec.node_id != node_id
        }

    def node_data_dir(self, node_id: str) -> str | None:
        spec = self.node(node_id)
        if spec.data_dir is not None:
            return spec.data_dir
        return self.data_dir

    def runtime_for(self, node_id: str) -> RuntimeConfig:
        """The node's RuntimeConfig, durability rooted in its data dir."""
        data_dir = self.node_data_dir(node_id)
        if data_dir is None:
            return self.runtime
        return dataclasses.replace(
            self.runtime, durability="disk", data_dir=data_dir
        )


_RUNTIME_KEYS = {
    "sync_interval": float,
    "stall_timeout": float,
    "missing_ops_timeout": float,
    "durability": str,
    "fsync_policy": str,
    "fsync_interval": int,
    "wal_segment_bytes": int,
    "snapshot_interval": int,
}
_SYNC_KEYS = {
    "collection": str,
    "batch_max_ops": int,
}


def _build_runtime(section: dict) -> RuntimeConfig:
    unknown = set(section) - set(_RUNTIME_KEYS) - set(_SYNC_KEYS)
    if unknown:
        raise ClusterConfigError(
            f"unknown runtime option(s): {', '.join(sorted(unknown))}"
        )
    sync_kwargs = {
        key: cast(section[key])
        for key, cast in _SYNC_KEYS.items()
        if section.get(key) is not None
    }
    runtime_kwargs = {
        key: cast(section[key])
        for key, cast in _RUNTIME_KEYS.items()
        if section.get(key) is not None
    }
    try:
        return RuntimeConfig(sync=SyncConfig(**sync_kwargs), **runtime_kwargs)
    except ValueError as exc:
        raise ClusterConfigError(f"invalid runtime section: {exc}") from None


def cluster_from_dict(data) -> ClusterConfig:
    """Validate a parsed document into a :class:`ClusterConfig`."""
    if not isinstance(data, dict):
        raise ClusterConfigError("cluster config must be a mapping at top level")
    cluster_section = data.get("cluster") or {}
    nodes_section = data.get("nodes")
    if not isinstance(nodes_section, list) or not nodes_section:
        raise ClusterConfigError("cluster config needs a non-empty 'nodes' list")

    nodes = []
    for entry in nodes_section:
        if not isinstance(entry, dict) or "id" not in entry:
            raise ClusterConfigError(f"malformed node entry: {entry!r}")
        master = entry.get("master", False)
        if not isinstance(master, bool):
            # bool("no") is True: only the parser's own booleans count
            raise ClusterConfigError(
                f"node {entry['id']!r}: master must be true or false "
                f"(got {master!r})"
            )
        try:
            nodes.append(
                NodeSpec(
                    node_id=str(entry["id"]),
                    host=str(entry.get("host", "127.0.0.1")),
                    port=int(entry["port"]),
                    master=master,
                    data_dir=entry.get("data_dir"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ClusterConfigError(f"malformed node entry {entry!r}: {exc}") from None

    ids = [spec.node_id for spec in nodes]
    if len(set(ids)) != len(ids):
        raise ClusterConfigError(f"duplicate node ids in cluster config: {ids}")
    masters = [spec.node_id for spec in nodes if spec.master]
    if len(masters) != 1:
        raise ClusterConfigError(
            f"exactly one node must set master: true (got {masters or 'none'})"
        )

    gateway = None
    gateway_section = data.get("gateway")
    if gateway_section is not None:
        if not isinstance(gateway_section, dict) or "node" not in gateway_section:
            raise ClusterConfigError("gateway section needs at least 'node'")
        gateway = GatewaySpec(
            node=str(gateway_section["node"]),
            host=str(gateway_section.get("host", "127.0.0.1")),
            port=int(gateway_section.get("port", 9180)),
        )
        if gateway.node not in ids:
            raise ClusterConfigError(
                f"gateway node {gateway.node!r} is not in the nodes list"
            )

    runtime = _build_runtime(data.get("runtime") or {})
    return ClusterConfig(
        name=str(cluster_section.get("name", "cluster")),
        nodes=tuple(nodes),
        gateway=gateway,
        runtime=runtime,
        data_dir=cluster_section.get("data_dir"),
    )


def load_cluster_config(path: str, env: dict | None = None) -> ClusterConfig:
    """Read, env-expand, parse and validate a cluster.yaml file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ClusterConfigError(f"cannot read cluster config {path!r}: {exc}") from None
    return cluster_from_dict(parse_simple_yaml(expand_env(text, env)))
