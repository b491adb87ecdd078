"""Shared gateway fixture: threaded loopback cluster + blocking client."""

from __future__ import annotations

import asyncio

import pytest

from repro.gateway import GatewayServer, server
from repro.gateway.client import GatewayClient
from repro.runtime.config import RuntimeConfig
from repro.transport.loopback import LoopbackCluster


@pytest.fixture()
def gateway_cluster(monkeypatch):
    """(cluster, client): a 3-node cluster with a gateway on the master.

    The cluster's asyncio loop runs on a daemon thread while tests drive
    the gateway from the main thread — the same shape as a real
    deployment (daemons on their own loops, external clients over HTTP).
    """
    monkeypatch.setattr(server, "POLL_INTERVAL", 0.02)
    cluster = LoopbackCluster(3, config=RuntimeConfig(sync_interval=0.1))
    cluster.boot()
    cluster.start(first_sync_delay=0.05)
    gateway = GatewayServer(cluster.master_node, port=0)
    cluster.run_in_thread()
    asyncio.run_coroutine_threadsafe(gateway.start(), cluster.aio_loop).result(10)
    client = GatewayClient(f"http://127.0.0.1:{gateway.port}", timeout=10.0)
    try:
        yield cluster, client
    finally:
        asyncio.run_coroutine_threadsafe(gateway.stop(), cluster.aio_loop).result(10)
        cluster.shutdown()
