"""The Figure 4 blocking pattern end to end, on both transports."""

import threading
import time

import pytest

from repro.apps.accounts import AccountClient, UserDirectory
from repro.runtime.config import RuntimeConfig
from repro.transport.loopback import LoopbackCluster
from tests.helpers import quick_system


class TestVirtualTimeBlocking:
    def test_ticket_done_after_commit(self):
        system = quick_system(2)
        directory = system.apis()[0].create_instance(UserDirectory)
        system.run_until_quiesced()
        ada = AccountClient(
            system.apis()[0], system.apis()[0].join_instance(directory.unique_id)
        )
        ticket = ada.register("ada", "pw")
        assert not ticket.done
        system.run_until_quiesced()
        assert ticket.done and ticket.commit_result is True


class TestRealTimeBlocking:
    """Real sockets on the cluster's own loop thread; the test thread is
    the blocking client, so every ``api`` call is marshalled through
    ``cluster.call`` and only ``ticket.wait`` runs off the loop."""

    @pytest.fixture()
    def cluster(self):
        cluster = LoopbackCluster(
            2, config=RuntimeConfig(sync_interval=0.1, stall_timeout=2.0)
        )
        cluster.boot()
        cluster.start(0.05)
        cluster.run_in_thread()
        try:
            yield cluster
        finally:
            cluster.shutdown()

    def _shared_directory(self, cluster):
        """Create the directory on m01 and wait until m02 has committed it."""
        uid = cluster.call(
            lambda: cluster.api("m01").create_instance(UserDirectory).unique_id
        )
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if cluster.call(lambda: cluster.node("m02").model.committed.has(uid)):
                return uid
            time.sleep(0.01)
        raise AssertionError("directory never committed on m02")

    def _client(self, cluster, machine_id, uid):
        api = cluster.api(machine_id)
        return cluster.call(lambda: AccountClient(api, api.join_instance(uid)))

    def test_wait_blocks_until_completion(self, cluster):
        ada = self._client(cluster, "m01", self._shared_directory(cluster))
        started = time.monotonic()
        ticket = cluster.call(lambda: ada.register("ada", "pw"))
        assert ticket.wait(timeout=5.0), "registration never committed"
        assert ticket.commit_result is True
        assert time.monotonic() - started < 5.0
        assert cluster.loop.errors == []

    def test_concurrent_registrations_from_threads(self, cluster):
        uid = self._shared_directory(cluster)
        results = {}

        def register(machine_id):
            client = self._client(cluster, machine_id, uid)
            ticket = cluster.call(lambda: client.register("same-name", "pw"))
            ticket.wait(timeout=5.0)
            results[machine_id] = ticket.commit_result

        threads = [
            threading.Thread(target=register, args=(machine_id,))
            for machine_id in ("m01", "m02")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=6.0)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results.values()) == [False, True]
        assert cluster.loop.errors == []
