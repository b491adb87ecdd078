"""Convergence probes: each one demonstrably catches its bug class.

Two layers of evidence per probe:

* **planted state** — build a healthy quiesced system, corrupt one
  replica by hand in exactly the way the probe hunts, and assert it
  fires (and was silent before the corruption);
* **planted mutation** — run a full fuzz scenario with the matching
  mutation from :mod:`repro.simtest.mutations` patched in, and assert
  the probe's violation (and no other machinery) reports it.
"""

from repro.apps.listdoc import SharedDoc
from repro.apps.marketplace import Marketplace
from repro.apps.presence import PresenceCounters
from repro.simtest.probes import (
    atomic_probe,
    counter_conservation_probe,
    guess_divergence_probe,
    list_oracle_probe,
)
from repro.simtest.runner import run_scenario
from repro.simtest.scenario import generate_scenario
from tests.helpers import quick_system, shared_counter


def _zoo_violations(system):
    return (
        guess_divergence_probe(system)
        + list_oracle_probe(system)
        + counter_conservation_probe(system)
        + atomic_probe(system)
    )


class TestGuessDivergenceProbe:
    def test_silent_on_healthy_system(self):
        system = quick_system(3)
        replicas, uid = shared_counter(system)
        for api in system.apis():
            api.invoke(uid, "increment", 10)
        system.run_until_quiesced()
        assert guess_divergence_probe(system) == []

    def test_fires_on_planted_guess_drift(self):
        system = quick_system(3)
        replicas, uid = shared_counter(system)
        system.apis()[0].invoke(uid, "increment", 10)
        system.run_until_quiesced()
        node = system.nodes[system.machine_ids()[1]]
        node.model.guess.get(uid).value += 7
        node.model.guess.mark_dirty([uid])
        violations = guess_divergence_probe(system)
        assert violations
        assert all("guess divergence" in v for v in violations)
        assert any(uid in v for v in violations)

    def test_tolerates_unrefreshed_apply(self):
        """Drift on an object in the refresh backlog is the normal
        apply/refresh callback gap, not a bug."""
        system = quick_system(3)
        replicas, uid = shared_counter(system)
        system.apis()[0].invoke(uid, "increment", 10)
        system.run_until_quiesced()
        node = system.nodes[system.machine_ids()[1]]
        node.model.guess.get(uid).value += 7
        node.model.guess.mark_dirty([uid])
        node.synchronizer.refresh_backlog.add(uid)
        try:
            assert guess_divergence_probe(system) == []
        finally:
            node.synchronizer.refresh_backlog.discard(uid)


class TestListOracleProbe:
    def _doc_system(self):
        system = quick_system(2)
        doc = system.apis()[0].create_instance(SharedDoc)
        system.run_until_quiesced()
        uid = doc.unique_id
        system.apis()[0].invoke(uid, "append_line", "a", "one")
        system.apis()[1].invoke(uid, "insert_at", 0, "b", "zero")
        system.apis()[0].invoke(uid, "delete_at", 0, "a")
        system.run_until_quiesced()
        return system, uid

    def test_silent_on_healthy_history(self):
        system, uid = self._doc_system()
        assert list_oracle_probe(system) == []

    def test_fires_on_planted_line_drift(self):
        """A committed replica whose lines differ from the linearized
        edit stream — the bug class positional off-by-ones produce."""
        system, uid = self._doc_system()
        master = system.nodes[system.machine_ids()[0]]
        doc = master.model.committed.get(uid)
        doc.lines.insert(0, ["ghost", "never committed"])
        violations = list_oracle_probe(system)
        assert violations
        assert all("list oracle divergence" in v for v in violations)

    def test_fires_on_planted_result_drift(self):
        """A recorded commit result the sequential oracle disagrees
        with (an edit that 'succeeded' out of range)."""
        system, uid = self._doc_system()
        master = system.nodes[system.machine_ids()[0]]
        for entry in master.model.completed:
            if getattr(entry.op, "method_name", None) == "delete_at":
                entry.result = not entry.result
        violations = list_oracle_probe(system)
        assert any("committed" in v and "oracle says" in v for v in violations)


class TestCounterConservationProbe:
    def _hub_system(self):
        system = quick_system(2)
        hub = system.apis()[0].create_instance(PresenceCounters)
        system.run_until_quiesced()
        uid = hub.unique_id
        system.apis()[0].invoke(uid, "bump", "pot-a", 30)
        system.apis()[1].invoke(uid, "bump", "pot-b", 12)
        system.apis()[0].invoke(uid, "transfer", "pot-a", "pot-b", 5)
        system.run_until_quiesced()
        return system, uid

    def test_silent_on_healthy_history(self):
        system, uid = self._hub_system()
        assert counter_conservation_probe(system) == []

    def test_fires_on_planted_leak(self):
        """A transfer that leaks value breaks sum == net-of-bumps on
        every replica even though all replicas agree."""
        system, uid = self._hub_system()
        for machine_id in system.machine_ids():
            hub = system.nodes[machine_id].model.committed.get(uid)
            hub.counters["pot-b"] -= 1
        violations = counter_conservation_probe(system)
        assert violations
        assert all("counter conservation broken" in v for v in violations)


class TestAtomicProbe:
    def _market_system(self):
        system = quick_system(2)
        market = system.apis()[0].create_instance(Marketplace)
        system.run_until_quiesced()
        uid = market.unique_id
        api = system.apis()[0]
        api.invoke(uid, "register", "seller")
        api.invoke(uid, "register", "buyer")
        api.invoke(uid, "mint", "buyer", 20)
        api.invoke(uid, "stock_item", "seller", "sword")
        api.invoke(uid, "list_item", "seller", "sword", 5)
        purchase = api.create_atomic(
            [
                api.create_operation(uid, "debit", "buyer", 5),
                api.create_operation(uid, "take_offer", "sword", "buyer", 5),
                api.create_operation(uid, "credit", "seller", 5),
            ]
        )
        api.issue_when_possible(purchase)
        system.run_until_quiesced()
        return system, uid

    def test_silent_on_healthy_settlement(self):
        system, uid = self._market_system()
        assert atomic_probe(system) == []

    def test_fires_on_planted_partial_atomic(self):
        """Replay what a broken Atomic leaves behind — a debit whose
        sibling legs never landed — and the money law breaks."""
        system, uid = self._market_system()
        market = system.nodes[system.machine_ids()[0]].model.committed.get(uid)
        market.balances["buyer"] -= 3  # debited, nothing in return
        violations = atomic_probe(system)
        assert violations
        assert all("atomic all-or-nothing broken" in v for v in violations)

    def test_fires_on_duplicated_item(self):
        system, uid = self._market_system()
        market = system.nodes[system.machine_ids()[0]].model.committed.get(uid)
        market.stock["seller"].append("sword")  # buyer also holds it
        assert any("duplicated items" in v for v in atomic_probe(system))


class TestPlantedMutations:
    """Full pipeline: mutation patched in, fuzz a (pinned-workload)
    scenario, the matching probe reports it."""

    def _catch(self, mutation, workload, needle, max_seeds=5):
        for seed in range(max_seeds):
            spec = generate_scenario(seed, workload=workload)
            result = run_scenario(spec, record_trace=False, mutation=mutation)
            if result.violations:
                assert any(needle in v for v in result.violations), (
                    mutation,
                    result.violations[:5],
                )
                return seed
        raise AssertionError(f"{mutation} not caught in {max_seeds} seeds")

    def test_list_drift_caught_by_list_oracle(self):
        self._catch("list_drift", "listdoc", "list oracle divergence")

    def test_counter_leak_caught_by_conservation(self):
        self._catch("counter_leak", "counters", "counter conservation broken")

    def test_atomic_partial_caught_by_atomic_probe(self):
        self._catch("atomic_partial", "market", "atomic all-or-nothing broken")

    def test_wal_tail_caught_by_storage_probe(self):
        # Simulated nodes log through the shipping WriteAheadLog, so a
        # replay that loses its newest record shows on the first seed.
        seed = self._catch("wal_tail", None, "storage replay of", max_seeds=1)
        assert seed == 0

    def test_welcome_gap_caught_by_checkpoint_probe(self):
        # Seed 0 welcomes by snapshot only; seed 1's rejoin takes a
        # delta Welcome, whose backlog catch-up loses an entry.
        seed = self._catch(
            "welcome_gap", None, "committed-prefix disagreement", max_seeds=2
        )
        assert seed == 1
