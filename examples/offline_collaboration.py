#!/usr/bin/env python
"""Offline updates — the section-9 extension, live.

Scene: three coworkers share a message board.  Carol boards a flight
(goes offline) and keeps drafting posts locally; meanwhile the others
keep posting.  When Carol lands and reconnects, her offline posts
rebase onto the welcomed state and commit, and everyone converges.

Run:  python examples/offline_collaboration.py
"""

from repro import DistributedSystem, RuntimeConfig
from repro.apps.message_board import BoardClient, MessageBoard


def main() -> None:
    config = RuntimeConfig(sync_interval=0.5, stall_timeout=2.0)
    system = DistributedSystem(n_machines=3, seed=12, config=config)
    system.start(first_sync_delay=0.2)
    api_a, api_b, api_c = system.apis()

    board = api_a.create_instance(MessageBoard)
    system.run_until_quiesced()
    alice = BoardClient(api_a, api_a.join_instance(board.unique_id), "alice")
    bob = BoardClient(api_b, api_b.join_instance(board.unique_id), "bob")
    carol = BoardClient(api_c, api_c.join_instance(board.unique_id), "carol")

    alice.create_topic("trip-notes")
    system.run_until_quiesced()
    alice.post("trip-notes", "itinerary uploaded")
    bob.post("trip-notes", "booked the van")
    system.run_until_quiesced()
    print("before the flight:", [t for _a, t in carol.read_topic("trip-notes")])

    # -- Carol goes offline and keeps working --------------------------------
    carol_node = system.node("m03")
    carol_node.go_offline()
    print("\ncarol goes offline (plane mode); keeps drafting:")
    carol.post("trip-notes", "draft: packing list v1")
    carol.post("trip-notes", "draft: packing list v2")
    print(f"  carol's local view has "
          f"{len(carol.read_topic('trip-notes'))} posts "
          "(two of them only on her machine)")

    # -- meanwhile, the others keep posting ------------------------------------
    system.run_for(2.0)
    bob.post("trip-notes", "posted while carol was in the air")
    system.run_for(3.0)

    # -- Carol reconnects ----------------------------------------------------------
    print("\ncarol lands and reconnects:")
    carol_node.come_online()
    system.run_until_quiesced()
    final_bob = bob.read_topic("trip-notes")
    final_carol = carol.read_topic("trip-notes")
    print(f"  converged: {final_bob == final_carol}")
    for author, text in final_carol:
        print(f"    [{author}] {text}")

    assert system.committed_states_equal()
    print("\nall machines agree — the offline posts reconciled")


if __name__ == "__main__":
    main()
