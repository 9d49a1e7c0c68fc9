#!/usr/bin/env python3
"""Desktop-grid scenario: a parallel job checkpoints while desktops come and go.

This example reproduces the paper's motivating scenario end to end:

* a desktop grid of 8 storage donors (benefactors) backs the stdchk pool;
* a 4-process parallel application checkpoints every timestep under the
  ``A.Ni.Tj`` naming convention with optimistic writes (return after the
  first copy; replication happens in the background);
* desktop owners reclaim two machines mid-run (the benefactors vanish with
  their data);
* one compute node is also reclaimed, and its process *migrates*: a new
  process restarts from the latest checkpoint image stored in stdchk.

Run with:  python examples/desktop_grid_checkpointing.py
"""

from __future__ import annotations

import random

from repro import CheckpointName, StdchkConfig, StdchkPool
from repro.util.config import RetentionPolicyKind
from repro.util.units import MiB, format_size

PROCESSES = 4
TIMESTEPS = 6
IMAGE_SIZE = 2 * MiB


def make_image(rank: int, timestep: int) -> bytes:
    """A synthetic checkpoint image for process ``rank`` at ``timestep``."""
    return random.Random(f"{rank}-{timestep}").randbytes(IMAGE_SIZE)


def main() -> None:
    config = StdchkConfig(chunk_size=512 * 1024, stripe_width=4, replication_level=2)
    pool = StdchkPool(benefactor_count=8, config=config)

    # The application folder carries an automated-replace retention policy:
    # new checkpoint images make the old ones obsolete.
    admin = pool.client("admin")
    admin.mkdir("/sim", retention_kind=RetentionPolicyKind.AUTOMATED_REPLACE.value)

    clients = [pool.client(f"compute-node-{rank}") for rank in range(PROCESSES)]

    for timestep in range(1, TIMESTEPS + 1):
        for rank, client in enumerate(clients):
            client.write_checkpoint(CheckpointName("sim", rank, timestep),
                                    make_image(rank, timestep))
        # Background services run between checkpoint phases.
        pool.run_services_once()

        if timestep == 3:
            # Two desktop owners reclaim their machines: the benefactors go
            # away along with every chunk they stored.
            for victim in ("benefactor-02", "benefactor-05"):
                pool.fail_benefactor(victim, lose_data=True)
                pool.manager.drop_benefactor_placements(victim)
            print(f"[t={timestep}] two benefactors reclaimed; "
                  "the surviving holders will re-create the lost replicas")
            pool.heal()

    # A compute node is reclaimed too: its process migrates and restarts from
    # the latest image of application "sim" stored in stdchk.
    migrated = pool.client("compute-node-2-migrated")
    restored = migrated.restore_latest_checkpoint("sim")
    expected = make_image(restored["name"].node, restored["name"].timestep)
    assert restored["data"] == expected, "restored image must match what was written"
    print(f"process migrated: restarted from {restored['path']} "
          f"({format_size(len(restored['data']))}), timestep {restored['name'].timestep}")

    stats = pool.stats()
    print(f"pool state: {stats.benefactors_online}/{stats.benefactors} benefactors online, "
          f"{stats.versions} retained versions, "
          f"{format_size(stats.stored_bytes)} physically stored "
          f"for {format_size(stats.logical_bytes)} of logical checkpoint data")
    print("every image remained readable despite losing two storage donors.")


if __name__ == "__main__":
    main()
