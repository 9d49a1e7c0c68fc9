"""End-to-end manager kill/restart over a real localhost TCP transport.

The deployment-level counterpart of the crash-point sweep: a client writes
checkpoints, the manager process endpoint is torn down abruptly, a recovered
manager comes up on a fresh port, benefactors re-register and re-advertise
their inventory, and a new client reads every committed checkpoint back.
"""

import pytest

from repro import StdchkConfig, TcpDeployment
from repro.exceptions import (
    EndpointUnreachableError,
    ManagerUnavailableError,
)
from tests.conftest import make_bytes


def tcp_config(journal_dir: str, **overrides) -> StdchkConfig:
    defaults = dict(
        chunk_size=32 * 1024,
        stripe_width=2,
        replication_level=1,
        journal_dir=journal_dir,
        journal_fsync_policy="commit",
    )
    defaults.update(overrides)
    return StdchkConfig(**defaults)


class TestTcpKillRestart:
    def test_checkpoint_written_before_crash_survives_restart(self, tmp_path):
        config = tcp_config(str(tmp_path / "journal"))
        with TcpDeployment(benefactor_count=3, config=config) as deployment:
            writer = deployment.client("writer")
            images = {
                f"/job/sim.N0.T{t}": make_bytes(90_000, seed=t) for t in (1, 2, 3)
            }
            for path, image in images.items():
                writer.write_file(path, image)
            old_address = deployment.manager_address

            deployment.kill_manager()
            # The dead manager is unreachable: a fresh connection is refused,
            # a lingering pooled connection observes the offline endpoint.
            with pytest.raises((EndpointUnreachableError, ManagerUnavailableError)):
                writer.read_file("/job/sim.N0.T1")

            report = deployment.restart_manager()
            assert deployment.manager_address != old_address
            assert report.records_replayed > 0
            assert report.datasets == 3

            reader = deployment.client("reader-after-crash")
            for path, image in images.items():
                assert reader.read_file(path) == image
            assert sorted(reader.listdir("/job")) == sorted(
                path.rsplit("/", 1)[1] for path in images
            )

    def test_writes_continue_after_restart(self, tmp_path):
        config = tcp_config(str(tmp_path / "journal"))
        with TcpDeployment(benefactor_count=3, config=config) as deployment:
            before = make_bytes(60_000, seed=10)
            deployment.client("w1").write_file("/app/ck.N0.T1", before)

            deployment.kill_manager()
            deployment.restart_manager()

            after = make_bytes(61_000, seed=11)
            survivor = deployment.client("w2")
            survivor.write_file("/app/ck.N0.T1", after)  # version 2
            assert survivor.read_file("/app/ck.N0.T1", version=1) == before
            assert survivor.read_file("/app/ck.N0.T1", version=2) == after

            # A second crash/restart cycle keeps both generations.
            deployment.kill_manager()
            deployment.restart_manager()
            reader = deployment.client("r")
            assert reader.read_file("/app/ck.N0.T1", version=2) == after
