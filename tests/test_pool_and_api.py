"""Tests for the StdchkPool deployment helper and the public package API."""

import os
import subprocess
import sys

import repro
from repro import StdchkPool
from repro.util.units import MiB
from tests.conftest import make_bytes


class TestPublicApi:
    def test_version_and_exports(self):
        assert repro.__version__
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_import_leaves_numpy_out(self):
        """Only the offline CbCH detector uses NumPy; it imports it itself."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print('numpy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert loaded == "False"

    def test_quickstart_from_docstring(self):
        pool = StdchkPool(benefactor_count=4)
        fs = pool.filesystem()
        fs.write_file("/app/app.N0.T1", b"checkpoint image bytes")
        assert fs.read_file("/app/app.N0.T1") == b"checkpoint image bytes"


class TestStdchkPool:
    def test_pool_registers_benefactors(self, pool):
        assert len(pool.benefactors) == 4
        assert pool.manager.registry.online()
        stats = pool.stats()
        assert stats.benefactors == 4
        assert stats.benefactors_online == 4
        assert stats.datasets == 0

    def test_add_benefactor_dynamically(self, pool):
        pool.add_benefactor("late-joiner", capacity=16 * MiB)
        assert pool.manager.registry.is_online("late-joiner")
        assert len(pool.benefactors) == 5

    def test_disk_backed_pool(self, tmp_path, small_config):
        pool = StdchkPool(
            benefactor_count=2,
            benefactor_capacity=32 * MiB,
            config=small_config,
            storage_root=str(tmp_path),
        )
        client = pool.client("c")
        data = make_bytes(100_000, seed=1)
        client.write_file("/disk/file", data)
        assert client.read_file("/disk/file") == data
        assert any((tmp_path / "benefactor-00").iterdir())

    def test_heartbeats_refresh_registry(self, pool):
        pool.clock.advance(pool.config.heartbeat_timeout + 1)
        pool.manager.expire_benefactors()
        assert not pool.manager.registry.online()
        for bundle in pool.maintenance.values():
            bundle.heartbeat.run_once()
        assert len(pool.manager.registry.online()) == 4

    def test_fail_and_recover_benefactor(self, pool):
        client = pool.client("c")
        data = make_bytes(90_000, seed=2)
        client.write_file("/x", data)
        victim = list(pool.benefactors)[0]
        pool.fail_benefactor(victim)
        assert not pool.manager.registry.is_online(victim)
        pool.recover_benefactor(victim)
        assert pool.manager.registry.is_online(victim)
        assert client.read_file("/x") == data

    def test_stats_after_write(self, pool):
        client = pool.client("c")
        client.write_file("/y", make_bytes(120_000, seed=3))
        stats = pool.stats()
        assert stats.datasets == 1
        assert stats.versions == 1
        assert stats.logical_bytes == 120_000
        assert stats.stored_bytes >= 120_000
        assert stats.manager_transactions > 0

    def test_stabilize_runs_all_services(self, pool):
        client = pool.client("c")
        client.write_file("/z", make_bytes(64_000, seed=4))
        pool.stabilize(rounds=2)
        dataset = pool.manager.dataset_by_path("/z")
        assert dataset.latest.chunk_map.min_replication() >= 2

    def test_multiple_clients_share_namespace(self, pool):
        one = pool.client("one")
        two = pool.client("two")
        one.write_file("/shared/a", b"from one")
        assert two.read_file("/shared/a") == b"from one"
        assert two.listdir("/shared") == ["a"]
