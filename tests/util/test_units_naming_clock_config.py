"""Tests for units, the checkpoint naming convention, clocks and configuration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError, NamingError
from repro.util.clock import SystemClock, VirtualClock
from repro.util.config import (
    BenefactorConfig,
    RetentionConfig,
    RetentionPolicyKind,
    StdchkConfig,
    WriteProtocol,
    WriteSemantics,
)
from repro.util.naming import (
    CheckpointName,
    format_checkpoint_name,
    is_checkpoint_name,
    parse_checkpoint_name,
)
from repro.util.units import (
    GiB,
    KiB,
    MiB,
    MB,
    format_rate,
    format_size,
    gbit,
    mbit,
    parse_size,
)


class TestUnits:
    @pytest.mark.parametrize("text,expected", [
        ("1KiB", KiB),
        ("2 MiB", 2 * MiB),
        ("1GB", 10 ** 9),
        ("512", 512),
        ("1.5GiB", int(1.5 * GiB)),
        ("3 kb", 3000),
    ])
    def test_parse_size(self, text, expected):
        assert parse_size(text) == expected

    def test_parse_size_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_size("twelve bytes")

    def test_format_size_binary(self):
        assert format_size(1024) == "1.0KiB"
        assert format_size(0) == "0B"
        assert format_size(5 * MiB).endswith("MiB")

    def test_format_size_negative(self):
        assert format_size(-2048).startswith("-")

    def test_format_rate(self):
        assert format_rate(110 * MB) == "110.0MB/s"

    def test_link_capacities(self):
        assert gbit(1) == pytest.approx(125e6)
        assert mbit(100) == pytest.approx(12.5e6)


class TestNaming:
    def test_round_trip(self):
        name = parse_checkpoint_name("blast.N3.T17")
        assert name == CheckpointName("blast", 3, 17)
        assert name.filename == "blast.N3.T17"

    def test_format_helper(self):
        assert format_checkpoint_name("bms", 0, 1) == "bms.N0.T1"

    def test_folder_is_application(self):
        assert parse_checkpoint_name("app-x.N1.T2").folder == "app-x"

    def test_successor_and_sibling(self):
        name = CheckpointName("app", 2, 5)
        assert name.successor() == CheckpointName("app", 2, 6)
        assert name.sibling(7) == CheckpointName("app", 7, 5)

    @pytest.mark.parametrize("bad", [
        "missingparts", "app.N1", "app.T1.N1", "app.Nx.T1", "app.N1.Ty", "",
        ".N1.T2",
    ])
    def test_invalid_names_rejected(self, bad):
        assert not is_checkpoint_name(bad)
        with pytest.raises(NamingError):
            parse_checkpoint_name(bad)

    def test_negative_indices_rejected(self):
        with pytest.raises(NamingError):
            CheckpointName("app", -1, 0)

    def test_dot_in_application_rejected(self):
        with pytest.raises(NamingError):
            CheckpointName("a.b", 0, 0)

    @given(node=st.integers(min_value=0, max_value=10_000),
           timestep=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, node, timestep):
        name = CheckpointName("app", node, timestep)
        assert parse_checkpoint_name(name.filename) == name


class TestClocks:
    def test_virtual_clock_advances(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        clock.advance(5.0)
        assert clock.now() == 5.0
        clock.sleep(2.5)
        assert clock.now() == 7.5

    def test_virtual_clock_advance_to(self):
        clock = VirtualClock(start=10.0)
        clock.advance_to(25.0)
        assert clock.now() == 25.0

    def test_virtual_clock_rejects_backwards(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-1)
        with pytest.raises(ValueError):
            clock.advance_to(-1)

    def test_virtual_clock_rejects_negative_start(self):
        with pytest.raises(ValueError):
            VirtualClock(start=-1)

    def test_system_clock_monotonic(self):
        clock = SystemClock()
        first = clock.now()
        clock.sleep(0.001)
        assert clock.now() >= first


class TestConfig:
    def test_defaults_validate(self):
        config = StdchkConfig()
        assert config.write_protocol is WriteProtocol.SLIDING_WINDOW
        assert config.write_semantics is WriteSemantics.OPTIMISTIC

    def test_with_overrides_returns_new_object(self):
        config = StdchkConfig()
        other = config.with_overrides(stripe_width=8)
        assert other.stripe_width == 8
        assert config.stripe_width == 4

    @pytest.mark.parametrize("kwargs", [
        {"chunk_size": 0},
        {"stripe_width": 0},
        {"replication_level": 0},
        {"incremental_file_size": 1},
        {"heartbeat_timeout": 1.0, "heartbeat_interval": 5.0},
        {"read_ahead": -1},
        {"trace_rate": -1},
        {"trace_rate": float("nan")},
        {"journal_fsync_policy": "sometimes"},
        {"quorum_degrade": "retry"},
        {"failover_backoff_base": 1.0, "failover_backoff_max": 0.5},
        {"health_probe_interval": 0},
        {"health_suspect_after": 20.0, "health_dead_after": 10.0},
    ])
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            StdchkConfig(**kwargs)

    def test_benefactor_config_requires_space(self):
        with pytest.raises(ConfigurationError):
            BenefactorConfig(contributed_space=0)

    def test_retention_config_validation(self):
        with pytest.raises(ConfigurationError):
            RetentionConfig(purge_after=0)
        with pytest.raises(ConfigurationError):
            RetentionConfig(keep_last=0)
        config = RetentionConfig(kind=RetentionPolicyKind.AUTOMATED_REPLACE, keep_last=3)
        assert config.keep_last == 3
