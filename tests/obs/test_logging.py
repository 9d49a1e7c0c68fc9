"""Structured logging: component/node-id fields, idempotent setup, loop logs."""

from __future__ import annotations

import io
import logging

from repro import StdchkPool
from repro.obs import component_logger, logging_setup
from repro.obs.logs import _HANDLER_MARKER, ROOT_LOGGER_NAME


def _marked_handlers():
    logger = logging.getLogger(ROOT_LOGGER_NAME)
    return [h for h in logger.handlers if getattr(h, _HANDLER_MARKER, False)]


def _teardown():
    logger = logging.getLogger(ROOT_LOGGER_NAME)
    for handler in _marked_handlers():
        logger.removeHandler(handler)


class TestLoggingSetup:
    def test_installs_one_handler_idempotently(self):
        try:
            logging_setup()
            logging_setup()
            assert len(_marked_handlers()) == 1
        finally:
            _teardown()

    def test_force_replaces_handler(self):
        try:
            first = logging_setup()
            handler_before = _marked_handlers()[0]
            assert logging_setup(force=True) is first
            (handler_after,) = _marked_handlers()
            assert handler_after is not handler_before
        finally:
            _teardown()

    def test_format_surfaces_component_and_node(self):
        stream = io.StringIO()
        try:
            logging_setup(stream=stream, level=logging.INFO)
            component_logger("gossip", "b7").info("peer lost")
            assert "[gossip/b7] peer lost" in stream.getvalue()
        finally:
            _teardown()

    def test_records_without_fields_get_placeholders(self):
        stream = io.StringIO()
        try:
            logging_setup(stream=stream, level=logging.INFO)
            logging.getLogger(f"{ROOT_LOGGER_NAME}.bare").info("plain")
            assert "[-/-] plain" in stream.getvalue()
        finally:
            _teardown()


class TestComponentLogger:
    def test_records_carry_structured_fields(self, caplog):
        with caplog.at_level(logging.INFO, logger=ROOT_LOGGER_NAME):
            component_logger("heartbeat", "b3").info("manager unreachable")
        (record,) = caplog.records
        assert record.component == "heartbeat"
        assert record.node_id == "b3"


class TestMaintenanceLoopsLog:
    def test_heartbeat_logs_unreachable_manager(self, caplog, small_config):
        pool = StdchkPool(benefactor_count=2, config=small_config)
        pool.transport.unregister(pool.manager.address)
        with caplog.at_level(logging.INFO, logger=ROOT_LOGGER_NAME):
            pool.run_maintenance_once()
        heartbeat_records = [
            r for r in caplog.records
            if getattr(r, "component", "") == "heartbeat"
        ]
        assert heartbeat_records
        assert all(r.node_id for r in heartbeat_records)

    def test_gossip_logs_unreachable_peer(self, caplog, small_config):
        pool = StdchkPool(benefactor_count=3, config=small_config)
        # Let gossip learn the peer list, then take one peer down.
        pool.run_maintenance_once()
        victim = pool.benefactors["benefactor-01"]
        victim.crash()
        pool.transport.unregister(victim.address)
        with caplog.at_level(logging.INFO, logger=ROOT_LOGGER_NAME):
            for _ in range(3):
                pool.run_maintenance_once()
        gossip_records = [
            r for r in caplog.records
            if getattr(r, "component", "") == "gossip"
        ]
        assert gossip_records
        assert any("unreachable" in r.getMessage() for r in gossip_records)
