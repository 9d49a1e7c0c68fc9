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
            component_logger("heartbeat", "b7").info("peer lost")
            assert "[heartbeat/b7] peer lost" in stream.getvalue()
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

    def test_anti_entropy_logs_unreachable_repair_target(self, caplog, small_config):
        # Two nodes, two replicas wanted, one stored per chunk: each node is
        # the other's only copy target.  benefactor-01 goes silent without
        # the manager noticing, so benefactor-00's heartbeat still lists it
        # and the repair the manager hands out aims at it.
        pool = StdchkPool(benefactor_count=2, config=small_config)
        pool.client("writer").write_file("/log/ckpt.N0.T1", bytes(256 * 1024))
        pool.kill_benefactor("benefactor-01")
        with caplog.at_level(logging.INFO, logger=ROOT_LOGGER_NAME):
            pool.run_maintenance_once()
        repair_records = [
            r for r in caplog.records
            if getattr(r, "component", "") == "anti-entropy"
        ]
        assert any(
            "repair target benefactor-01" in r.getMessage()
            and "unreachable" in r.getMessage()
            for r in repair_records
        )
        assert all(r.node_id == "benefactor-00" for r in repair_records)
