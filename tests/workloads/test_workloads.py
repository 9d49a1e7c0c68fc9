"""Tests for the synthetic checkpoint workloads and the Table 5 run model."""

import pytest

from repro.similarity import ContentBasedCompareByHash, FixedSizeCompareByHash, trace_similarity
from repro.workloads import (
    ApplicationLevelGenerator,
    ApplicationModel,
    BlcrLikeGenerator,
    SimulatedApplicationRun,
    XenLikeGenerator,
    blast_blcr_trace,
    blast_xen_trace,
    bms_trace,
    paper_table2_traces,
)
from repro.util.units import KiB, MiB


class TestGenerators:
    def test_application_level_images_are_distinct(self):
        generator = ApplicationLevelGenerator(image_size=64 * 1024, seed=1)
        images = list(generator.images(3))
        assert len({image for image in images}) == 3
        assert all(len(image) == 64 * 1024 for image in images)

    def test_application_level_deterministic(self):
        first = list(ApplicationLevelGenerator(64 * 1024, seed=5).images(2))
        second = list(ApplicationLevelGenerator(64 * 1024, seed=5).images(2))
        assert first == second

    # The overlap CbCH scan rolls its hash over every byte in pure Python, so
    # these images stay under 1 MiB to keep each test under a second.
    def test_blcr_images_share_most_content(self):
        generator = BlcrLikeGenerator(image_size=256 * KiB, seed=2,
                                      dirty_fraction=0.10,
                                      aligned_prefix_fraction=0.3,
                                      insertions=2)
        images = list(generator.images(3))
        detector = ContentBasedCompareByHash(16, 9, overlap=True)
        result = trace_similarity(detector, images)
        assert result.average_similarity > 0.6

    def test_blcr_insertions_defeat_fixed_blocks_beyond_prefix(self):
        generator = BlcrLikeGenerator(image_size=512 * KiB, seed=3,
                                      dirty_fraction=0.1,
                                      aligned_prefix_fraction=0.25,
                                      insertions=3)
        images = list(generator.images(3))
        # 32 fixed-size blocks per image.
        fsch = trace_similarity(FixedSizeCompareByHash(16 * KiB), images)
        cbch = trace_similarity(ContentBasedCompareByHash(16, 9, overlap=True), images)
        assert cbch.average_similarity > fsch.average_similarity + 0.2
        assert 0.0 < fsch.average_similarity < 0.75

    def test_xen_images_have_no_detectable_similarity(self):
        generator = XenLikeGenerator(image_size=2 * MiB, seed=4)
        images = list(generator.images(3))
        result = trace_similarity(FixedSizeCompareByHash(64 * 1024), images)
        assert result.average_similarity < 0.02

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            ApplicationLevelGenerator(image_size=0)
        with pytest.raises(ValueError):
            BlcrLikeGenerator(1024, dirty_fraction=1.5)
        with pytest.raises(ValueError):
            BlcrLikeGenerator(1024, aligned_prefix_fraction=0.0)
        with pytest.raises(ValueError):
            BlcrLikeGenerator(1024, insertions=-1)
        with pytest.raises(ValueError):
            BlcrLikeGenerator(1024, dirty_region_count=0)

    def test_first_image_helper(self):
        generator = ApplicationLevelGenerator(1024, seed=9)
        assert len(generator.first_image()) == 1024


class TestTraces:
    def test_bms_trace_info(self):
        trace = bms_trace(image_count=4, image_size=1 * MiB)
        info = trace.measured_info()
        assert info.image_count == 4
        assert info.average_image_size == pytest.approx(1 * MiB)
        assert trace.application == "BMS"

    def test_trace_iteration_is_repeatable(self):
        trace = bms_trace(image_count=3, image_size=256 * 1024)
        assert trace.materialize() == trace.materialize()

    def test_images_limit(self):
        trace = blast_blcr_trace(5, image_count=10, image_size=1 * MiB)
        assert len(list(trace.images(limit=2))) == 2

    def test_blcr_trace_interval_changes_similarity(self):
        short = blast_blcr_trace(5, image_count=4, image_size=8 * MiB)
        long = blast_blcr_trace(15, image_count=4, image_size=8 * MiB)
        detector = FixedSizeCompareByHash(256 * KiB)
        short_sim = trace_similarity(detector, short.materialize()).average_similarity
        long_sim = trace_similarity(detector, long.materialize()).average_similarity
        assert short_sim > long_sim

    def test_paper_table2_trace_set(self):
        traces = paper_table2_traces(scale=0.01, max_images=3)
        assert len(traces) == 5
        kinds = {trace.info.checkpointing_type for trace in traces}
        assert kinds == {"application", "library-blcr", "vm-xen"}
        for trace in traces:
            assert trace.info.image_count <= 3

    def test_xen_trace_summary_row(self):
        trace = blast_xen_trace(5, image_count=2, image_size=1 * MiB)
        row = trace.info.summary_row()
        assert row["checkpointing_type"] == "vm-xen"
        assert row["avg_size_mb"] == pytest.approx(1.0)


class TestSimulatedApplicationRun:
    def test_comparison_reproduces_table5_shape(self):
        run = SimulatedApplicationRun()
        comparison = run.comparison()
        improvement = comparison["improvement"]
        # Paper: 1.3% total-time, 27% checkpoint-time, 69% data-size improvement.
        assert 0.5 < improvement["total_execution_time_pct"] < 5.0
        assert 15.0 < improvement["checkpointing_time_pct"] < 40.0
        assert improvement["data_size_pct"] == pytest.approx(69.0, abs=1.0)
        assert comparison["local"]["data_size_tb"] > comparison["stdchk"]["data_size_tb"]

    def test_checkpoint_count_derivation(self):
        model = ApplicationModel(compute_time=3600.0, checkpoint_interval=600.0)
        assert model.checkpoint_count == 6

    def test_faster_storage_reduces_checkpoint_time_only(self):
        slow = SimulatedApplicationRun(stdchk_oab=50e6).comparison()
        fast = SimulatedApplicationRun(stdchk_oab=200e6).comparison()
        assert (fast["stdchk"]["checkpointing_time_s"]
                < slow["stdchk"]["checkpointing_time_s"])
        assert fast["local"] == slow["local"]
