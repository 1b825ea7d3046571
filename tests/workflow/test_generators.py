"""Tests for the SWarp and 1000Genomes workflow generators."""

import pytest

from repro.platform.units import MiB
from repro.workflow import TaskCategory, calibration as cal
from repro.workflow.genomes import make_1000genomes
from repro.workflow.swarp import make_swarp
from tests.workflow.nx_view import digraph


# ----------------------------------------------------------------------
# SWarp
# ----------------------------------------------------------------------
def test_swarp_single_pipeline_structure():
    wf = make_swarp(n_pipelines=1)
    assert len(wf) == 3  # stage_in + resample + combine
    assert wf.task("stage_in").category == TaskCategory.STAGE_IN
    assert [t.name for t in wf.parents("resample_0")] == ["stage_in"]
    assert [t.name for t in wf.parents("combine_0")] == ["resample_0"]


def test_swarp_pipeline_count():
    wf = make_swarp(n_pipelines=8)
    assert len(wf) == 1 + 2 * 8
    assert len([t for t in wf if t.group == "resample"]) == 8
    assert len([t for t in wf if t.group == "combine"]) == 8


def test_swarp_input_files_match_paper():
    """16 images of 32 MiB + 16 weight maps of 16 MiB per pipeline."""
    wf = make_swarp(n_pipelines=1, include_stage_in=False)
    inputs = wf.external_input_files()
    images = [f for f in inputs if "input_" in f.name]
    weights = [f for f in inputs if "weight_" in f.name]
    assert len(images) == 16 and len(weights) == 16
    assert all(f.size == 32 * MiB for f in images)
    assert all(f.size == 16 * MiB for f in weights)


def test_swarp_pipeline_input_volume():
    """768 MiB of external input per pipeline (16×32 + 16×16 MiB)."""
    wf = make_swarp(n_pipelines=1, include_stage_in=False)
    total = sum(f.size for f in wf.external_input_files())
    assert total == pytest.approx(768 * MiB)


def test_swarp_pipelines_are_independent():
    wf = make_swarp(n_pipelines=4, include_stage_in=False)
    # No cross-pipeline edges: resample_i only feeds combine_i.
    for i in range(4):
        assert [t.name for t in wf.children(f"resample_{i}")] == [f"combine_{i}"]
        assert wf.parents(f"resample_{i}") == []


def test_swarp_stage_in_feeds_every_pipeline():
    wf = make_swarp(n_pipelines=4)
    kids = {t.name for t in wf.children("stage_in")}
    assert kids == {f"resample_{i}" for i in range(4)}


def test_swarp_cores_parameter():
    wf = make_swarp(n_pipelines=2, cores_per_task=8)
    assert wf.task("resample_0").cores == 8
    assert wf.task("combine_1").cores == 8
    assert wf.task("stage_in").cores == 1  # stage-in is always sequential


def test_swarp_flops_follow_eq4():
    """Task flops must encode T_c(1) = p (1 − λ_io) T(p) at Cori speed."""
    from repro.platform.presets import TABLE_I

    wf = make_swarp(n_pipelines=1)
    expected_tc1 = 32 * (1 - cal.RESAMPLE_LAMBDA_IO) * cal.RESAMPLE_OBSERVED_T32
    assert wf.task("resample_0").flops == pytest.approx(
        expected_tc1 * TABLE_I["cori"]["core_speed"]
    )


def test_swarp_validation():
    with pytest.raises(ValueError):
        make_swarp(n_pipelines=0)
    with pytest.raises(ValueError):
        make_swarp(cores_per_task=0)


def test_swarp_combine_alpha_encodes_poor_scaling():
    wf = make_swarp()
    assert wf.task("combine_0").alpha > wf.task("resample_0").alpha


# ----------------------------------------------------------------------
# 1000Genomes
# ----------------------------------------------------------------------
def test_genomes_task_count_matches_paper():
    """Paper: 903 tasks for the 22-chromosome instance."""
    wf = make_1000genomes()
    assert len(wf) == 903


def test_genomes_footprint_matches_paper():
    """Paper: ~67 GB footprint, ~52 GB (77%) external input."""
    wf = make_1000genomes()
    footprint = wf.data_footprint
    inputs = sum(f.size for f in wf.external_input_files())
    assert footprint == pytest.approx(67e9, rel=0.05)
    assert inputs == pytest.approx(52e9, rel=0.05)
    assert inputs / footprint == pytest.approx(0.77, abs=0.05)


def test_genomes_structure_per_chromosome():
    wf = make_1000genomes(n_chromosomes=1)
    groups = {}
    for t in wf:
        groups[t.group] = groups.get(t.group, 0) + 1
    assert groups == {
        "populations": 1,
        "individuals": 25,
        "individuals_merge": 1,
        "sifting": 1,
        "mutation_overlap": 7,
        "frequency": 7,
    }


def test_genomes_dependency_shape():
    wf = make_1000genomes(n_chromosomes=1)
    # merge waits for all 25 individuals
    parents = {t.name for t in wf.parents("individuals_merge_c1")}
    assert parents == {f"individuals_c1_k{k}" for k in range(25)}
    # overlap needs merge + sifting + populations
    parents = {t.name for t in wf.parents("mutation_overlap_c1_ALL")}
    assert parents == {"individuals_merge_c1", "sifting_c1", "populations"}


def test_genomes_two_chromosome_instance():
    """The Figure 14 reference configuration (2 chromosomes)."""
    wf = make_1000genomes(n_chromosomes=2)
    assert len(wf) == 1 + 2 * 41


def test_genomes_chromosomes_are_independent():
    wf = make_1000genomes(n_chromosomes=2)
    # No path between chr1 merge and chr2 overlap tasks.
    import networkx as nx

    assert not nx.has_path(digraph(wf), "individuals_merge_c1", "mutation_overlap_c2_ALL")


def test_genomes_validation():
    with pytest.raises(ValueError):
        make_1000genomes(n_chromosomes=0)
