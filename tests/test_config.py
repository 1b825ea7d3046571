"""Tests for the v2 configuration surface (``repro.Config``).

Covers the single coercion path (:meth:`Config.from_any`), the doc
round-trip serialized into v2 manifests, and — critically — that the
v2 manifest layout did not shift the sweep cache's content addresses
for unchanged points.
"""

import json
import warnings

import pytest

import repro
from repro import Config
from repro.network import DEFAULT_ALLOCATOR
from repro.platform.presets import cori_spec
from repro.storage import BBMode
from repro.workflow.swarp import make_swarp


@pytest.fixture(scope="module")
def platform():
    return cori_spec(n_compute=1, n_bb_nodes=1)


@pytest.fixture(scope="module")
def workflow():
    return make_swarp()


# ----------------------------------------------------------------------
# Coercion: Config.from_any
# ----------------------------------------------------------------------
def test_top_level_reexport():
    from repro.config import Config as Underlying

    assert repro.Config is Underlying


def test_from_any_none_gives_defaults():
    cfg = Config.from_any(None)
    assert cfg == Config()
    assert cfg.bb_mode is BBMode.STRIPED
    assert cfg.network_allocator == DEFAULT_ALLOCATOR
    assert not cfg.wants_observer()


def test_from_any_config_passes_through():
    cfg = Config(input_fraction=0.5)
    assert Config.from_any(cfg) is cfg


def test_from_any_mapping_mixes_model_and_obs_keys():
    cfg = Config.from_any(
        {"bb_mode": "private", "monitors": True, "metrics": ["network"]}
    )
    assert cfg.bb_mode is BBMode.PRIVATE
    assert cfg.monitors is True
    assert cfg.metrics == ("network",)
    assert cfg.wants_observer()


def test_from_any_rejects_unknown_keys():
    with pytest.raises(TypeError, match="unknown config keys: allocator"):
        Config.from_any({"allocator": "equal-split"})


def test_from_any_rejects_unsupported_types():
    with pytest.raises(TypeError, match="cannot build a Config"):
        Config.from_any(42)


def test_from_any_reads_json_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"network_allocator": "equal-split"}))
    cfg = Config.from_any(path)
    assert cfg.network_allocator == "equal-split"
    # str paths work too (the CLI hands them over untouched).
    assert Config.from_any(str(path)) == cfg


def test_from_any_rejects_non_object_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="must hold a JSON object"):
        Config.from_any(path)


def test_config_coerces_bb_mode_string_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning fails the test
        cfg = Config(bb_mode="private")
    assert cfg.bb_mode is BBMode.PRIVATE


def test_config_rejects_unknown_queue_policy():
    with pytest.raises(Exception, match="not-a-policy"):
        Config(queue_policy="not-a-policy")


def test_config_rejects_unknown_allocator_when_built():
    with pytest.raises(ValueError, match="unknown allocator 'bogus'"):
        Config(network_allocator="bogus")
    # The removed engine names fail the same way, naming what is left.
    with pytest.raises(
        ValueError, match=r"'vectorized' \(choose from equal-split, max-min\)"
    ):
        Config(network_allocator="vectorized")

    def custom(flow_links, capacities, flow_caps=None):
        return [0.0] * len(flow_links)

    assert Config(network_allocator=custom).network_allocator is custom


def test_replace_returns_modified_copy():
    base = Config()
    changed = base.replace(network_allocator="equal-split")
    assert changed.network_allocator == "equal-split"
    assert base.network_allocator == DEFAULT_ALLOCATOR
    assert changed is not base


# ----------------------------------------------------------------------
# Doc round-trip (the manifest v2 config form)
# ----------------------------------------------------------------------
def test_to_doc_from_doc_round_trip():
    cfg = Config(
        bb_mode=BBMode.PRIVATE,
        input_fraction=0.5,
        network_allocator="equal-split",
        metrics=("network", "des"),
        monitors=True,
        obs_dir="/tmp/obs",
    )
    doc = cfg.to_doc()
    assert doc["schema"] == "repro.api.config/2"
    assert doc["bb_mode"] == "private"          # enum serialized by value
    assert doc["metrics"] == ["network", "des"]  # tuple becomes a list
    json.dumps(doc)  # JSON-ready as promised
    assert Config.from_any(doc) == cfg


def test_from_doc_reads_v1_model_only_shape():
    # The v1 manifest config: flat model-knob fields, no schema tag.
    v1 = {
        "bb_mode": "striped",
        "input_fraction": 1.0,
        "intermediate_fraction": 1.0,
        "output_fraction": 0.0,
        "use_amdahl_alpha": False,
        "network_allocator": "max-min",
        "queue_policy": "fifo",
    }
    cfg = Config.from_any(v1)
    assert cfg == Config()
    assert not cfg.wants_observer()


# ----------------------------------------------------------------------
# Observer construction
# ----------------------------------------------------------------------
def test_make_observer_none_when_nothing_requested():
    assert Config().make_observer() is None


def test_make_observer_builds_observer_with_bus(tmp_path):
    cfg = Config(metrics=("network",), live_dir=tmp_path / "live")
    observer = cfg.make_observer()
    assert observer is not None
    assert observer.bus is not None
    plain = Config(observe=True).make_observer()
    assert plain is not None and plain.bus is None


# ----------------------------------------------------------------------
# simulate() integration
# ----------------------------------------------------------------------
def test_simulate_accepts_config_v2(platform, workflow):
    result = repro.simulate(
        platform, workflow, config=Config(network_allocator="equal-split")
    )
    assert result.config.network_allocator == "equal-split"
    assert result.makespan > 0


def test_simulate_config_observability_switches_imply_observer(
    platform, workflow
):
    result = repro.simulate(platform, workflow, config=Config(observe=True))
    assert result.telemetry is not None


def test_simulator_accepts_config_v2(platform, workflow):
    cfg = Config(bb_mode=BBMode.PRIVATE)
    assert repro.simulate(platform, workflow, config=cfg).config is cfg
    mapped = repro.simulate(platform, workflow, config={"bb_mode": "private"})
    assert mapped.config == cfg


# ----------------------------------------------------------------------
# Manifest schemas
# ----------------------------------------------------------------------
def test_manifest_with_config_uses_v2_schema():
    from repro.obs import (
        MANIFEST_SCHEMA_V2,
        build_manifest,
        config_from_manifest,
        validate_manifest,
    )

    cfg = Config(bb_mode=BBMode.PRIVATE, monitors=True)
    doc = build_manifest(config=cfg)
    assert doc["schema"] == MANIFEST_SCHEMA_V2
    assert doc["config"]["schema"] == "repro.api.config/2"
    assert validate_manifest(doc) == []
    assert config_from_manifest(doc) == cfg


def test_manifest_v1_layout_still_reads():
    from repro.obs import config_from_manifest

    v1_doc = {
        "schema": "repro.obs.manifest/1",
        "simulator_version": "1.0.0",
        "config": {
            "bb_mode": "private",
            "input_fraction": 0.5,
            "intermediate_fraction": 1.0,
            "output_fraction": 0.0,
            "use_amdahl_alpha": False,
            "network_allocator": "max-min",
            "queue_policy": "fifo",
        },
    }
    cfg = config_from_manifest(v1_doc)
    assert cfg == Config(bb_mode=BBMode.PRIVATE, input_fraction=0.5)
    assert not cfg.wants_observer()


def test_configless_manifest_keeps_v1_schema():
    from repro.obs import MANIFEST_SCHEMA, build_manifest

    assert build_manifest()["schema"] == MANIFEST_SCHEMA


# ----------------------------------------------------------------------
# Cache-key neutrality (warm caches survive the v2 migration)
# ----------------------------------------------------------------------
def test_fig13_cache_key_unchanged_by_config_v2():
    """The content address of a historical fig13 point is pinned.

    A warm sweep cache written before the Config v2 migration must stay
    valid: the key document still carries the v1 manifest schema (no
    config section) and hashes to the exact pre-migration digest.
    """
    from repro.experiments.fig13 import sweep_spec
    from repro.sweep.cache import point_key, point_key_doc

    spec = sweep_spec(quick=False)  # default-allocator spec
    params = {"system": "cori", "fraction": 0.5, "n_chromosomes": 6}
    doc = point_key_doc(spec, params)
    assert doc == {
        "cache_schema": "repro.sweep.cache/1",
        "params": {"fraction": 0.5, "n_chromosomes": 6, "system": "cori"},
        "schema": "repro.obs.manifest/1",
        "simulator_version": "1.0.0",
        "sweep": {
            "func": "repro.experiments.fig13:compute_point",
            "sweep_id": "fig13",
            "version": 1,
        },
    }
    assert point_key(spec, params) == (
        "1f3bec07c6dc1863df36d2f0c05312f9faa7a06dbd00b6d94640e40c5b55fc84"
    )


def test_non_default_allocator_changes_the_cache_key():
    from repro.experiments.fig13 import sweep_spec
    from repro.sweep.cache import point_key

    default_spec = sweep_spec(quick=False)
    vec_spec = sweep_spec(
        quick=False, config=Config(network_allocator="equal-split")
    )
    base = {"system": "cori", "fraction": 0.5, "n_chromosomes": 6}
    assert all(
        "network_allocator" not in params for params in default_spec.points
    )
    assert all(
        params["network_allocator"] == "equal-split"
        for params in vec_spec.points
    )
    assert point_key(default_spec, base) != point_key(
        vec_spec, {**base, "network_allocator": "equal-split"}
    )
