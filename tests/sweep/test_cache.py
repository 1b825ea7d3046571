"""Unit tests for the content-addressed sweep cache."""

from repro.sweep import SweepCache, SweepSpec
from repro.sweep.cache import point_key, point_key_doc


def _spec(version=1):
    return SweepSpec(
        sweep_id="demo",
        func="tests.sweep.points:square",
        points=({"x": 1}, {"x": 2}),
        version=version,
    )


def test_store_lookup_round_trip(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _spec()
    key = point_key(spec, {"x": 1})
    assert SweepCache.is_miss(cache.lookup(key))
    cache.store(key, [1.5, 2.5], point_key_doc(spec, {"x": 1}))
    assert cache.lookup(key) == [1.5, 2.5]


def test_none_value_distinct_from_miss(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _spec()
    key = point_key(spec, {"x": 1})
    cache.store(key, None, point_key_doc(spec, {"x": 1}))
    hit = cache.lookup(key)
    assert hit is None
    assert not SweepCache.is_miss(hit)


def test_key_depends_on_params_and_version():
    spec = _spec()
    assert point_key(spec, {"x": 1}) != point_key(spec, {"x": 2})
    assert point_key(spec, {"x": 1}) != point_key(_spec(version=2), {"x": 1})
    # Stable across calls (no timestamps or randomness in the key doc).
    assert point_key(spec, {"x": 1}) == point_key(spec, {"x": 1})


def test_key_doc_carries_provenance():
    spec = _spec()
    doc = point_key_doc(spec, {"x": 1})
    assert doc["sweep"]["sweep_id"] == "demo"
    assert doc["sweep"]["version"] == 1
    assert doc["params"] == {"x": 1}
    assert "simulator_version" in doc  # the code-version salt


def test_on_disk_layout(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _spec()
    key = point_key(spec, {"x": 2})
    path = cache.store(key, 4, point_key_doc(spec, {"x": 2}))
    assert path == tmp_path / key[:2] / f"{key}.json"
    assert path.exists()
    assert list(tmp_path.glob("*/*.json")) == [path]
    # No stray temp files after the atomic rename.
    assert not list(tmp_path.glob("**/*.tmp.*"))


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = SweepCache(tmp_path)
    spec = _spec()
    key = point_key(spec, {"x": 1})
    cache.store(key, 1, point_key_doc(spec, {"x": 1}))
    (tmp_path / key[:2] / f"{key}.json").write_text("{not json")
    assert SweepCache.is_miss(cache.lookup(key))


def test_valid_json_wrong_shape_is_a_miss(tmp_path):
    """Well-formed JSON that is not a cache entry must read as a miss.

    Regression: lookup used to index ``doc["value"]`` unguarded, so a
    truncated/foreign file holding e.g. a list raised and killed the
    whole sweep instead of recomputing one point.
    """
    cache = SweepCache(tmp_path)
    spec = _spec()
    key = point_key(spec, {"x": 1})
    path = cache.store(key, 1, point_key_doc(spec, {"x": 1}))
    wrong_shapes = (
        "[1, 2, 3]",
        '"a string"',
        "null",
        '{"schema": "other/1", "value": 1}',
        '{"key": "but-no-value"}',
    )
    for wrong in wrong_shapes:
        path.write_text(wrong)
        assert SweepCache.is_miss(cache.lookup(key)), wrong
