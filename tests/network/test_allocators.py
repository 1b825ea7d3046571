"""Tests for the named rate-allocator table."""

import pytest

from repro.network import (
    DEFAULT_ALLOCATOR,
    allocator_names,
    equal_split_rates,
    max_min_fair_rates,
    resolve_allocator,
)
from repro.network.allocators import _ALLOCATORS


def test_default_resolves_to_max_min():
    assert DEFAULT_ALLOCATOR == "max-min"
    assert resolve_allocator(None) is max_min_fair_rates
    assert resolve_allocator("max-min") is max_min_fair_rates


def test_named_lookup():
    assert resolve_allocator("equal-split") is equal_split_rates


def test_callable_passthrough():
    def custom(flow_links, capacities, flow_caps=None):
        return [0.0] * len(flow_links)

    assert resolve_allocator(custom) is custom


def test_unknown_name_lists_choices():
    with pytest.raises(ValueError, match="unknown allocator 'nope'"):
        resolve_allocator("nope")


def test_removed_engine_names_are_rejected():
    # The names that once picked another event loop are gone; the error
    # names the two allocators there are.
    assert allocator_names() == ["equal-split", "max-min"]
    for name in ("incremental", "vectorized"):
        with pytest.raises(
            ValueError, match=r"\(choose from equal-split, max-min\)"
        ):
            resolve_allocator(name)


def test_rebinding_name_is_rejected():
    with pytest.raises(TypeError):
        _ALLOCATORS["max-min"] = equal_split_rates  # the table is constant
    assert resolve_allocator("max-min") is max_min_fair_rates
