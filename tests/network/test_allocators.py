"""Tests for the named rate-allocator registry."""

import pytest

from repro.network import (
    DEFAULT_ALLOCATOR,
    allocator_names,
    equal_split_rates,
    max_min_fair_rates,
    register_allocator,
    resolve_allocator,
)


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


def test_engine_names_are_aliases_of_max_min():
    names = allocator_names()
    assert names == ["equal-split", "incremental", "max-min", "vectorized"]
    # One event loop serves every allocator; the names that once picked
    # another loop still resolve, to the same solver.
    assert resolve_allocator("incremental") is max_min_fair_rates
    assert resolve_allocator("vectorized") is max_min_fair_rates


def test_reregistering_same_callable_is_idempotent():
    register_allocator("max-min", max_min_fair_rates)  # no error


def test_rebinding_name_is_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_allocator("max-min", equal_split_rates)
