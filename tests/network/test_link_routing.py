"""Tests for Link validation and RoutingTable lookups."""

import pytest

from repro.network import Link, Route, RoutingTable


# ----------------------------------------------------------------------
# Link
# ----------------------------------------------------------------------
def test_link_basic_construction():
    l = Link("fabric", bandwidth=1e9, latency=1e-6)
    assert l.bandwidth == 1e9
    assert l.latency == 1e-6


def test_link_requires_positive_bandwidth():
    with pytest.raises(ValueError):
        Link("bad", bandwidth=0)
    with pytest.raises(ValueError):
        Link("bad", bandwidth=-5)


def test_link_rejects_infinite_bandwidth():
    with pytest.raises(ValueError):
        Link("bad", bandwidth=float("inf"))


def test_link_rejects_negative_latency():
    with pytest.raises(ValueError):
        Link("bad", bandwidth=1.0, latency=-1)


def test_link_rejects_empty_name():
    with pytest.raises(ValueError):
        Link("", bandwidth=1.0)


def test_link_concurrency_penalty_validation():
    with pytest.raises(ValueError):
        Link("bad", bandwidth=1.0, concurrency_penalty=1.0)
    with pytest.raises(ValueError):
        Link("bad", bandwidth=1.0, concurrency_penalty=-0.1)


def test_effective_bandwidth_no_penalty():
    l = Link("l", bandwidth=100.0)
    assert l.effective_bandwidth(1) == 100.0
    assert l.effective_bandwidth(10) == 100.0


def test_effective_bandwidth_with_penalty():
    l = Link("l", bandwidth=100.0, concurrency_penalty=0.05)
    assert l.effective_bandwidth(1) == 100.0
    assert l.effective_bandwidth(2) == pytest.approx(95.0)
    assert l.effective_bandwidth(11) == pytest.approx(50.0)


def test_effective_bandwidth_floor_at_ten_percent():
    l = Link("l", bandwidth=100.0, concurrency_penalty=0.1)
    assert l.effective_bandwidth(1000) == pytest.approx(10.0)


def test_link_is_hashable_and_frozen():
    l = Link("l", bandwidth=1.0)
    assert {l: 1}[l] == 1
    with pytest.raises(AttributeError):
        l.bandwidth = 2.0  # type: ignore[misc]


# ----------------------------------------------------------------------
# Route
# ----------------------------------------------------------------------
def test_route_latency_sums_links():
    a = Link("a", bandwidth=1.0, latency=0.5)
    b = Link("b", bandwidth=2.0, latency=0.25)
    assert Route([a, b]).latency == pytest.approx(0.75)


def test_route_bottleneck_bandwidth():
    a = Link("a", bandwidth=10.0)
    b = Link("b", bandwidth=3.0)
    assert Route([a, b]).bottleneck_bandwidth == 3.0


def test_empty_route_properties():
    r = Route([])
    assert r.latency == 0.0
    assert r.bottleneck_bandwidth == float("inf")
    assert len(r) == 0


def test_route_concatenation():
    a = Link("a", bandwidth=1.0)
    b = Link("b", bandwidth=1.0)
    combined = Route([a]) + Route([b])
    assert list(combined) == [a, b]


# ----------------------------------------------------------------------
# RoutingTable
# ----------------------------------------------------------------------
def test_routing_table_symmetric_lookup():
    table = RoutingTable()
    l = Link("l", bandwidth=1.0)
    table.add_route("cn1", "pfs", [l])
    assert list(table.route("cn1", "pfs")) == [l]
    assert list(table.route("pfs", "cn1")) == [l]


def test_routing_table_reverse_route_is_built_once_in_reverse_order():
    table = RoutingTable()
    l1, l2, l3 = (Link(f"l{i}", bandwidth=1.0) for i in range(3))
    table.add_route("bb0", "cn0", [l1, l2, l3])
    reverse = table.route("cn0", "bb0")
    assert reverse.links == (l3, l2, l1)
    assert table.route("cn0", "bb0") is reverse
    assert table.route("bb0", "cn0").links == (l1, l2, l3)


def test_routing_table_reregistered_route_replaces_its_reverse():
    table = RoutingTable()
    l1, l2 = Link("l1", bandwidth=1.0), Link("l2", bandwidth=1.0)
    table.add_route("a", "b", [l1])
    assert table.route("b", "a").links == (l1,)
    table.add_route("a", "b", [l1, l2])
    assert table.route("b", "a").links == (l2, l1)


def test_routing_table_loopback_is_empty_route():
    table = RoutingTable()
    r = table.route("host", "host")
    assert len(r) == 0


def test_routing_table_missing_route_raises():
    table = RoutingTable()
    with pytest.raises(KeyError):
        table.route("x", "y")


def test_routing_table_self_route_registration_rejected():
    table = RoutingTable()
    with pytest.raises(ValueError):
        table.add_route("a", "a", [])


def test_routing_table_has_route():
    table = RoutingTable()
    table.add_route("a", "b", [Link("l", bandwidth=1.0)])
    assert table.has_route("a", "b")
    assert table.has_route("b", "a")
    assert table.has_route("c", "c")
    assert not table.has_route("a", "c")


def test_routing_table_links_collection():
    table = RoutingTable()
    l1, l2 = Link("l1", bandwidth=1.0), Link("l2", bandwidth=1.0)
    table.add_route("a", "b", [l1])
    table.add_route("a", "c", [l1, l2])
    assert table.links == {l1, l2}
    assert len(table) == 2
