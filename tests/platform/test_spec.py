"""Tests for platform spec dataclasses and validation."""

import pytest

from repro.platform import DiskSpec, HostSpec, LinkSpec, PlatformSpec, RouteSpec


def make_host(name="h", **kw):
    defaults = dict(cores=4, core_speed=1e9)
    defaults.update(kw)
    return HostSpec(name=name, **defaults)


# ----------------------------------------------------------------------
# DiskSpec
# ----------------------------------------------------------------------
def test_disk_spec_valid():
    d = DiskSpec("ssd", read_bandwidth=1e9, write_bandwidth=5e8, capacity=1e12)
    assert d.read_bandwidth == 1e9


def test_disk_spec_rejects_bad_bandwidth():
    with pytest.raises(ValueError):
        DiskSpec("ssd", read_bandwidth=0, write_bandwidth=1)
    with pytest.raises(ValueError):
        DiskSpec("ssd", read_bandwidth=1, write_bandwidth=-1)


def test_disk_spec_rejects_bad_capacity():
    with pytest.raises(ValueError):
        DiskSpec("ssd", read_bandwidth=1, write_bandwidth=1, capacity=0)


def test_disk_spec_rejects_empty_name():
    with pytest.raises(ValueError):
        DiskSpec("", read_bandwidth=1, write_bandwidth=1)


# ----------------------------------------------------------------------
# HostSpec
# ----------------------------------------------------------------------
def test_host_spec_aggregate_speed():
    h = make_host(cores=8, core_speed=2e9)
    assert h.speed == 16e9


def test_host_spec_validation():
    with pytest.raises(ValueError):
        make_host(cores=0)
    with pytest.raises(ValueError):
        make_host(core_speed=0)
    with pytest.raises(ValueError):
        make_host(ram=0)
    with pytest.raises(ValueError):
        HostSpec(name="", cores=1, core_speed=1)


def test_host_spec_duplicate_disks_rejected():
    d = DiskSpec("ssd", read_bandwidth=1, write_bandwidth=1)
    with pytest.raises(ValueError, match="duplicate disk"):
        make_host(disks=(d, d))


def test_host_disk_lookup():
    d = DiskSpec("ssd", read_bandwidth=1, write_bandwidth=1)
    h = make_host(disks=(d,))
    assert h.disk("ssd") is d
    with pytest.raises(KeyError):
        h.disk("nope")


# ----------------------------------------------------------------------
# RouteSpec / PlatformSpec
# ----------------------------------------------------------------------
def test_route_spec_rejects_self_route():
    with pytest.raises(ValueError):
        RouteSpec("a", "a", ["l"])


def test_platform_spec_valid():
    spec = PlatformSpec(
        name="p",
        hosts=(make_host("a"), make_host("b")),
        links=(LinkSpec("l", bandwidth=1.0),),
        routes=(RouteSpec("a", "b", ["l"]),),
    )
    assert spec.host("a").name == "a"
    assert spec.link("l").bandwidth == 1.0
    assert spec.total_cores == 8


def test_platform_spec_duplicate_host_names():
    with pytest.raises(ValueError, match="duplicate host"):
        PlatformSpec(name="p", hosts=(make_host("a"), make_host("a")))


def test_platform_spec_duplicate_link_names():
    with pytest.raises(ValueError, match="duplicate link"):
        PlatformSpec(
            name="p",
            hosts=(make_host("a"),),
            links=(LinkSpec("l", bandwidth=1), LinkSpec("l", bandwidth=2)),
        )


def test_platform_spec_route_unknown_host():
    with pytest.raises(ValueError, match="unknown host"):
        PlatformSpec(
            name="p",
            hosts=(make_host("a"),),
            links=(LinkSpec("l", bandwidth=1),),
            routes=(RouteSpec("a", "ghost", ["l"]),),
        )


def test_platform_spec_route_unknown_link():
    with pytest.raises(ValueError, match="unknown link"):
        PlatformSpec(
            name="p",
            hosts=(make_host("a"), make_host("b")),
            routes=(RouteSpec("a", "b", ["ghost"]),),
        )


def test_platform_lookup_errors():
    spec = PlatformSpec(name="p", hosts=(make_host("a"),))
    with pytest.raises(KeyError):
        spec.host("zz")
    with pytest.raises(KeyError):
        spec.link("zz")
