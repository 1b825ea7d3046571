"""Tests for DataWarp-style allocation provisioning."""

import pytest

from repro import des
from repro.obs import Observer
from repro.platform import Platform
from repro.platform.presets import cori_spec
from repro.platform.units import GiB, MB
from repro.storage import (
    BBMode,
    InsufficientStorage,
    burst_buffer_for_allocation,
    provision_allocation,
)
from repro.storage.provisioning import DEFAULT_GRANULARITY
from repro.workflow import File


@pytest.fixture
def platform():
    env = des.Environment()
    return Platform(env, cori_spec(n_compute=1, n_bb_nodes=4))


def test_small_allocation_one_granule(platform):
    alloc = provision_allocation(platform, 5 * GiB)
    assert alloc.granted == DEFAULT_GRANULARITY
    assert alloc.granules == 1
    assert alloc.stripe_width == 1


def test_rounding_to_granularity(platform):
    alloc = provision_allocation(platform, 25 * GiB)
    assert alloc.granted == 2 * DEFAULT_GRANULARITY
    assert alloc.granules == 2
    assert alloc.stripe_width == 2  # round-robin spreads over nodes


def test_large_allocation_stripes_wide(platform):
    alloc = provision_allocation(platform, 100 * GiB)  # 5 granules, 4 nodes
    assert alloc.granules == 5
    assert alloc.stripe_width == 4


def test_exact_multiple_not_rounded(platform):
    alloc = provision_allocation(platform, 3 * DEFAULT_GRANULARITY)
    assert alloc.granted == 3 * DEFAULT_GRANULARITY


def test_custom_granularity(platform):
    alloc = provision_allocation(platform, 7 * GiB, granularity=4 * GiB)
    assert alloc.granted == 8 * GiB
    assert alloc.granules == 2


def test_over_capacity_rejected(platform):
    # 4 nodes × 6.4 TB = 25.6 TB total.
    with pytest.raises(InsufficientStorage):
        provision_allocation(platform, 30e12)


def test_validation(platform):
    with pytest.raises(ValueError):
        provision_allocation(platform, 0)
    with pytest.raises(ValueError):
        provision_allocation(platform, 1 * GiB, granularity=0)
    with pytest.raises(ValueError):
        provision_allocation(platform, 1 * GiB, bb_hosts=[])


def test_service_from_allocation_enforces_granted_capacity(platform):
    alloc = provision_allocation(platform, 5 * GiB)
    service = burst_buffer_for_allocation(platform, alloc, BBMode.STRIPED)
    assert service.capacity == alloc.granted
    assert service.bb_hosts == list(alloc.bb_hosts)
    with pytest.raises(InsufficientStorage):
        service.add_file(File("too-big", alloc.granted + 1))


def test_service_from_allocation_is_usable(platform):
    env = platform.env
    obs = Observer(metrics=["network"]).attach(env)  # records finished flows
    alloc = provision_allocation(platform, 40 * GiB)  # 2 granules → 2 nodes
    service = burst_buffer_for_allocation(platform, alloc, BBMode.STRIPED)
    f = File("data", 100 * MB)
    env.run(until=service.write(f, src_host="cn0"))
    assert service.contains(f)
    # Chunks went to exactly the allocation's nodes.
    disks = {
        link.name.split(":")[0]
        for flow in obs._completed
        for link in flow.links
        if ":ssd:write" in link.name
    }
    assert disks == set(alloc.bb_hosts)


def test_wider_stripes_more_aggregate_bandwidth(platform):
    """The paper's point about striping: more BB nodes behind an
    allocation means more aggregate disk bandwidth (when the network
    is not the bottleneck, i.e. for BB-internal staging)."""
    env = platform.env
    narrow = burst_buffer_for_allocation(
        platform, provision_allocation(platform, 5 * GiB), BBMode.STRIPED
    )
    wide = burst_buffer_for_allocation(
        platform, provision_allocation(platform, 80 * GiB), BBMode.STRIPED
    )
    assert wide.stripe_width if hasattr(wide, "stripe_width") else True
    assert len(wide.bb_hosts) > len(narrow.bb_hosts)


# ----------------------------------------------------------------------
# BB-node discovery: declared roles first, name prefix as fallback
# ----------------------------------------------------------------------
def _spec_with_named_bb(bb_name, role):
    from repro.platform import PlatformSpec
    from repro.platform.spec import DiskSpec, HostSpec, HostRole

    return PlatformSpec(
        name="custom",
        hosts=(
            HostSpec(name="cn0", cores=32, core_speed=1e9,
                     role=HostRole.COMPUTE),
            HostSpec(
                name=bb_name,
                cores=1,
                core_speed=1e9,
                role=role,
                disks=(
                    DiskSpec(name="ssd", read_bandwidth=1e9,
                             write_bandwidth=1e9, capacity=100 * GiB),
                ),
            ),
        ),
    )


def test_discovery_honours_declared_role_over_name():
    """Regression: a role-declared BB host named anything (here
    "warp-a", no "bb" prefix) must be discovered — discovery used to
    key on the name prefix alone and would have missed it."""
    import warnings

    from repro.platform.spec import HostRole
    from repro.storage.provisioning import discover_bb_hosts

    env = des.Environment()
    platform = Platform(env, _spec_with_named_bb("warp-a", HostRole.SHARED_BB))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # declared roles: no deprecation
        assert discover_bb_hosts(platform) == ["warp-a"]
        alloc = provision_allocation(platform, 5 * GiB)
    assert alloc.bb_hosts == ("warp-a",)


def test_discovery_role_declared_but_differently_named_is_excluded():
    """A 'bb'-prefixed host that declares a non-BB role must NOT be
    picked up once any host declares shared_bb."""
    from repro.platform import PlatformSpec
    from repro.platform.spec import DiskSpec, HostSpec, HostRole
    from repro.storage.provisioning import discover_bb_hosts

    disks = (
        DiskSpec(name="ssd", read_bandwidth=1e9, write_bandwidth=1e9,
                 capacity=100 * GiB),
    )
    spec = PlatformSpec(
        name="custom",
        hosts=(
            HostSpec(name="bbx-login", cores=1, core_speed=1e9,
                     role=HostRole.COMPUTE),
            HostSpec(name="warp-a", cores=1, core_speed=1e9,
                     role=HostRole.SHARED_BB, disks=disks),
        ),
    )
    env = des.Environment()
    assert discover_bb_hosts(Platform(env, spec)) == ["warp-a"]


# ----------------------------------------------------------------------
# Allocation capacity clamp happens at construction
# ----------------------------------------------------------------------
def test_capacity_clamped_in_constructor_monitor_sees_it(platform):
    """Regression: the allocation clamp used to mutate ``capacity``
    *after* construction, so anything sampling at construction time
    (occupancy gauges, the BB occupancy monitor) saw the full device
    capacity for one sample.  The clamp now goes through the
    constructor."""
    from repro.obs import Observer

    observer = Observer(monitors=True)
    observer.attach(platform.env)
    alloc = provision_allocation(platform, 5 * GiB)
    service = burst_buffer_for_allocation(platform, alloc, BBMode.STRIPED)
    assert service.capacity == alloc.granted
    # The very first occupancy sample already carries the clamped
    # capacity (pre-fix, a sample taken before the post-construction
    # mutation reported the full device capacity).
    service.add_file(File("seed", 1 * GiB))
    gauge = observer.registry.gauges[
        f"storage.{service.name}.capacity_bytes"
    ]
    assert gauge.value == alloc.granted


def test_constructor_capacity_never_exceeds_device(platform):
    from repro.storage import SharedBurstBuffer

    device = SharedBurstBuffer(platform, ["bb0"], BBMode.STRIPED)
    clamped = SharedBurstBuffer(
        platform, ["bb0"], BBMode.STRIPED, capacity=device.capacity * 10
    )
    assert clamped.capacity == device.capacity
