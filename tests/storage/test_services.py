"""Tests for PFS and burst buffer storage services."""

import pytest

from repro import des
from repro.obs import Observer
from repro.platform import Platform
from repro.platform.presets import cori_spec, local_bb_host, summit_spec
from repro.platform.units import GB, MB
from repro.storage import (
    AccessDeniedError,
    BBMode,
    FileNotOnService,
    InsufficientStorage,
    OnNodeBurstBuffer,
    ParallelFileSystem,
    SharedBurstBuffer,
)
from repro.storage.base import ServiceLatencies
from repro.workflow import File


@pytest.fixture
def cori():
    env = des.Environment()
    plat = Platform(env, cori_spec(n_compute=2, n_bb_nodes=2))
    return env, plat


@pytest.fixture
def summit():
    env = des.Environment()
    plat = Platform(env, summit_spec(n_compute=2))
    return env, plat


# ----------------------------------------------------------------------
# ParallelFileSystem
# ----------------------------------------------------------------------
def test_pfs_write_then_read(cori):
    env, plat = cori
    pfs = ParallelFileSystem(plat)
    f = File("data", 100 * MB)

    def proc(env):
        yield pfs.write(f, src_host="cn0")
        assert pfs.contains(f)
        yield pfs.read(f, dest_host="cn1")

    env.run(until=env.process(proc(env)))
    # write: 1 s at 100 MB/s disk; read: another 1 s
    assert env.now == pytest.approx(2.0, rel=1e-6)


def test_pfs_read_missing_file_raises(cori):
    env, plat = cori
    pfs = ParallelFileSystem(plat)
    with pytest.raises(FileNotOnService):
        pfs.read(File("ghost", 1), dest_host="cn0")


def test_pfs_add_file_is_free(cori):
    env, plat = cori
    pfs = ParallelFileSystem(plat)
    f = File("pre", 10 * MB)
    pfs.add_file(f)
    assert pfs.contains(f)
    assert env.now == 0.0
    assert pfs.used == 10 * MB


def test_pfs_latency_applied(cori):
    env, plat = cori
    pfs = ParallelFileSystem(plat, latencies=ServiceLatencies(read=0.5, write=0.25))
    f = File("data", 100 * MB)

    def proc(env):
        yield pfs.write(f, src_host="cn0")
        yield pfs.read(f, dest_host="cn0")

    env.run(until=env.process(proc(env)))
    assert env.now == pytest.approx(2.75, rel=1e-6)


def test_pfs_stream_cap(cori):
    env, plat = cori
    pfs = ParallelFileSystem(plat, max_stream_rate=10 * MB)
    f = File("data", 100 * MB)
    env.run(until=pfs.write(f, src_host="cn0"))
    assert env.now == pytest.approx(10.0, rel=1e-6)


# ----------------------------------------------------------------------
# SharedBurstBuffer — private mode
# ----------------------------------------------------------------------
def test_private_bb_write_rate(cori):
    env, plat = cori
    bb = SharedBurstBuffer(plat, ["bb0", "bb1"], BBMode.PRIVATE, owner_host="cn0")
    f = File("data", 800 * MB)
    env.run(until=bb.write(f, src_host="cn0"))
    # 800 MB/s uplink is the bottleneck
    assert env.now == pytest.approx(1.0, rel=1e-6)


def test_private_bb_denies_foreign_access(cori):
    env, plat = cori
    bb = SharedBurstBuffer(plat, ["bb0"], BBMode.PRIVATE, owner_host="cn0")
    f = File("data", MB)
    bb.add_file(f)
    with pytest.raises(AccessDeniedError):
        bb.read(f, dest_host="cn1")
    with pytest.raises(AccessDeniedError):
        bb.write(File("other", MB), src_host="cn1")


def test_private_bb_requires_owner():
    env = des.Environment()
    plat = Platform(env, cori_spec())
    with pytest.raises(ValueError, match="owner_host"):
        SharedBurstBuffer(plat, ["bb0"], BBMode.PRIVATE)


def test_private_bb_pins_files_to_one_node(cori):
    env, plat = cori
    obs = Observer(metrics=["network"]).attach(env)  # records finished flows
    bb = SharedBurstBuffer(plat, ["bb0", "bb1"], BBMode.PRIVATE, owner_host="cn0")
    f1, f2 = File("a", MB), File("b", MB)

    def proc(env):
        yield bb.write(f1, src_host="cn0")
        yield bb.write(f2, src_host="cn0")

    env.run(until=env.process(proc(env)))
    # Both flows must have targeted the same BB node's disk channel.
    labels = {fl.label for fl in obs._completed}
    nodes = {l.split("@")[-1] for l in labels if "@" in l}
    disks = {
        lnk.name
        for fl in obs._completed
        for lnk in fl.links
        if ":write" in lnk.name
    }
    assert len(disks) == 1


# ----------------------------------------------------------------------
# SharedBurstBuffer — striped mode
# ----------------------------------------------------------------------
def test_striped_bb_uses_all_nodes(cori):
    env, plat = cori
    obs = Observer(metrics=["network"]).attach(env)  # records finished flows
    bb = SharedBurstBuffer(plat, ["bb0", "bb1"], BBMode.STRIPED)
    f = File("data", 100 * MB)
    env.run(until=bb.write(f, src_host="cn0"))
    disks = {
        lnk.name
        for fl in obs._completed
        for lnk in fl.links
        if ":ssd:write" in lnk.name
    }
    assert disks == {"bb0:ssd:write", "bb1:ssd:write"}


def test_striped_bb_any_host_can_access(cori):
    env, plat = cori
    bb = SharedBurstBuffer(plat, ["bb0", "bb1"], BBMode.STRIPED)
    f = File("data", 10 * MB)

    def proc(env):
        yield bb.write(f, src_host="cn0")
        yield bb.read(f, dest_host="cn1")  # allowed in striped mode

    env.run(until=env.process(proc(env)))
    assert env.now > 0


def test_striped_per_stripe_latency(cori):
    env, plat = cori
    bb = SharedBurstBuffer(
        plat, ["bb0", "bb1"], BBMode.STRIPED, per_stripe_latency=0.5
    )
    f = File("tiny", 1)  # transfer time ~0; latency dominates
    env.run(until=bb.write(f, src_host="cn0"))
    assert env.now == pytest.approx(0.5, rel=1e-3)


def test_striped_large_file_aggregates_bandwidth(cori):
    """With 2 BB nodes, the 800 MB/s uplink is shared by the two chunk
    flows, so a 800 MB file still takes ~1 s (uplink-bound)."""
    env, plat = cori
    bb = SharedBurstBuffer(plat, ["bb0", "bb1"], BBMode.STRIPED)
    f = File("big", 800 * MB)
    env.run(until=bb.write(f, src_host="cn0"))
    assert env.now == pytest.approx(1.0, rel=1e-3)


def test_striped_transfer_fails_with_a_failed_chunk(cori, monkeypatch):
    env, plat = cori
    bb = SharedBurstBuffer(plat, ["bb0", "bb1"], BBMode.STRIPED)
    f = File("data", 100 * MB)
    bb.add_file(f)
    read_from_disk = plat.read_from_disk

    def failing_on_bb1(size, disk_host, *args, **kwargs):
        if disk_host == "bb1":
            return env.event().fail(OSError("bb1 lost"))
        return read_from_disk(size, disk_host, *args, **kwargs)

    monkeypatch.setattr(plat, "read_from_disk", failing_on_bb1)
    done = bb.read(f, dest_host="cn0")
    with pytest.raises(OSError, match="bb1 lost"):
        env.run(until=done)
    assert not done.ok


def test_bb_requires_hosts():
    env = des.Environment()
    plat = Platform(env, cori_spec())
    with pytest.raises(ValueError):
        SharedBurstBuffer(plat, [], BBMode.STRIPED)


def test_bb_capacity_is_sum_of_nodes(cori):
    env, plat = cori
    bb = SharedBurstBuffer(plat, ["bb0", "bb1"], BBMode.STRIPED)
    assert bb.capacity == pytest.approx(2 * 6.4e12)


def test_bb_capacity_enforced(cori):
    env, plat = cori
    bb = SharedBurstBuffer(plat, ["bb0"], BBMode.STRIPED)
    with pytest.raises(InsufficientStorage):
        bb.write(File("huge", 7e12), src_host="cn0")


# ----------------------------------------------------------------------
# OnNodeBurstBuffer
# ----------------------------------------------------------------------
def test_onnode_bb_local_write_rate(summit):
    env, plat = summit
    bb = OnNodeBurstBuffer(plat, local_bb_host("cn0"))
    f = File("data", 3.3 * GB)
    env.run(until=bb.write(f, src_host="cn0"))
    # 3.3 GB/s NVMe behind a 6.5 GB/s PCIe: device-bound, ~1 s.
    assert env.now == pytest.approx(1.0, rel=1e-4)


def test_onnode_bb_remote_access_allowed_but_routed(summit):
    env, plat = summit
    bb = OnNodeBurstBuffer(plat, local_bb_host("cn0"))
    f = File("data", 10 * MB)
    bb.add_file(f)
    env.run(until=bb.read(f, dest_host="cn1"))  # via fabric + remote PCIe
    assert env.now > 0


def test_onnode_bb_capacity(summit):
    env, plat = summit
    bb = OnNodeBurstBuffer(plat, local_bb_host("cn0"))
    assert bb.capacity == pytest.approx(1.6e12)


def test_onnode_bb_faster_than_pfs(summit):
    """The headline claim: on-node BB beats the PFS for the same file."""
    env, plat = summit
    bb = OnNodeBurstBuffer(plat, local_bb_host("cn0"))
    pfs = ParallelFileSystem(plat)
    f = File("data", 1 * GB)

    t = {}

    def proc(env):
        start = env.now
        yield bb.write(f, src_host="cn0")
        t["bb"] = env.now - start
        start = env.now
        yield pfs.write(File("data2", 1 * GB), src_host="cn0")
        t["pfs"] = env.now - start

    env.run(until=env.process(proc(env)))
    assert t["bb"] < t["pfs"] / 10
