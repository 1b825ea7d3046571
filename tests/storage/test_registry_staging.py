"""Tests for the file registry and staging operations."""

import pytest

from repro import des
from repro.platform import Platform
from repro.platform.presets import cori_spec, local_bb_host, summit_spec
from repro.platform.units import MB
from repro.storage import (
    BBMode,
    FileNotOnService,
    FileRegistry,
    OnNodeBurstBuffer,
    ParallelFileSystem,
    SharedBurstBuffer,
    stage_file,
)
from repro.storage.base import ServiceLatencies
from repro.workflow import File


@pytest.fixture
def setup():
    env = des.Environment()
    plat = Platform(env, cori_spec(n_compute=2, n_bb_nodes=2))
    pfs = ParallelFileSystem(plat)
    bb = SharedBurstBuffer(plat, ["bb0", "bb1"], BBMode.PRIVATE, owner_host="cn0")
    return env, plat, pfs, bb


# ----------------------------------------------------------------------
# FileRegistry
# ----------------------------------------------------------------------
def test_registry_register_and_lookup(setup):
    env, plat, pfs, bb = setup
    reg = FileRegistry()
    f = File("f", MB)
    reg.register(f, pfs)
    assert reg.lookup(f) is pfs
    assert reg.locations(f) == [pfs]
    assert reg.has(f)
    assert len(reg) == 1


def test_registry_lookup_missing_raises(setup):
    env, plat, pfs, bb = setup
    reg = FileRegistry()
    with pytest.raises(FileNotOnService):
        reg.lookup(File("ghost", 1))


def test_registry_prefer_order(setup):
    env, plat, pfs, bb = setup
    reg = FileRegistry()
    f = File("f", MB)
    reg.register(f, pfs)
    reg.register(f, bb)
    assert reg.lookup(f, prefer=[bb]) is bb
    assert reg.lookup(f, prefer=[pfs]) is pfs
    assert reg.lookup(f) is bb  # latest registered wins without preference


def test_registry_duplicate_register_is_idempotent(setup):
    env, plat, pfs, bb = setup
    reg = FileRegistry()
    f = File("f", MB)
    reg.register(f, pfs)
    reg.register(f, pfs)
    assert reg.locations(f) == [pfs]


def test_registry_private_bb_filtered_by_reader_host(setup):
    """A private allocation owned by cn0 is invisible to cn1's lookups."""
    env, plat, pfs, bb = setup
    reg = FileRegistry()
    f = File("f", MB)
    reg.register(f, bb)
    assert reg.lookup(f, reader_host="cn0") is bb
    with pytest.raises(FileNotOnService):
        reg.lookup(f, reader_host="cn1")
    # Adding a PFS copy makes it readable from cn1.
    reg.register(f, pfs)
    assert reg.lookup(f, reader_host="cn1") is pfs


# ----------------------------------------------------------------------
# stage_file
# ----------------------------------------------------------------------
def test_stage_pfs_to_bb(setup):
    env, plat, pfs, bb = setup
    f = File("f", 100 * MB)
    pfs.add_file(f)
    env.run(until=stage_file(f, pfs, bb))
    # PFS read channel at 100 MB/s is the bottleneck → ~1 s.
    assert env.now == pytest.approx(1.0, rel=1e-4)
    assert bb.contains(f)


def test_stage_pays_the_target_stage_in_latency():
    """Copies into a service pay its stage-in latency on top of the
    per-op latencies; copies out of it do not."""
    env = des.Environment()
    plat = Platform(env, cori_spec(n_compute=1, n_bb_nodes=2))
    pfs = ParallelFileSystem(plat, latencies=ServiceLatencies(read=0.25))
    bb = SharedBurstBuffer(
        plat,
        ["bb0", "bb1"],
        BBMode.STRIPED,
        latencies=ServiceLatencies(write=0.5, stage_in=2.0),
    )
    f = File("f", 100 * MB)
    pfs.add_file(f)
    env.run(until=stage_file(f, pfs, bb))
    assert env.now == pytest.approx(2.0 + 0.25 + 0.5 + 1.0, rel=1e-4)
    g = File("g", 100 * MB)
    bb.add_file(g)
    start = env.now
    env.run(until=stage_file(g, bb, pfs))
    assert env.now - start == pytest.approx(1.0, rel=1e-3)
    with pytest.raises(ValueError):
        ServiceLatencies(stage_in=-1.0)


def test_stage_registers_in_registry(setup):
    env, plat, pfs, bb = setup
    reg = FileRegistry()
    f = File("f", 10 * MB)
    pfs.add_file(f)
    reg.register(f, pfs)
    env.run(until=stage_file(f, pfs, bb, registry=reg))
    assert set(reg.locations(f)) == {pfs, bb}



def test_failed_stage_copy_fails_and_registers_nothing(setup, monkeypatch):
    env, plat, pfs, bb = setup
    reg = FileRegistry()
    f = File("f", 10 * MB)
    pfs.add_file(f)
    reg.register(f, pfs)
    monkeypatch.setattr(
        plat, "transfer_between_disks",
        lambda *args, **kwargs: env.event().fail(OSError("link down")),
    )
    done = stage_file(f, pfs, bb, registry=reg)
    with pytest.raises(OSError, match="link down"):
        env.run(until=done)
    assert not done.ok
    assert reg.locations(f) == [pfs]

def test_stage_missing_source_raises(setup):
    env, plat, pfs, bb = setup
    with pytest.raises(FileNotOnService):
        stage_file(File("ghost", 1), pfs, bb)


def test_stage_to_same_service_is_noop(setup):
    env, plat, pfs, bb = setup
    f = File("f", 100 * MB)
    pfs.add_file(f)
    env.run(until=stage_file(f, pfs, pfs))
    assert env.now == 0.0


def test_stage_already_present_is_noop(setup):
    env, plat, pfs, bb = setup
    f = File("f", 100 * MB)
    pfs.add_file(f)
    bb.add_file(f)
    env.run(until=stage_file(f, pfs, bb))
    assert env.now == 0.0


def test_stage_to_onnode_bb():
    env = des.Environment()
    plat = Platform(env, summit_spec())
    pfs = ParallelFileSystem(plat)
    bb = OnNodeBurstBuffer(plat, local_bb_host("cn0"))
    f = File("f", 100 * MB)
    pfs.add_file(f)
    env.run(until=stage_file(f, pfs, bb))
    # PFS read at 100 MB/s dominates → ~1 s.
    assert env.now == pytest.approx(1.0, rel=1e-3)
    assert bb.contains(f)


def test_stage_reserves_capacity(setup):
    env, plat, pfs, bb = setup
    from repro.storage import InsufficientStorage

    f = File("huge", 13e12)  # larger than both BB nodes combined (12.8 TB)
    pfs.add_file(f)
    with pytest.raises(InsufficientStorage):
        stage_file(f, pfs, bb)
