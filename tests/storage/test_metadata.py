"""Tests for metadata-server serialization in storage services."""

import pytest

from repro import des
from repro.platform import Platform
from repro.platform.presets import cori_spec
from repro.platform.units import MB
from repro.storage import BBMode, ParallelFileSystem, SharedBurstBuffer
from repro.workflow import File


def setup(metadata_time=0.5, parallelism=1):
    env = des.Environment()
    plat = Platform(env, cori_spec(n_compute=1, n_bb_nodes=1))
    pfs = ParallelFileSystem(
        plat, metadata_service_time=metadata_time,
    )
    return env, plat, pfs


def test_metadata_validation():
    env = des.Environment()
    plat = Platform(env, cori_spec())
    with pytest.raises(ValueError):
        ParallelFileSystem(plat, metadata_service_time=-1)


def test_single_op_pays_service_time():
    env, plat, pfs = setup(metadata_time=0.5)
    f = File("f", 100 * MB)
    env.run(until=pfs.write(f, src_host="cn0"))
    # 0.5 s metadata + 1 s transfer at the 100 MB/s disk.
    assert env.now == pytest.approx(1.5, rel=1e-6)



def test_gated_op_fails_with_its_transfer(monkeypatch):
    env, plat, pfs = setup(metadata_time=0.5)
    monkeypatch.setattr(
        plat, "write_to_disk",
        lambda *args, **kwargs: env.event().fail(OSError("disk lost")),
    )
    done = pfs.write(File("f", MB), src_host="cn0")
    with pytest.raises(OSError, match="disk lost"):
        env.run(until=done)
    assert not done.ok
    assert env.now == pytest.approx(0.5)

def test_concurrent_ops_queue_on_metadata():
    """Unlike per-op latency, metadata time SERIALIZES: 4 concurrent
    writes pay 4 × 0.5 s of metadata back to back."""
    env, plat, pfs = setup(metadata_time=0.5)
    files = [File(f"f{i}", 1) for i in range(4)]  # ~zero transfer time
    done = env.all_of([pfs.write(f, src_host="cn0") for f in files])
    env.run(until=done)
    assert env.now == pytest.approx(2.0, rel=1e-3)


def test_metadata_parallelism_divides_queueing():
    env = des.Environment()
    plat = Platform(env, cori_spec())
    pfs = ParallelFileSystem(plat)
    from repro.storage.base import StorageService

    # Shared BB with a 2-wide metadata server.
    bb = SharedBurstBuffer(
        plat,
        ["bb0"],
        BBMode.STRIPED,
        metadata_service_time=0.5,
    )
    bb._metadata.capacity  # smoke: the resource exists
    files = [File(f"f{i}", 1) for i in range(4)]
    env.run(until=env.all_of([bb.write(f, src_host="cn0") for f in files]))
    serial_time = env.now

    env2 = des.Environment()
    plat2 = Platform(env2, cori_spec())
    bb2 = SharedBurstBuffer(
        plat2,
        ["bb0"],
        BBMode.STRIPED,
        metadata_service_time=0.5,
    )
    bb2._metadata = None  # disable the gate
    bb2.metadata_service_time = 0.0
    env2.run(until=env2.all_of([bb2.write(f, src_host="cn0") for f in files]))
    assert env2.now < serial_time


def test_zero_metadata_means_no_gate():
    env, plat, pfs = setup(metadata_time=0.0)
    assert pfs._metadata is None
    f = File("f", 100 * MB)
    env.run(until=pfs.write(f, src_host="cn0"))
    assert env.now == pytest.approx(1.0, rel=1e-6)


def test_metadata_gate_applies_to_reads_too():
    env, plat, pfs = setup(metadata_time=0.25)
    f = File("f", 1)
    pfs.add_file(f)
    env.run(until=pfs.read(f, dest_host="cn0"))
    assert env.now == pytest.approx(0.25, rel=1e-3)
