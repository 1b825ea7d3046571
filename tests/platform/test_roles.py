"""Tests for explicit host roles."""

import pytest

from repro.platform import (
    DiskSpec,
    HostRole,
    HostSpec,
    PlatformSpec,
    platform_from_json,
    platform_to_json,
)
from repro.platform.presets import cori_spec, summit_spec


def host(name, **kwargs):
    return HostSpec(name=name, cores=4, core_speed=1e9, **kwargs)


# ----------------------------------------------------------------------
# HostSpec role field
# ----------------------------------------------------------------------
def test_role_accepts_strings():
    assert host("n0", role="compute").role is HostRole.COMPUTE


def test_attached_to_requires_local_bb_role():
    with pytest.raises(ValueError, match="attached_to is only meaningful"):
        host("n0", role=HostRole.COMPUTE, attached_to="n1")


def test_attached_to_must_reference_existing_host():
    with pytest.raises(ValueError, match="unknown host"):
        PlatformSpec(
            "p",
            hosts=[host("buf", role=HostRole.LOCAL_BB, attached_to="ghost")],
        )


def test_hosts_with_role_and_has_roles():
    spec = PlatformSpec(
        "p",
        hosts=[
            host("worker", role="compute"),
            host("store", role="pfs"),
            host("nameless"),
        ],
    )
    assert [h.name for h in spec.hosts_with_role("compute")] == ["worker"]
    assert not spec.has_roles


# ----------------------------------------------------------------------
# The simulator reads roles, never host names
# ----------------------------------------------------------------------
def test_infer_host_roles_rejects_uninferrable_names():
    """Every role-less host is named in the error, including one whose
    name looks like a compute node's."""
    from repro.api import simulate
    from repro.workflow.swarp import make_swarp

    spec = PlatformSpec(
        "p", hosts=[host("login1"), host("cn0"), host("pfs", role="pfs")]
    )
    with pytest.raises(ValueError, match="without a role: login1, cn0;"):
        simulate(spec, make_swarp())


# ----------------------------------------------------------------------
# Presets and serialization
# ----------------------------------------------------------------------
def test_presets_declare_explicit_roles():
    for spec in (cori_spec(n_compute=2, n_bb_nodes=1), summit_spec(n_compute=2)):
        assert spec.has_roles, spec.name
    summit = summit_spec(n_compute=1)
    assert summit.host("cn0-bb").attached_to == "cn0"


def test_roles_round_trip_through_json(tmp_path):
    spec = PlatformSpec(
        "p",
        hosts=[
            host("worker", role="compute"),
            HostSpec(
                name="buf",
                cores=1,
                core_speed=1e9,
                role=HostRole.LOCAL_BB,
                attached_to="worker",
                disks=(DiskSpec("nvme", 1e9, 1e9),),
            ),
            host("legacy"),  # role=None must survive a round-trip too
        ],
    )
    path = tmp_path / "platform.json"
    platform_to_json(spec, path)
    loaded = platform_from_json(path)
    assert loaded.host("worker").role is HostRole.COMPUTE
    assert loaded.host("buf").role is HostRole.LOCAL_BB
    assert loaded.host("buf").attached_to == "worker"
    assert loaded.host("legacy").role is None
