"""Tests for the fat-tree and dragonfly topology generators."""

import pytest

from repro import des
from repro.platform import Platform
from repro.platform.topologies import NodeConfig, build_dragonfly, build_fat_tree
from repro.platform.units import GB


# ----------------------------------------------------------------------
# Fat-tree
# ----------------------------------------------------------------------
def test_fat_tree_structure():
    spec = build_fat_tree(pods=2, nodes_per_pod=3)
    compute = spec.hosts_with_role("compute")
    assert len(compute) == 6
    assert spec.has_roles
    assert spec.hosts_with_role("pfs") == [spec.host("pfs")]
    link_names = {l.name for l in spec.links}
    assert {"pod0-up", "pod1-up", "core-trunk"} <= link_names


def test_fat_tree_same_pod_route_stays_local():
    spec = build_fat_tree(pods=2, nodes_per_pod=3)
    route = next(r for r in spec.routes if (r.src, r.dst) == ("cn0", "cn1"))
    assert "core-trunk" not in route.link_names


def test_fat_tree_cross_pod_route_uses_trunk():
    spec = build_fat_tree(pods=2, nodes_per_pod=3)
    route = next(r for r in spec.routes if (r.src, r.dst) == ("cn0", "cn3"))
    assert "core-trunk" in route.link_names
    assert "pod0-up" in route.link_names and "pod1-up" in route.link_names


def test_fat_tree_full_bisection_has_no_trunk_bottleneck():
    """At oversubscription 1, simultaneous cross-pod pairs all get full
    link bandwidth."""
    spec = build_fat_tree(pods=2, nodes_per_pod=2, link_bandwidth=10 * GB)
    env = des.Environment()
    plat = Platform(env, spec)
    # cn0→cn2 and cn1→cn3 simultaneously, 10 GB each.
    done = env.all_of(
        [
            plat.network.transfer(10 * GB, list(plat.route("cn0", "cn2"))),
            plat.network.transfer(10 * GB, list(plat.route("cn1", "cn3"))),
        ]
    )
    env.run(until=done)
    assert env.now == pytest.approx(1.0, rel=1e-3)


def test_fat_tree_oversubscription_bottlenecks_trunk():
    spec = build_fat_tree(
        pods=2, nodes_per_pod=2, link_bandwidth=10 * GB, core_oversubscription=2.0
    )
    env = des.Environment()
    plat = Platform(env, spec)
    done = env.all_of(
        [
            plat.network.transfer(10 * GB, list(plat.route("cn0", "cn2"))),
            plat.network.transfer(10 * GB, list(plat.route("cn1", "cn3"))),
        ]
    )
    env.run(until=done)
    # Trunk = 40/2 = 20 GB/s for 2×10 GB/s demand... that still fits;
    # with 2 flows of 10 GB each sharing 20 GB/s trunk they both finish
    # in 1 s; raise oversubscription effect by 4 flows instead.
    assert env.now >= 1.0

    spec4 = build_fat_tree(
        pods=2, nodes_per_pod=4, link_bandwidth=10 * GB, core_oversubscription=4.0
    )
    env4 = des.Environment()
    plat4 = Platform(env4, spec4)
    done4 = env4.all_of(
        [
            plat4.network.transfer(
                10 * GB, list(plat4.route(f"cn{i}", f"cn{i + 4}"))
            )
            for i in range(4)
        ]
    )
    env4.run(until=done4)
    # Trunk = 80/4 = 20 GB/s shared by 4 flows → 5 GB/s each → 2 s.
    assert env4.now == pytest.approx(2.0, rel=1e-3)


def test_fat_tree_validation():
    with pytest.raises(ValueError):
        build_fat_tree(pods=0)
    with pytest.raises(ValueError):
        build_fat_tree(core_oversubscription=0.5)


# ----------------------------------------------------------------------
# Dragonfly
# ----------------------------------------------------------------------
def test_dragonfly_structure():
    spec = build_dragonfly(groups=3, nodes_per_group=2)
    assert len(spec.hosts_with_role("compute")) == 6
    assert spec.has_roles
    link_names = {l.name for l in spec.links}
    assert {"g0-rail", "g1-rail", "g2-rail"} <= link_names
    assert {"global-0-1", "global-0-2", "global-1-2"} <= link_names


def test_dragonfly_intra_group_route():
    spec = build_dragonfly(groups=2, nodes_per_group=2)
    route = next(r for r in spec.routes if (r.src, r.dst) == ("cn0", "cn1"))
    assert list(route.link_names) == ["g0-rail"]


def test_dragonfly_cross_group_uses_global_link():
    spec = build_dragonfly(groups=2, nodes_per_group=2)
    route = next(r for r in spec.routes if (r.src, r.dst) == ("cn0", "cn2"))
    assert "global-0-1" in route.link_names


def test_dragonfly_global_links_are_the_bottleneck():
    """Two cross-group flows share ONE global link (minimal routing) and
    run at half rate, while intra-group flows stream at full rate."""
    spec = build_dragonfly(
        groups=2, nodes_per_group=2,
        local_bandwidth=10 * GB, global_bandwidth=5 * GB,
    )
    env = des.Environment()
    plat = Platform(env, spec)
    done = env.all_of(
        [
            plat.network.transfer(5 * GB, list(plat.route("cn0", "cn2"))),
            plat.network.transfer(5 * GB, list(plat.route("cn1", "cn3"))),
        ]
    )
    env.run(until=done)
    # 2 × 5 GB over one 5 GB/s global link → 2 s.
    assert env.now == pytest.approx(2.0, rel=1e-3)


def test_dragonfly_pfs_reached_through_group_zero():
    spec = build_dragonfly(groups=3, nodes_per_group=2)
    route = next(r for r in spec.routes if (r.src, r.dst) == ("cn4", "pfs"))
    assert "global-0-2" in route.link_names
    assert "g0-rail" in route.link_names


def test_dragonfly_validation():
    with pytest.raises(ValueError):
        build_dragonfly(groups=1)
    with pytest.raises(ValueError):
        build_dragonfly(groups=2, nodes_per_group=0)


def test_topologies_run_workflows():
    """Both fabrics execute a real workflow end to end."""
    from repro.compute import ComputeService
    from repro.storage import ParallelFileSystem
    from repro.wms import RoundRobinScheduler, WorkflowEngine
    from repro.workflow.synthetic import make_fork_join

    for spec in (build_fat_tree(2, 2), build_dragonfly(2, 2)):
        env = des.Environment()
        plat = Platform(env, spec)
        hosts = [h.name for h in spec.hosts_with_role("compute")]
        engine = WorkflowEngine(
            plat,
            make_fork_join(6),
            ComputeService(plat, hosts),
            ParallelFileSystem(plat),
            host_assignment=RoundRobinScheduler(),
        )
        trace = engine.run()
        assert len(trace.records) == 8


def test_node_config_applied():
    spec = build_fat_tree(1, 2, node=NodeConfig(cores=64, core_speed=1e9))
    assert spec.host("cn0").cores == 64
    assert spec.host("cn0").core_speed == 1e9
