"""Command-line interface: ``repro-experiments`` / ``python -m repro.experiments``.

The one command that regenerates the paper's tables and figures; every
figure runs as a sweep through :mod:`repro.sweep`::

    python -m repro.experiments fig13 --quick --workers 4   # parallel, cached
    python -m repro.experiments fig13 --quick --workers 4   # re-run: cache read
    python -m repro.experiments all --quick --no-cache
    python -m repro.experiments fig13 --list-points         # show the spec

Caching is on by default (``results/.cache/``); ``--no-cache`` disables
it and ``--cache-dir`` relocates it.  ``--obs-dir`` namespaces
per-point telemetry into ``<obs-dir>/<id>/<point-id>/``, ``--live``
streams progress into ``<live>/<id>/`` for ``repro-obs watch``, and
``--stats-json`` exports each campaign's counters (points run, cached
and failed, wall time, point-latency histogram).
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments import ALL_EXPERIMENTS
from repro.sweep import DEFAULT_CACHE_DIR, SweepError, SweepOptions, SweepTelemetry


def run_experiment(
    experiment_id: str,
    quick: bool = False,
    sweep: Optional[SweepOptions] = None,
    config=None,
):
    """Import and run one experiment module; returns its result.

    ``config`` (anything :meth:`repro.Config.from_any` accepts) is
    forwarded to experiment modules whose ``run`` declares a ``config``
    parameter — currently the simulation sweeps (fig13, fig14); any
    other experiment raises ``ValueError`` when given one.
    """
    if experiment_id not in ALL_EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; "
            f"choose from {', '.join(ALL_EXPERIMENTS)}"
        )
    module = importlib.import_module(f"repro.experiments.{experiment_id}")
    return module.run(
        **_with_config(
            module.run, {"quick": quick, "sweep": sweep}, config, experiment_id
        )
    )


def render_point_profiles(obs_dir: Path) -> str:
    """A per-point critical-path summary table for one experiment.

    Reads every ``<point-id>/profile.json`` below ``obs_dir`` (the
    layout the sweep runner's obs namespacing produces) and tabulates
    makespan, dominant resource, and its share — a one-look answer to
    "where does the plateau start?".
    """
    from repro.profile import read_profile

    lines = ["per-point critical-path profiles:"]
    lines.append(f"  {'point':<44} {'makespan':>10} {'dominant':<24} share")
    found = False
    for profile_path in sorted(obs_dir.glob("*/profile.json")):
        found = True
        profile = read_profile(profile_path)
        dominant = profile.dominant_resource
        share = profile.shares.get(dominant, 0.0)
        lines.append(
            f"  {profile_path.parent.name:<44} {profile.makespan:>9.2f}s "
            f"{dominant:<24} {100 * share:>5.1f}%"
        )
    if not found:
        lines.append("  (no <point>/profile.json files found)")
    return "\n".join(lines)


def takes_config(experiment_id: str) -> bool:
    """Whether the experiment's ``run`` declares a ``config`` parameter."""
    module = importlib.import_module(f"repro.experiments.{experiment_id}")
    return "config" in inspect.signature(module.run).parameters


def _with_config(func, kwargs: dict, config, experiment_id: str) -> dict:
    """``kwargs`` plus ``config=`` when one is given; ``func`` must take it."""
    if config is None:
        return kwargs
    if "config" not in inspect.signature(func).parameters:
        raise ValueError(f"experiment {experiment_id!r} does not take a config")
    return {**kwargs, "config": config}


def list_points(experiment_id: str, quick: bool, config=None) -> None:
    """Print one experiment's sweep spec; experiments without one print nothing."""
    module = importlib.import_module(f"repro.experiments.{experiment_id}")
    if not hasattr(module, "sweep_spec"):
        return
    spec = module.sweep_spec(
        **_with_config(module.sweep_spec, {"quick": quick}, config, experiment_id)
    )
    print(f"{spec.sweep_id} ({len(spec)} points, version {spec.version}):")
    for pid in spec.points_by_id():
        print(f"  {pid}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the burst-buffer "
        "workflow paper (Pottier et al., CLUSTER 2020) through the "
        "deterministic parallel sweep engine (repro.sweep).",
    )
    add = parser.add_argument
    add("experiments", nargs="+",
        help=f"experiment ids ({', '.join(ALL_EXPERIMENTS)}) or 'all'")
    add("--quick", action="store_true",
        help="reduced trial counts and sweep densities (same shapes)")
    add("--list-points", action="store_true",
        help="print each sweep spec's point ids and exit (runs nothing)")
    add("--output-dir",
        help="also write <id>.json and <id>.csv into this directory")
    add("--obs-dir",
        help="write a provenance manifest per experiment "
        "(<id>.manifest.json) plus per-point telemetry directories "
        "(<id>/<point-id>/, collision fails fast) into this directory")
    add("--profile", action="store_true",
        help="after an --obs-dir run, summarize each point's critical-path "
        "profile (dominant resource per point, from <point>/profile.json)")
    add("--live",
        help="stream sweep progress into <LIVE>/<id>/ "
        "(tail with `repro-obs watch`)")
    add("--stats-json",
        help="write each experiment's sweep telemetry (points run, cached "
        "and failed, wall time, point latency) to this JSON file")
    add("--network-allocator",
        help="bandwidth-sharing discipline for the simulation sweeps "
        "(fig13/fig14); non-default choices become part of each "
        "point's identity and cache key")
    add("--workers", type=int, default=1,
        help="worker processes per sweep (1 = run in-process; default 1)")
    add("--cache-dir", default=str(DEFAULT_CACHE_DIR),
        help=f"content-addressed point cache directory (default {DEFAULT_CACHE_DIR})")
    add("--no-cache", action="store_true",
        help="recompute every point; neither read nor write the cache")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    config = None
    if args.network_allocator:
        from repro.config import Config
        from repro.network import allocator_names

        if args.network_allocator not in allocator_names():
            print(
                f"error: unknown --network-allocator {args.network_allocator!r}; "
                f"choose from {', '.join(allocator_names())}",
                file=sys.stderr,
            )
            return 2
        config = Config(network_allocator=args.network_allocator)

    requested = list(args.experiments)
    run_all = requested == ["all"]
    if run_all:
        requested = list(ALL_EXPERIMENTS)
    unknown = [e for e in requested if e not in ALL_EXPERIMENTS]
    if unknown:
        print(
            f"error: unknown experiment(s) {', '.join(unknown)}; "
            f"choose from {', '.join(ALL_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2

    # A config flag reaches the experiments that take one; `all` runs
    # the rest with their defaults, while naming one of the rest is an
    # error found before anything runs.
    configs = {e: config for e in requested}
    if config is not None:
        configs = {e: config if takes_config(e) else None for e in requested}
        rejected = [e for e, c in configs.items() if c is None]
        if rejected and not run_all:
            takers = [e for e in ALL_EXPERIMENTS if takes_config(e)]
            print(
                f"error: --network-allocator applies only to "
                f"{', '.join(takers)}, not to {', '.join(rejected)}",
                file=sys.stderr,
            )
            return 2

    if args.list_points:
        for experiment_id in requested:
            list_points(experiment_id, args.quick, configs[experiment_id])
        return 0

    stats: dict[str, dict] = {}
    for experiment_id in requested:
        # Harness-side progress timing (how long the *harness* took, not
        # anything simulated), so the wall clock is the right clock.
        start = time.time()  # lint: ignore[SIM001]
        telemetry = SweepTelemetry(experiment_id)
        obs_dir = Path(args.obs_dir) / experiment_id if args.obs_dir else None
        sweep = SweepOptions(
            workers=args.workers,
            cache_dir=None if args.no_cache else Path(args.cache_dir),
            obs_dir=obs_dir,
            live_dir=Path(args.live) / experiment_id if args.live else None,
            telemetry=telemetry,
        )
        try:
            result = run_experiment(
                experiment_id,
                quick=args.quick,
                sweep=sweep,
                config=configs[experiment_id],
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        except SweepError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(result.render())
        if args.output_dir:
            out = Path(args.output_dir)
            out.mkdir(parents=True, exist_ok=True)
            result.to_json(out / f"{experiment_id}.json")
            result.to_csv(out / f"{experiment_id}.csv")
        if args.obs_dir:
            from repro.obs import build_manifest, write_manifest

            manifest = build_manifest(
                extra={"experiment": experiment_id, "quick": bool(args.quick)}
            )
            write_manifest(
                manifest, Path(args.obs_dir) / f"{experiment_id}.manifest.json"
            )
        if args.profile and obs_dir is not None and obs_dir.is_dir():
            print(render_point_profiles(obs_dir))
        elapsed = time.time() - start  # lint: ignore[SIM001]
        snap = stats[experiment_id] = telemetry.snapshot()
        counters = snap["counters"]
        print(
            f"\n[{experiment_id}: {snap['gauges']['sweep.points_total']:.0f} points — "
            f"{counters['sweep.points_completed']:.0f} ran, "
            f"{counters['sweep.points_cached']:.0f} cached, "
            f"{counters['sweep.points_failed']:.0f} failed — "
            f"{elapsed:.1f}s wall]\n"
        )

    if args.stats_json:
        path = Path(args.stats_json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
