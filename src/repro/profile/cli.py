"""``repro-profile``: inspect and diff critical-path profiles.

One argument prints a run's makespan attribution; two arguments diff
them and explain which resource's critical-path share moved::

    repro-profile telemetry/run_a/              # summary table
    repro-profile run_a/ run_b/                 # diff + explanation
    repro-profile trace.json --flamegraph p.folded

An argument may be a telemetry directory containing ``profile.json``
(as written by ``export_run``/``repro-simulate --profile``), a
``profile.json`` file, or a raw execution-trace JSON — traces are
profiled on the fly (resource waits then show as ``wait:unattributed``
because the trace alone does not record wait causes).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.profile.build import build_profile
from repro.profile.diff import diff_profiles
from repro.profile.flamegraph import write_flamegraph
from repro.profile.model import Profile, ProfileError, read_profile


def load_profile(path: "str | Path") -> Profile:
    """Resolve a CLI argument to a validated :class:`Profile`."""
    path = Path(path)
    if path.is_dir():
        candidate = path / "profile.json"
        if not candidate.is_file():
            raise ProfileError(f"{path}: no profile.json in directory")
        return read_profile(candidate)
    if not path.is_file():
        raise ProfileError(f"{path}: no such file or directory")
    doc = json.loads(path.read_text())
    if isinstance(doc, dict) and "schema" in doc:
        return Profile.from_doc(doc)
    if isinstance(doc, dict) and ("events" in doc or "tasks" in doc):
        from repro.traces.events import ExecutionTrace

        return build_profile(ExecutionTrace.from_json(doc))
    raise ProfileError(f"{path}: neither a profile.json nor an execution trace")


def _print_summary(profile: Profile, top: int) -> None:
    print(f"workflow:  {profile.workflow or '(unnamed)'}")
    print(f"makespan:  {profile.makespan:.3f} s")
    print(f"dominant:  {profile.dominant_resource} ({profile.dominant_class}-bound)")
    print(f"segments:  {len(profile.critical_path)}")
    print()
    print(f"{'resource':<28} {'seconds':>12} {'share':>8}")
    ranked = sorted(
        profile.attribution.items(), key=lambda kv: (-kv[1], kv[0])
    )
    for resource, seconds in ranked[:top]:
        share = profile.shares.get(resource, 0.0)
        print(f"{resource:<28} {seconds:>12.3f} {100 * share:>7.1f}%")
    if len(ranked) > top:
        rest = sum(seconds for _, seconds in ranked[top:])
        print(f"{'(other)':<28} {rest:>12.3f}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-profile",
        description="Inspect or diff critical-path profiles "
        "(profile.json, telemetry directories, or raw traces).",
    )
    parser.add_argument("before", help="profile/telemetry dir/trace to inspect")
    parser.add_argument(
        "after",
        nargs="?",
        help="second run: print the diff and its explanation instead",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    parser.add_argument(
        "--flamegraph",
        metavar="PATH",
        help="also write folded stacks for the (first) run to PATH",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=12,
        metavar="N",
        help="rows of the attribution table to print (default 12)",
    )
    args = parser.parse_args(argv)

    try:
        before = load_profile(args.before)
        after = load_profile(args.after) if args.after else None
    except (ProfileError, json.JSONDecodeError, OSError) as error:
        print(f"repro-profile: {error}", file=sys.stderr)
        return 1

    if args.flamegraph:
        write_flamegraph(before, args.flamegraph)

    if after is None:
        if args.json:
            print(json.dumps(before.to_doc(), indent=2))
        else:
            _print_summary(before, args.top)
        return 0

    diff = diff_profiles(before, after)
    if args.json:
        print(json.dumps(diff.to_doc(), indent=2))
    else:
        print(diff.explain())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
