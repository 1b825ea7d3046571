"""Command-line interface: ``python -m repro.lint`` / ``repro-lint``.

Exit codes: 0 = clean, 1 = diagnostics reported, 2 = usage error.

One :class:`Checker` pass runs every selected rule: the per-file rules
(SIM0xx) and the whole-program analyses (SIM1xx/SIM2xx) over the same
parse of every file.  ``--baseline`` grandfathers existing findings and
``--format sarif`` emits code-scanning-ready output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.lint.baseline import Baseline, write_baseline
from repro.lint.checker import Checker
from repro.lint.config import LintConfig
from repro.lint.rules import all_rules
from repro.lint.sarif import collect_rule_meta, render_sarif


def _split_ids(values: "list[str] | None") -> "list[str] | None":
    if not values:
        return None
    out: list[str] = []
    for value in values:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return out


def list_rules() -> str:
    """Render the rule catalogue (``--list-rules``)."""
    lines = []
    for rule_id, cls in all_rules().items():
        lines.append(f"{rule_id}  [{cls.severity.value:8s}]  {cls.summary}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Simulation-correctness linter: determinism, unit "
            "consistency, and DES-process hygiene for the repro codebase."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: [tool.repro-lint] "
        "paths, falling back to src/)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    adoption = parser.add_argument_group("incremental adoption")
    adoption.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppress findings recorded in this baseline file",
    )
    adoption.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write all current findings to FILE as a baseline and exit 0",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(list_rules())
        return 0

    config = LintConfig.load()
    select = _split_ids(args.select) or config.select
    ignore = _split_ids(args.ignore) or config.ignore

    try:
        checker = Checker(select=select, ignore=ignore)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    diagnostics = checker.check_paths(list(args.paths) or config.paths)

    if args.write_baseline:
        count = write_baseline(diagnostics, args.write_baseline)
        print(f"wrote {count} baseline entrie(s) to {args.write_baseline}", file=sys.stderr)
        return 0

    baseline_path = args.baseline or config.baseline
    if baseline_path:
        baseline = Baseline.load(baseline_path)
        diagnostics = baseline.filter(diagnostics)
        for rule_id, entry_path, fp in baseline.unused():
            print(
                f"warning: unused baseline entry {rule_id} {entry_path} {fp}",
                file=sys.stderr,
            )

    if args.format == "json":
        print(json.dumps([d.to_dict() for d in diagnostics], indent=2))
    elif args.format == "sarif":
        meta = collect_rule_meta(d.rule_id for d in diagnostics)
        print(render_sarif(diagnostics, meta))
    else:
        for diagnostic in diagnostics:
            print(diagnostic.render())
        if diagnostics:
            print(
                f"\n{len(diagnostics)} finding(s) in "
                f"{len({d.path for d in diagnostics})} file(s)",
                file=sys.stderr,
            )
    return 1 if diagnostics else 0


if __name__ == "__main__":  # pragma: no cover - exercised via -m
    raise SystemExit(main())
