"""Shared infrastructure for the experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.experiments.configs import CONFIGS_BY_LABEL
from repro.model.equations import sequential_compute_time
from repro.platform.presets import TABLE_I
from repro.scenarios import run_swarp
from repro.sweep import SweepOptions
from repro.workflow.calibration import COMBINE_LAMBDA_IO, RESAMPLE_LAMBDA_IO

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sweep import SweepSpec


def sweep_values(
    spec: "SweepSpec", sweep: Optional[SweepOptions] = None
) -> dict[str, Any]:
    """Run a figure's sweep; return point id → value.

    Every figure harness funnels through here, so one engine decides
    workers, caching and telemetry for all of them.  With no
    options this is the serial, uncached path — bit-identical to any
    parallel run of the same spec.
    """
    options = sweep if sweep is not None else SweepOptions()
    return options.run(spec).values()


@dataclass(frozen=True)
class CalibratedSwarp:
    """Eq. (4)-calibrated SWarp task work for one system.

    Produced by :func:`calibrate_swarp`: the observed PFS baseline is
    measured on the *emulated* platform (standing in for the paper's
    real characterization runs), together with each task's observed I/O
    fraction λ_io — the same two quantities the paper takes from its
    measurements and from Daley et al. [24].
    """

    system: str
    cores: int
    observed_resample_t: float
    observed_combine_t: float
    lambda_resample: float
    lambda_combine: float
    resample_flops: float
    combine_flops: float


@lru_cache(maxsize=None)
def calibrate_swarp(system: str, cores: int = 32) -> CalibratedSwarp:
    """Characterize-and-calibrate, per the paper's Section IV-A.

    Runs the emulated PFS baseline (no files in the BB — the
    configuration λ_io is traditionally characterized in) at ``cores``
    cores, measures each task's observed execution time and I/O
    fraction, then applies Eq. (4) — ``T_c(1) = p (1 − λ_io) T(p)`` — to
    recover the sequential compute time, converting to flops with the
    system's calibrated core speed so the simple simulator can be
    instantiated on either platform.
    """
    reference = run_swarp(
        system=system,
        input_fraction=0.0,
        intermediates_in_bb=False,
        cores_per_task=cores,
        include_stage_in=False,
        emulated=True,
        seed=None,  # noise-free reference
    )
    resample_record = reference.trace.task_record("resample_0")
    combine_record = reference.trace.task_record("combine_0")
    t_resample = resample_record.duration
    t_combine = combine_record.duration
    lambda_resample = resample_record.io_fraction
    lambda_combine = combine_record.io_fraction
    speed = TABLE_I[system]["core_speed"]
    return CalibratedSwarp(
        system=system,
        cores=cores,
        observed_resample_t=t_resample,
        observed_combine_t=t_combine,
        lambda_resample=lambda_resample,
        lambda_combine=lambda_combine,
        resample_flops=sequential_compute_time(t_resample, cores, lambda_resample)
        * speed,
        combine_flops=sequential_compute_time(t_combine, cores, lambda_combine)
        * speed,
    )


@dataclass(frozen=True)
class SwarpTrial:
    """What the SWarp figures read from one run, as plain floats.

    ``stage_in`` is 0.0 for a run without a stage-in task; ``resample``
    and ``combine`` are means over the run's pipelines.
    """

    makespan: float
    stage_in: float
    resample: float
    combine: float


def swarp_trial(
    config: str,
    seed: Optional[int],
    *,
    fraction: float = 1.0,
    intermediates_in_bb: bool = True,
    outputs_in_bb: bool = False,
    pipelines: int = 1,
    cores: int = 32,
    stage_in: bool = False,
) -> SwarpTrial:
    """One SWarp run of the BB configuration labelled ``config``.

    An integer ``seed`` is one emulated trial (the paper's "measured"
    execution); ``None`` is the simple model calibrated by
    :func:`calibrate_swarp` at ``cores`` cores (Figures 10 and 11's
    "simulated" side).  Figures 4–8, 10 and 11 share many runs, so the
    summary is memoized per process: a regeneration runs each distinct
    configuration once and keeps no trace alive.
    """
    return _swarp_trial(
        config, seed, fraction, intermediates_in_bb, outputs_in_bb,
        pipelines, cores, stage_in,
    )


@lru_cache(maxsize=None)
def _swarp_trial(
    config: str,
    seed: Optional[int],
    fraction: float,
    intermediates_in_bb: bool,
    outputs_in_bb: bool,
    pipelines: int,
    cores: int,
    stage_in: bool,
) -> SwarpTrial:
    bb = CONFIGS_BY_LABEL[config]
    if seed is None:
        calibration = calibrate_swarp(bb.system, cores)
        model: dict[str, Any] = {
            "emulated": False,
            "resample_flops": calibration.resample_flops,
            "combine_flops": calibration.combine_flops,
        }
    else:
        model = {"emulated": True, "seed": seed}
    result = run_swarp(
        input_fraction=fraction,
        intermediates_in_bb=intermediates_in_bb,
        outputs_in_bb=outputs_in_bb,
        n_pipelines=pipelines,
        cores_per_task=cores,
        include_stage_in=stage_in,
        **model,
        **bb.scenario_kwargs(),
    )
    return SwarpTrial(
        makespan=result.makespan,
        stage_in=(
            result.trace.task_record("stage_in").duration if stage_in else 0.0
        ),
        resample=result.mean_duration("resample"),
        combine=result.mean_duration("combine"),
    )


swarp_trial.cache_clear = _swarp_trial.cache_clear  # type: ignore[attr-defined]


@dataclass
class ExperimentResult:
    """A table/figure regenerated as structured rows."""

    experiment_id: str
    title: str
    columns: tuple[str, ...]
    rows: list[tuple[Any, ...]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        try:
            index = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r}") from None
        return [row[index] for row in self.rows]

    def to_json(self, path: "str | Path | None" = None) -> str:
        """Serialize rows + notes as JSON (optionally writing ``path``)."""
        import json
        from pathlib import Path

        doc = {
            "experiment": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
            "notes": list(self.notes),
        }
        text = json.dumps(doc, indent=2)
        if path is not None:
            Path(path).write_text(text)
        return text

    def to_csv(self, path: "str | Path | None" = None) -> str:
        """Serialize the rows as CSV (optionally writing ``path``)."""
        import csv
        import io
        from pathlib import Path

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text

    def render(self) -> str:
        """Plain-text table in the style of the paper's reported rows."""
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        header = [f"{self.experiment_id}: {self.title}", ""]
        widths = [
            max(len(c), *(len(fmt(r[i])) for r in self.rows)) if self.rows else len(c)
            for i, c in enumerate(self.columns)
        ]
        header.append(
            "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        )
        header.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            header.append(
                "  ".join(fmt(v).ljust(w) for v, w in zip(row, widths))
            )
        if self.notes:
            header.append("")
            header.extend(f"note: {n}" for n in self.notes)
        return "\n".join(header)
