"""Registry entries for the whole-program rules (SIM1xx/SIM2xx).

A taint chain is not computable from one AST, so these rules keep the
empty per-file ``check``; their findings come from the analyses in
:mod:`repro.lint.semantic`, run by the same
:class:`~repro.lint.checker.Checker` pass.  Severity, summary and fix
hint come from here like every other rule's.
"""

from __future__ import annotations

from repro.lint.diagnostics import Severity
from repro.lint.rules import Rule, register


@register
class TaintReachesSink(Rule):
    id = "SIM100"
    summary = "nondeterministic value reaches a DES-visible sink"
    rationale = (
        "Set iteration order, unsorted directory listings, the wall clock, "
        "and id() all vary between runs; once such a value reaches event "
        "scheduling, trace export, or cache-key construction, traces stop "
        "being bit-identical and parallel sweeps silently diverge from "
        "serial.  Reported with the full call-graph propagation chain."
    )
    severity = Severity.ERROR
    fix_hint = "pin an order at the source (sorted(...) with an explicit key) or launder before the sink"


@register
class UnsortedFsEnumeration(Rule):
    id = "SIM101"
    summary = "unsorted filesystem enumeration iterated directly"
    rationale = (
        "os.listdir/Path.iterdir/glob return entries in filesystem order, "
        "which differs across machines and runs; any loop over them bakes "
        "that order into results."
    )
    severity = Severity.ERROR
    fix_hint = "wrap the enumeration in sorted()"


@register
class IdKeyedOrdering(Rule):
    id = "SIM102"
    summary = "ordering keyed on id()"
    rationale = (
        "id() is a memory address: sorting or tie-breaking on it orders by "
        "allocator accident, not simulation state."
    )
    severity = Severity.ERROR
    fix_hint = "key on a stable attribute (name, sequence number) instead"


@register
class UnorderedReduction(Rule):
    id = "SIM103"
    summary = "order-sensitive reduction over an unordered collection"
    rationale = (
        "Float addition and string joins do not commute; sum()/''.join() "
        "over a set yields hash-order-dependent results."
    )
    severity = Severity.WARNING
    fix_hint = "reduce over sorted(...) input"


@register
class CrossDimensionArithmetic(Rule):
    id = "SIM201"
    summary = "cross-dimension arithmetic or comparison"
    rationale = (
        "Bytes, seconds, bytes/s, flops, cores, and granules are all bare "
        "floats; adding or comparing across dimensions is silently wrong "
        "and indistinguishable from modeling error in validation plots."
    )
    severity = Severity.ERROR
    fix_hint = "convert explicitly (divide by a bandwidth, multiply by a duration) before mixing"


@register
class BareMagnitudeArgument(Rule):
    id = "SIM202"
    summary = "bare magnitude passed to a dimension-typed parameter"
    rationale = (
        "A literal like 3000000 passed to a bytes- or seconds-typed "
        "parameter hides its unit; 3 * units.MB cannot be misread."
    )
    severity = Severity.WARNING
    fix_hint = "build the magnitude from repro.platform.units constants"
