"""repro.lint.semantic — the whole-program analyses.

Where a per-file rule sees one AST, these see the project: the
:class:`~repro.lint.checker.Checker` builds one symbol table and call
graph from the trees it already parsed, and runs two
interprocedural analyses over them to a fixpoint:

* **determinism taint** (SIM100-series) — nondeterminism sources
  (unsorted set iteration, unsorted directory listings, wall clock,
  global RNG, ``id()``-keyed ordering) are propagated along the call
  graph; any tainted value reaching DES-visible state (event
  scheduling, trace export, cache-key construction) is reported with
  the full propagation chain;
* **unit/dimension dataflow** (SIM200-series) — physical dimensions
  (bytes, seconds, bytes/s, flops, cores, granules) are inferred from
  :mod:`repro.platform.units` constants and naming conventions, then
  propagated through assignments, arithmetic, and calls; cross-
  dimension addition/comparison and bare magnitudes flowing into
  dimension-typed parameters are flagged.

Also here: file discovery and module naming (:mod:`.modgraph`).
"""
