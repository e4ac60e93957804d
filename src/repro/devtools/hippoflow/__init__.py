"""Flow-sensitive analysis toolkit behind hippolint's HL013-HL016.

Layers, bottom up:

* :mod:`repro.devtools.hippoflow.cfg` -- per-function control-flow
  graphs over :mod:`ast`, with explicit exception edges and
  ``with``/``finally`` cleanup regions.
* :mod:`repro.devtools.hippoflow.dataflow` -- a worklist fixpoint
  engine parameterized by pluggable abstract domains.
* :mod:`repro.devtools.hippoflow.domains` -- resource/ownership state
  machines, lock-held tracking, and string interpolation taint.
* :mod:`repro.devtools.hippoflow.layering` -- the import-graph layer
  contract and cycle detection (also a standalone CLI).

Nothing in this package imports the ``repro`` runtime it analyzes --
the ``devtools`` layer of the contract in
:data:`~repro.devtools.hippoflow.layering.LAYERS` enforces that.
Import from the submodules; the package re-exports nothing.
"""
