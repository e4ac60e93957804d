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
"""

from __future__ import annotations

from repro.devtools.hippoflow.cfg import (
    CFG,
    Block,
    Element,
    WithEnter,
    WithExit,
    build_cfg,
    may_raise,
)
from repro.devtools.hippoflow.dataflow import (
    Domain,
    State,
    analyze,
    flow_block,
    replay,
)
from repro.devtools.hippoflow.domains import (
    AcquisitionSpec,
    LockDomain,
    LockState,
    Resource,
    ResourceDomain,
    ResourceState,
    TaintDomain,
)
# Deliberately no re-export of ``layering``: the module doubles as a
# ``python -m`` CLI, and importing it here would make runpy warn about
# the double import on every standalone run.

__all__ = [
    "CFG",
    "Block",
    "Element",
    "WithEnter",
    "WithExit",
    "build_cfg",
    "may_raise",
    "Domain",
    "State",
    "analyze",
    "flow_block",
    "replay",
    "AcquisitionSpec",
    "LockDomain",
    "LockState",
    "Resource",
    "ResourceDomain",
    "ResourceState",
    "TaintDomain",
]
