"""Repair enumeration and checking (ground-truth oracles)."""

from repro.repairs.checker import (
    ground_truth_consistent_answers,
    is_repair,
    satisfies_constraints,
)
from repro.repairs.counting import (
    RepairCount,
    conflict_components,
    count_repairs_exact,
)
from repro.repairs.enumerate import (
    Repair,
    TooManyRepairsError,
    all_repairs,
    maximal_independent_sets,
    repair_restriction,
)

__all__ = [
    "RepairCount",
    "conflict_components",
    "count_repairs_exact",
    "ground_truth_consistent_answers",
    "is_repair",
    "satisfies_constraints",
    "Repair",
    "TooManyRepairsError",
    "all_repairs",
    "maximal_independent_sets",
    "repair_restriction",
]
