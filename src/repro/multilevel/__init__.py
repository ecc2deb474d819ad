"""Multilevel coarsen–solve–refine front-end.

Scales the Theorem-1 pipeline to million-vertex instances: vectorised
heavy-edge-matching coarsening (:mod:`repro.multilevel.coarsen`), the
unchanged staged engine on the coarsest graph, and hierarchy-aware FM
refinement on the way back up (:mod:`repro.multilevel.frontend`).

Configured by :class:`repro.core.config.MultilevelConfig` (re-exported
here); enable via ``SolverConfig(multilevel=MultilevelConfig(enabled=True))``
or ``repro solve --multilevel``.
"""

from repro.core.config import MultilevelConfig
from repro.multilevel.coarsen import (
    CoarsenStats,
    CoarseningHierarchy,
    coarsen_graph,
)
from repro.multilevel.frontend import solve_multilevel

__all__ = [
    "MultilevelConfig",
    "CoarsenStats",
    "CoarseningHierarchy",
    "coarsen_graph",
    "solve_multilevel",
]
