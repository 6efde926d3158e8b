"""Critical groups of graphs with a mirror involution.

Exact-arithmetic tooling around the factorization of a symmetric
graph's critical group through the derived plus/minus graphs: the
induced map on critical groups, its 2-torsion kernel and cokernel,
their identification with fixed bicycle spaces, and the 2-power order
formula, all verified against brute-force oracles.
"""

__version__ = "0.1.0"

from .critical import (
    AdjointPair,
    bicycle_masks_bruteforce,
    count_maximal_forests_bruteforce,
    forest_count,
)
from .factorization import (
    SymmetryMaps,
    build_maps,
    component_linking_cycles,
    g_injection,
    identify_kernel_cokernel,
    main_theorem_verdict,
    snake_dimension_report,
    two_torsion_check,
    verify_lattice_preservation,
)
from .graphfile import ParseError, parse, parse_plain, serialize
from .graphs import (
    AXIS_VERTEX,
    Decomposition,
    Edge,
    FIXED,
    InvalidSymmetricGraph,
    LEFT,
    Multigraph,
    RIGHT,
    SymmetricGraph,
    half_edges,
    subdivision_vertex,
)
from .lattice import (
    FpAbelianGroup,
    GroupHom,
    IntMatrix,
    smith_normal_form,
)
from .modp import ModpSubspace, kernel
from .randgraph import mirror_grid, random_symmetric_graph

__all__ = [
    "AXIS_VERTEX",
    "AdjointPair",
    "Decomposition",
    "Edge",
    "FIXED",
    "FpAbelianGroup",
    "GroupHom",
    "IntMatrix",
    "InvalidSymmetricGraph",
    "LEFT",
    "ModpSubspace",
    "Multigraph",
    "ParseError",
    "RIGHT",
    "SymmetricGraph",
    "SymmetryMaps",
    "bicycle_masks_bruteforce",
    "build_maps",
    "component_linking_cycles",
    "count_maximal_forests_bruteforce",
    "forest_count",
    "g_injection",
    "half_edges",
    "identify_kernel_cokernel",
    "kernel",
    "main_theorem_verdict",
    "mirror_grid",
    "parse",
    "parse_plain",
    "random_symmetric_graph",
    "serialize",
    "smith_normal_form",
    "snake_dimension_report",
    "subdivision_vertex",
    "two_torsion_check",
    "verify_lattice_preservation",
]
