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
    FactorizationReport,
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
    SmithDecomposition,
    integer_kernel,
    smith_normal_form,
)
from .modp import ModpSubspace, kernel, row_space
from .randgraph import mirror_grid, random_multigraph, random_symmetric_graph

__all__ = [
    "AXIS_VERTEX",
    "AdjointPair",
    "Decomposition",
    "Edge",
    "FIXED",
    "FactorizationReport",
    "FpAbelianGroup",
    "GroupHom",
    "IntMatrix",
    "InvalidSymmetricGraph",
    "LEFT",
    "ModpSubspace",
    "Multigraph",
    "ParseError",
    "RIGHT",
    "SmithDecomposition",
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
    "integer_kernel",
    "kernel",
    "main_theorem_verdict",
    "mirror_grid",
    "parse",
    "parse_plain",
    "random_multigraph",
    "random_symmetric_graph",
    "row_space",
    "serialize",
    "smith_normal_form",
    "snake_dimension_report",
    "subdivision_vertex",
    "two_torsion_check",
    "verify_lattice_preservation",
]
