"""Second routes at sizes the oracle never reaches (its walks stop at
2^20 subsets): both fixed-bicycle dimensions from the vertex space,
reports that must not change under relabelling, reordering and
mirroring, and reports of wedges that split into their parts'.  They
run over the generator's draws, and the first two over the 5x5 to
13x13 mirror grids too."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from mirrorcrit.cli import report_document
from mirrorcrit.factorization import build_maps, main_theorem_verdict
from mirrorcrit.graphfile import parse, serialize
from mirrorcrit.randgraph import mirror_grid, random_symmetric_graph

from conftest import (
    CYCLIC_AXIS,
    disconnected_plus,
    empty_axis,
    identity_mirror_triangle,
    mirror_cycle,
    running_example,
)
from second_routes import phi_fixed_bicycle_dim, psi_fixed_bicycle_dim, transformed, wedge

ROUTES = settings(max_examples=150, derandomize=True, database=None, deadline=None)
GRIDS = (5, 7, 9, 11, 13)
# the documents' fields that name the input file and the run
RUN_FIELDS = ("input_path", "input_sha256", "generated_at")


@st.composite
def generator_draws(draw, min_fixed=0):
    """Graphs of the seeded generator, disconnected plus graphs and empty
    axes included (unless `min_fixed` is positive)."""
    params = dict(
        n_left=draw(st.integers(0, 6)),
        n_fixed=draw(st.integers(min_fixed, 4)),
        n_left_edges=draw(st.integers(0, 10)),
        n_fixed_edges=draw(st.integers(0, 3)),
    )
    try:
        return random_symmetric_graph(seed=draw(st.integers(0, 2**32)), **params)
    except ValueError:
        assume(False)


def describe(g) -> dict:
    """The plain-data description `second_routes` reads."""
    return {
        "vertices": [[v, g.vertex_side[v]] for v in g.graph.vertices],
        "edges": [[e.id, e.tail, e.head, g.edge_side[e.id]] for e in g.graph.edges],
        "phi": [[v, g.vertex_involution[v]] for v in g.left_vertices],
    }


class TestFixedBicyclesFromVertexSpace:
    """`maps.phi_bicycles` and `maps.psi_bicycles`, eliminated in the
    edge spaces, against one nullity each over the vertex spaces."""

    @staticmethod
    def check(g):
        maps = build_maps(g.decompose())
        desc = describe(g)
        assert maps.phi_bicycles.dim == phi_fixed_bicycle_dim(desc)
        assert maps.psi_bicycles.dim == psi_fixed_bicycle_dim(desc)

    @ROUTES
    @given(generator_draws())
    def test_generator_draws(self, g):
        self.check(g)

    @pytest.mark.parametrize("n", GRIDS)
    def test_grids(self, n):
        self.check(mirror_grid(n, n))

    def test_named_inputs(self):
        graphs = [
            running_example(), mirror_cycle(4), mirror_cycle(5), identity_mirror_triangle(),
            empty_axis(), disconnected_plus(), parse(CYCLIC_AXIS),
        ]
        for g in graphs:
            self.check(g)
        # both dimensions are nonzero somewhere, so neither is vacuous
        assert build_maps(running_example().decompose()).psi_bicycles.dim == 1
        assert phi_fixed_bicycle_dim(describe(mirror_cycle(4))) == 1


def document(text) -> dict:
    doc = report_document(main_theorem_verdict(parse(text)), "input.sg", text.encode())
    for key in RUN_FIELDS:
        del doc[key]
    return doc


class TestRelabelledAndMirrored:
    """Renaming every id, shuffling the lines of each kind and mirroring
    the drawing (L and R swapped, and the arguments of every phi and
    epair line) leave the structured document unchanged, except the
    fields that name the input and the run."""

    @staticmethod
    def check(g, seed):
        text = serialize(g)
        original = document(text)
        for mirror in (False, True):
            assert document(transformed(text, seed, mirror)) == original

    @ROUTES
    @given(generator_draws(), st.integers(0, 2**16))
    def test_generator_draws(self, g, seed):
        self.check(g, seed)

    @pytest.mark.parametrize("n", GRIDS)
    def test_grids(self, n):
        self.check(mirror_grid(n, n), seed=n)

    def test_mirror_swaps_sides_and_pairs(self):
        # with the same seed, the mirrored copy differs from the plain
        # one exactly by L <-> R and the order of each phi and epair pair
        text = serialize(running_example())
        plain, mirrored = (transformed(text, 3, mirror).splitlines() for mirror in (False, True))
        swap = {"L": "R", "R": "L", "F": "F"}
        kinds = set()
        for a, b in zip(plain, mirrored, strict=True):
            kind, *args = a.split()
            kinds.add(kind)
            if kind == "v":
                assert b.split() == [kind, args[0], swap[args[1]]]
            elif kind in ("phi", "epair"):
                assert b.split() == [kind, *reversed(args)]
            else:
                assert a == b
        assert kinds == {"v", "phi", "e", "epair", "efix"}


def direct_sum(*groups) -> tuple:
    """The invariant factors of the direct sum of these finite groups:
    sympy's Smith form of the diagonal of all their factors."""
    factors = [d for group in groups for d in group.invariant_factors]
    if not factors:
        return ()
    return tuple(int(d) for d in invariant_factors(Matrix.diag(*factors), domain=ZZ) if d != 1)


class TestWedge:
    """Two graphs glued at one Fixed vertex each: kappa of G, G+ and G-
    multiplies, K(G), K(G+) and K(G-) are the direct sums of the parts'
    groups, the exponent and both fixed-bicycle dimensions add, and when
    both parts meet all three hypotheses every verdict of the wedge is
    true."""

    @ROUTES
    @given(generator_draws(min_fixed=1), generator_draws(min_fixed=1), st.data())
    def test_generator_draws(self, a, b, data):
        vertex_a = data.draw(st.sampled_from(a.fixed_vertices))
        vertex_b = data.draw(st.sampled_from(b.fixed_vertices))
        glued = parse(wedge(serialize(a), serialize(b), vertex_a, vertex_b))
        parts = [main_theorem_verdict(g) for g in (a, b)]
        rep = main_theorem_verdict(glued)
        for kappa in ("kappa_g", "kappa_plus", "kappa_minus"):
            assert getattr(rep, kappa) == getattr(parts[0], kappa) * getattr(parts[1], kappa)
        for pair in ("pair_g", "pair_plus", "pair_minus"):
            group = getattr(rep, pair).critical_group
            summands = [getattr(part, pair).critical_group for part in parts]
            assert group.free_rank == 0 == sum(s.free_rank for s in summands)
            assert group.invariant_factors == direct_sum(*summands)
        m_a, m_b = parts
        assert rep.exponent == m_a.exponent + m_b.exponent
        assert rep.phi_bicycles.dim == m_a.phi_bicycles.dim + m_b.phi_bicycles.dim
        assert rep.psi_bicycles.dim == m_a.psi_bicycles.dim + m_b.psi_bicycles.dim
        applicable = [part.theorem_applicable for part in parts]
        assert rep.theorem_applicable == all(applicable)
        if all(applicable):
            assert all(v is True for v in rep.verdicts.values())
