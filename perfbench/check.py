"""Independent check of every op's output, outside the timed region.

Nothing here imports mirrorcrit.  The plus and minus graphs are rebuilt
from their definitions, invariant factors come from sympy's Smith form
of each Laplacian, and spanning forest counts from exact (Bareiss)
determinants of reduced Laplacians, one per networkx component.
"""

from __future__ import annotations

import json

import networkx as nx
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

AXIS = ("axis",)
N_VERDICTS = 20


def derived_graphs(desc):
    """(vertices, edges) of G, G+ and G- from a plain graph description.

    G+ keeps the Left and Fixed vertices and the Left edges, and
    subdivides each Fixed edge.  G- keeps the Right vertices and edges
    and contracts the axis to one vertex.
    """
    side = dict(desc["vertices"])
    vertices = [v for v, _ in desc["vertices"]]
    edges = [(t, h) for _, t, h, _ in desc["edges"]]
    plus_v = [v for v in vertices if side[v] in ("L", "F")]
    minus_v = [v for v in vertices if side[v] == "R"] + [AXIS]
    plus_e, minus_e = [], []
    for eid, t, h, s in desc["edges"]:
        if s == "L":
            plus_e.append((t, h))
        elif s == "F":
            mid = ("sub", eid)
            plus_v.append(mid)
            plus_e += [(t, mid), (mid, h)]
        else:
            minus_e.append((AXIS if side[t] == "F" else t, AXIS if side[h] == "F" else h))
    return [(vertices, edges), (plus_v, plus_e), (minus_v, minus_e)]


def laplacian(vertices, edges):
    index = {v: i for i, v in enumerate(vertices)}
    lap = [[0] * len(vertices) for _ in vertices]
    for t, h in edges:
        if t == h:
            continue
        i, j = index[t], index[h]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    return lap


def group_factors(vertices, edges):
    """Invariant factors > 1 of the critical group: the torsion of coker L."""
    factors = invariant_factors(Matrix(laplacian(vertices, edges)), domain=ZZ)
    return sorted(abs(int(d)) for d in factors if abs(int(d)) > 1)


def forest_count(vertices, edges):
    """Maximal spanning forests: product of reduced-Laplacian determinants."""
    g = nx.MultiGraph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    total = 1
    for component in nx.connected_components(g):
        if len(component) == 1:
            continue
        part = [v for v in vertices if v in component]
        lap = laplacian(part, [(t, h) for t, h in edges if t in component])
        reduced = [[ZZ(x) for x in row[1:]] for row in lap[1:]]
        total *= int(DomainMatrix(reduced, (len(reduced), len(reduced)), ZZ).det())
    return total


class Checker:
    """Expected values per input, computed once, and the per-op checks."""

    def __init__(self, graphs):
        self.graphs = graphs
        self._expected = {}

    def expected(self, index):
        if index not in self._expected:
            parts = derived_graphs(self.graphs[index])
            self._expected[index] = (
                [group_factors(*p) for p in parts],
                [forest_count(*p) for p in parts],
            )
        return self._expected[index]

    def analyze(self, index, rc, text):
        """Problems with one structured `analyze` document, or []."""
        problems = [] if rc == 0 else [f"exit code {rc}"]
        doc = json.loads(text)
        factors, kappas = self.expected(index)
        for key, want in zip(("K_G", "K_plus", "K_minus"), factors):
            got = doc["groups"][key]
            if got["invariant_factors"] != want or got["free_rank"] != 0:
                problems.append(f"{key}: {got['invariant_factors']} free "
                                f"{got['free_rank']}, sympy gives {want}")
        for key, want in zip(("G", "G_plus", "G_minus"), kappas):
            if doc["kappa"][key] != want:
                problems.append(f"kappa {key}: {doc['kappa'][key]}, determinants give {want}")
        verdicts = doc["verdicts"]
        failing = [k for k, v in verdicts.items() if v is not True]
        if len(verdicts) != N_VERDICTS or failing:
            problems.append(f"{len(verdicts)} verdicts, not true: {failing}")
        return problems

    def oracle(self, index, rc, text):
        """Problems with one `oracle` transcript, or []."""
        problems = [] if rc == 0 else [f"exit code {rc}"]
        lines = text.splitlines()
        if not lines or lines[-1] != "oracle: all checks agree":
            problems.append("no 'all checks agree' line")
        kappa = self.expected(index)[1][0]
        counts = [ln.split()[3] for ln in lines if ln.startswith("forest count: enumeration")]
        if counts != [str(kappa)]:
            problems.append(f"forest count {counts}, determinants give {kappa}")
        return problems


def normalized(workload, output):
    """The part of an op's output that must not change: structured
    documents without `generated_at` and `input_path`, or the transcript."""
    if workload == "oracle":
        return output
    doc = json.loads(output)
    doc.pop("generated_at", None)
    doc.pop("input_path", None)
    return json.dumps(doc, sort_keys=True)

