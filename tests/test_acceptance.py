"""Acceptance suite: one test per criterion, zero tolerance throughout.

Every criterion prints a single PASS/FAIL line (run pytest with -s to
see them live).  The shared corpus is 500 seeded random symmetric
graphs with a connected plus graph and at most 14 edges; smaller
instances are additionally cross-checked against exhaustive
enumeration oracles.
"""

import random

import pytest

from mirrorcrit.critical import (
    AdjointPair,
    bicycle_masks_bruteforce,
    count_maximal_forests_bruteforce,
)
from mirrorcrit.factorization import main_theorem_verdict
from mirrorcrit.graphfile import parse
from mirrorcrit.lattice import FpAbelianGroup, IntMatrix, smith_normal_form
from mirrorcrit.randgraph import random_multigraph

from conftest import exact_det, mirror_cycle, running_example, symmetric_corpus

CORPUS_SIZE = 500


def announce(number, name, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} problems)"
    print(f"\nACCEPTANCE {number} [{name}]: {status}")
    assert not failures, failures[:5]


@pytest.fixture(scope="module")
def corpus_reports():
    corpus = symmetric_corpus(CORPUS_SIZE, connected_plus=True)
    return [(g, main_theorem_verdict(g)) for g in corpus]


def permute_mask(mask, images):
    out = 0
    for j, i in enumerate(images):
        if (mask >> j) & 1:
            out |= 1 << i
    return out


def test_criterion_1_running_example():
    failures = []
    rep = main_theorem_verdict(running_example())
    expected = {
        "K(G)": (rep.group_g.invariant_factors, (8,)),
        "K(G+)": (rep.group_plus.invariant_factors, (4,)),
        "K(G-)": (rep.group_minus.invariant_factors, (2,)),
        "ker": (rep.ker_f.invariant_factors, (2,)),
        "coker": (rep.coker_f.invariant_factors, (2,)),
        "exponent": (rep.exponent, 0),
    }
    for name, (got, want) in expected.items():
        if got != want:
            failures.append(f"{name}: got {got}, expected {want}")
    if (
        rep.group_plus.order() * rep.group_minus.order() * rep.coker_f.order()
        != rep.group_g.order() * rep.ker_f.order()
    ):
        failures.append("exact-sequence order identity violated")
    if not rep.overall_pass:
        failures.append("some verdict failed")
    announce(1, "running example", failures)


def test_criterion_2_cycle_family():
    failures = []
    for n in range(2, 9):
        rep = main_theorem_verdict(mirror_cycle(n))
        if rep.ker_f.invariant_factors != ():
            failures.append(f"n={n}: kernel not trivial")
        if rep.coker_f.invariant_factors != (2,):
            failures.append(f"n={n}: cokernel not Z/2")
        if rep.group_g.invariant_factors != (2 * n,):
            failures.append(f"n={n}: K(G) not Z/{2 * n}")
        if not rep.group_plus.is_trivial():
            failures.append(f"n={n}: K(G+) not trivial")
        want_minus = (n,) if n > 1 else ()
        if rep.group_minus.invariant_factors != want_minus:
            failures.append(f"n={n}: K(G-) not Z/{n}")
        split = FpAbelianGroup.quotient(2, IntMatrix([[n, 0], [0, 2]]))
        if n % 2 == 0 and rep.group_g.same_type(split):
            failures.append(f"n={n}: extension wrongly splits")
        if n % 2 == 1 and not rep.group_g.same_type(split):
            failures.append(f"n={n}: odd case should split")
        if not rep.overall_pass:
            failures.append(f"n={n}: some verdict failed")
    announce(2, "mirrored cycle family", failures)


def test_criterion_3_corollary_factorization(corpus_reports):
    failures = []
    brute_checked = 0
    for g, rep in corpus_reports:
        if not rep.theorem_applicable:
            failures.append("corpus instance unexpectedly not applicable")
            continue
        expected = 2**rep.exponent * rep.kappa_plus * rep.kappa_minus
        if rep.kappa_g != expected:
            failures.append(
                f"kappa mismatch: {rep.kappa_g} != 2^{rep.exponent} "
                f"* {rep.kappa_plus} * {rep.kappa_minus}"
            )
        if g.graph.n_edges <= 12:
            dec = rep.maps.dec
            if count_maximal_forests_bruteforce(g.graph) != rep.kappa_g:
                failures.append("brute forest count disagrees on G")
            if count_maximal_forests_bruteforce(dec.plus) != rep.kappa_plus:
                failures.append("brute forest count disagrees on G+")
            if count_maximal_forests_bruteforce(dec.minus) != rep.kappa_minus:
                failures.append("brute forest count disagrees on G-")
            brute_checked += 1
    if len(corpus_reports) < 500:
        failures.append("corpus smaller than 500")
    if brute_checked < 200:
        failures.append(f"only {brute_checked} brute-force confirmations")
    announce(3, f"corollary factorization ({brute_checked} brute-checked)", failures)


def test_criterion_4_bicycle_identifications(corpus_reports):
    failures = []
    confirmed_phi = confirmed_psi = 0
    for g, rep in corpus_reports:
        ident = rep.identification
        if rep.coker_f.order() != 2**ident.dim_phi_fixed:
            failures.append("log2|coker| != dim phi-fixed bicycles")
        if rep.ker_f.order() != 2**ident.dim_psi_fixed:
            failures.append("log2|ker| != dim psi-fixed bicycles")
        if g.graph.n_edges <= 12:
            masks = bicycle_masks_bruteforce(g.graph)
            fixed = [m for m in masks if permute_mask(m, rep.maps.phi) == m]
            if len(fixed) != 2**ident.dim_phi_fixed:
                failures.append("enumerated phi-fixed bicycles disagree")
            confirmed_phi += 1
        union = rep.maps.dec.union_graph()
        if union.n_edges <= 12:
            masks = bicycle_masks_bruteforce(union)
            fixed = [m for m in masks if permute_mask(m, rep.maps.psi) == m]
            if len(fixed) != 2**ident.dim_psi_fixed:
                failures.append("enumerated psi-fixed bicycles disagree")
            confirmed_psi += 1
    if confirmed_phi < 200 or confirmed_psi < 100:
        failures.append(
            f"too few enumerations ({confirmed_phi} phi, {confirmed_psi} psi)"
        )
    announce(
        4,
        f"bicycle identifications ({confirmed_phi}/{confirmed_psi} enumerated)",
        failures,
    )


def test_criterion_5_two_torsion_and_duality(corpus_reports):
    failures = []
    for g, rep in corpus_reports:
        for name, group in (
            ("ker f*", rep.ker_f),
            ("coker f*", rep.coker_f),
            ("ker (f^t)*", rep.ker_ft),
            ("coker (f^t)*", rep.coker_ft),
        ):
            if not group.annihilated_by(2):
                failures.append(f"{name} not 2-torsion: {group.describe()}")
        if rep.ker_f.invariant_factors != rep.coker_ft.invariant_factors:
            failures.append("ker(f*) != coker((f^t)*)")
        if rep.coker_f.invariant_factors != rep.ker_ft.invariant_factors:
            failures.append("coker(f*) != ker((f^t)*)")
    announce(5, "2-torsion and duality", failures)


def test_criterion_6_snake_dimensions(corpus_reports):
    failures = []
    for g, rep in corpus_reports:
        snake = rep.snake
        n_vr = len(g.right_vertices)
        if snake.dim_b_psi != n_vr + len(g.fixed_edges):
            failures.append("dim (B+ + B-)^psi formula fails")
        if snake.dim_b_phi != n_vr + len(g.fixed_vertices) - 1:
            failures.append("dim B^phi formula fails")
        if snake.dim_z_phi - snake.dim_z_psi != rep.exponent:
            failures.append("cycle dimension gap formula fails")
        if snake.exponent + snake.log2_ker != snake.log2_coker:
            failures.append("alternating-product identity fails")
    announce(6, "snake dimensions", failures)


def test_criterion_7_p_bicycles_match_invariant_factors():
    failures = []
    checked = 0
    seed = 0
    while checked < 200:
        g = random_multigraph(seed=seed, max_vertices=6, max_edges=12)
        seed += 1
        if g.n_edges > 12:
            continue
        pair = AdjointPair(g)
        factors = pair.critical_group.invariant_factors
        expected = sum(1 for d in factors if d % 2 == 0)
        got = pair.bicycle_space.dim
        if got != expected:
            failures.append(f"seed {seed - 1}: dim {got} != {expected}")
        checked += 1
    announce(7, f"bicycle dimensions ({checked} graphs)", failures)


def test_criterion_8_laplacian_presentation(corpus_reports):
    failures = []
    for g, rep in corpus_reports:
        if not rep.laplacian_match:
            failures.append("Laplacian-route invariant factors disagree")
        pair = AdjointPair(g.graph)
        if pair.laplacian_invariant_factors != rep.group_g.invariant_factors:
            failures.append("recomputed Laplacian route disagrees")
    announce(8, "Laplacian presentation", failures)


def test_criterion_9_smith_normal_form_properties():
    failures = []
    rng = random.Random(2024)
    for trial in range(1000):
        n = rng.randint(1, 12)
        m = rng.randint(1, 12)
        a = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        )
        snf = smith_normal_form(a)
        if not snf.verify():
            failures.append(f"trial {trial}: decomposition invalid")
            continue
        if trial % 20 == 0:
            if abs(exact_det(snf.left)) != 1 or abs(exact_det(snf.right)) != 1:
                failures.append(f"trial {trial}: witness not unimodular")
    announce(9, "Smith normal form properties (1000 matrices)", failures)
