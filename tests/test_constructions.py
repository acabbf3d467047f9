import random
from dataclasses import replace
from fractions import Fraction


import pytest

from cycleramsey.bounds import TargetTriple, construction_sizes, floor_parity
from cycleramsey.constructions import (
    NO_CYCLE_GEQ,
    NO_ODD_CYCLE,
    Claim,
    ConstructionReport,
    _block_report,
    build_eeo_four_part,
    build_eeo_three_part,
    build_odd_triple,
    build_oee_four_part,
    verify_claims,
)
from cycleramsey.cycles import verify_cycle
from cycleramsey.graphs import EdgeColoring, Graph

from conftest import all_verified, random_graph, recolored



def _sides_of(report, *part_groups):
    return tuple(
        frozenset().union(*(report.parts[i] for i in group)) for group in part_groups
    )


def test_odd_triple_examples():
    r = verify_claims(build_odd_triple(5))
    assert r.coloring.n == 16 and all_verified(r)
    r = verify_claims(build_odd_triple(3))
    assert r.coloring.n == 8 and all_verified(r)
    r = verify_claims(build_odd_triple(7))
    assert r.coloring.n == 24 and all_verified(r)
    # structural verification only: no exact search needed at this size
    assert all("exact" not in (c.method or "") for c in r.claims)


def test_odd_triple_declared_bipartitions():
    r = build_odd_triple(5)
    g2, g3 = r.coloring.color_class(2), r.coloring.color_class(3)
    a2, b2 = _sides_of(r, (0, 2), (1, 3))
    assert not any(g2.has_edge(u, v) for u in a2 for v in a2 if u < v)
    assert not any(g2.has_edge(u, v) for u in b2 for v in b2 if u < v)
    a3, b3 = _sides_of(r, (0, 1), (2, 3))
    assert not any(g3.has_edge(u, v) for u in a3 for v in a3 if u < v)
    assert not any(g3.has_edge(u, v) for u in b3 for v in b3 if u < v)


def test_eeo_four_part_examples():
    r = verify_claims(build_eeo_four_part(4, 4))
    assert r.coloring.n == 8 and all_verified(r)
    r = verify_claims(build_eeo_four_part(6, 4))
    assert r.coloring.n == 12 and all_verified(r)
    with pytest.raises(ValueError):
        build_eeo_four_part(4, 6)  # requires m1 >= m2
    # declared color-3 bipartition {V1+V3, V2+V4}
    r = build_eeo_four_part(6, 4)
    g3 = r.coloring.color_class(3)
    a, b = _sides_of(r, (0, 2), (1, 3))
    assert not any(g3.has_edge(u, v) for u in a for v in a if u < v)
    assert not any(g3.has_edge(u, v) for u in b for v in b if u < v)


def test_eeo_three_part_examples():
    r = verify_claims(build_eeo_three_part(4, 4, 5))
    assert r.coloring.n == 6 and all_verified(r)
    r = verify_claims(build_eeo_three_part(4, 4, 3))
    assert r.coloring.n == 4 and all_verified(r)
    r = verify_claims(build_eeo_three_part(6, 4, 5))
    assert r.coloring.n == 7 and all_verified(r)


def test_oee_four_part_examples():
    r = verify_claims(build_oee_four_part(4, 5))
    assert r.coloring.n == 10 and all_verified(r)
    r = verify_claims(build_oee_four_part(4, 3))
    assert r.coloring.n == 6 and all_verified(r)
    r = verify_claims(build_oee_four_part(6, 5))
    assert r.coloring.n == 12 and all_verified(r)
    g3 = r.coloring.color_class(3)
    a, b = _sides_of(r, (0, 2), (1, 3))
    assert not any(g3.has_edge(u, v) for u in a for v in a if u < v)
    assert not any(g3.has_edge(u, v) for u in b for v in b if u < v)
    with pytest.raises(ValueError):
        build_oee_four_part(5, 5)
    with pytest.raises(ValueError):
        build_oee_four_part(4, 4)


def test_oee_stated_stronger_bound_is_reported_not_asserted():
    r = verify_claims(build_oee_four_part(6, 5))
    assert all_verified(r)  # the recorded (weaker) claims all hold
    note = next(n for n in r.notes if "stronger" in n)
    assert "violated" in note  # the literal stronger bound fails, by design


def test_oee_note_is_decided_by_the_claim_check():
    # color 1 of oee_four_part(20, 21) has 29-vertex components, beyond the
    # longest-cycle table: the anchored search still finds a 9-cycle there
    notes = verify_claims(build_oee_four_part(20, 21)).notes
    assert notes[-1].endswith("violated (cycle of length 9)")
    notes = verify_claims(build_oee_four_part(20, 21), budget=0).notes
    assert notes[-1].endswith("undecided (budget)")
    notes = verify_claims(build_oee_four_part(6, 5), budget=1).notes
    assert notes[-1].endswith("undecided (budget)")


def test_long_cycle_claims_beyond_the_table_cap():
    # color 1: triangles {2i, 2i+1, 2i+2} chained at shared vertices, plus a
    # pendant edge, on 30 vertices; color 2: the rest of K30
    chain = {(28, 29)}
    for i in range(14):
        chain |= {(2 * i, 2 * i + 1), (2 * i, 2 * i + 2), (2 * i + 1, 2 * i + 2)}
    rest = [(u, v) for u in range(30) for v in range(u + 1, 30) if (u, v) not in chain]
    coloring = EdgeColoring(30, 2, (Graph(30, chain), Graph(30, rest)))
    claims = (
        Claim(1, NO_CYCLE_GEQ, 4),
        Claim(1, NO_CYCLE_GEQ, 25),
        Claim(2, NO_CYCLE_GEQ, 25),
    )
    report = ConstructionReport("triangle chain", {}, coloring, (), claims)
    short, long, dense = verify_claims(report).claims
    assert (short.verified, short.method) == (True, "exact-search")
    assert (long.verified, long.method) == (True, "exact-search")
    assert (dense.verified, dense.method) == (False, "exact-search")
    assert dense.witness.length >= 25
    assert verify_cycle(coloring.color_class(2), dense.witness)
    # one unit per simple-path kernel call: 30 decide the 25 claim on color 1
    alone = replace(report, claims=claims[1:2])
    assert verify_claims(alone, budget=30).claims[0].verified is True
    assert verify_claims(alone, budget=29).claims[0].method == "budget-exceeded"


def test_long_cycle_claim_on_a_hamiltonian_random_graph():
    # color 1: a Hamiltonian G(22, 0.35) with a vertex of degree two; color
    # 2: its complement. The search anchors at low degree and refutes the
    # claim with a 22-cycle in 22 kernel calls
    g = random_graph(random.Random(22057), 22, 0.35)
    rest = [(u, v) for u in range(22) for v in range(u + 1, 22) if not g.has_edge(u, v)]
    coloring = EdgeColoring(22, 2, (g, Graph(22, rest)))
    report = ConstructionReport("hamiltonian", {}, coloring, (), (Claim(1, NO_CYCLE_GEQ, 22),))
    (claim,) = verify_claims(report, budget=22).claims
    assert (claim.verified, claim.method) == (False, "exact-search")
    assert claim.witness.length == 22 and verify_cycle(g, claim.witness)
    assert verify_claims(report, budget=21).claims[0].method == "budget-exceeded"


def test_long_cycle_claim_below_three_needs_a_real_cycle():
    # a claim file may say "no cycle of 2 or more vertices"; the witness of
    # its failure is still a cycle, here the triangle of color 1
    coloring = EdgeColoring(4, 2, (
        Graph(4, [(0, 1), (0, 2), (1, 2)]), Graph(4, [(0, 3), (1, 3), (2, 3)])
    ))
    claims = (Claim(1, NO_CYCLE_GEQ, 2),)
    (claim,) = verify_claims(ConstructionReport("k3", {}, coloring, (), claims)).claims
    assert (claim.verified, claim.method) == (False, "exact-search")
    assert sorted(claim.witness.vertices) == [0, 1, 2]


def test_builder_colorings_are_valid_total_colorings():
    for report in (
        build_odd_triple(5),
        build_eeo_four_part(6, 4),
        build_eeo_three_part(6, 4, 5),
        build_oee_four_part(4, 5),
    ):
        c = report.coloring
        c.validate()
        assert not c.holes.holes and not c.deleted
        total = sum(c.color_class(i).num_edges for i in (1, 2, 3))
        assert total == c.n * (c.n - 1) // 2
        assert {cl.color for cl in report.claims} == {1, 2, 3}


def test_builder_sizes_match_construction_sizes():
    t = TargetTriple((5, 5, 5), ("odd",) * 3, 1)
    assert dict(construction_sizes(t))["odd_triple"] == build_odd_triple(5).coloring.n
    t = TargetTriple((6, 4, 5), ("even", "even", "odd"), 1)
    sizes = dict(construction_sizes(t))
    assert sizes["eeo_four_part"] == build_eeo_four_part(6, 4).coloring.n
    assert sizes["eeo_three_part"] == build_eeo_three_part(6, 4, 5).coloring.n
    t = TargetTriple((6, 5, 3), ("even", "odd", "odd"), 1)
    sizes = dict(construction_sizes(t))
    assert sizes["oee_four_part:2"] == build_oee_four_part(6, 5).coloring.n
    assert sizes["oee_four_part:3"] == build_oee_four_part(6, 3).coloring.n
    assert sizes["odd_triple"] == build_odd_triple(5).coloring.n


def test_construction_sizes_match_the_builders_on_random_triples():
    # every listed size is the vertex count of the named builder, called
    # with the canonical triple's lengths; odd_triple in case iii takes the
    # odd floor of alpha_1 n
    rng = random.Random(3701)
    cases = set()
    for _ in range(400):
        n, den = rng.randint(1, 12), rng.randint(1, 3)
        alphas = [Fraction(rng.randint(4 * den, 20 * den), den * n) for _ in range(3)]
        t = TargetTriple(alphas, [rng.choice(("even", "odd")) for _ in range(3)], n)
        canon, case, _ = t.canonical()
        m1, m2, m3 = canon.target_lengths()
        if case == "ii":
            built = {"eeo_four_part": build_eeo_four_part(m1, m2),
                     "eeo_three_part": build_eeo_three_part(m1, m2, m3)}
        elif case == "iii":
            built = {"oee_four_part:2": build_oee_four_part(m1, m2),
                     "oee_four_part:3": build_oee_four_part(m1, m3),
                     "odd_triple": build_odd_triple(floor_parity(canon.alphas[0] * n,
                                                                 "odd"))}
        else:
            built = {"odd_triple": build_odd_triple(m1)} if case == "iv" else {}
        sizes = construction_sizes(t)
        assert [name for name, _ in sizes] == list(built), t
        assert dict(sizes) == {name: r.coloring.n for name, r in built.items()}, t
        cases.add(case)
    assert cases == {"i", "ii", "iii", "iv"}


def test_mutation_yields_failure_with_witness():
    r = build_odd_triple(5)
    # moving one cross edge (V1-V3) into color 2 creates an odd triangle there
    corrupted = replace(r, coloring=recolored(r.coloring, (0, 8), 2))
    checked = verify_claims(corrupted)
    assert not all_verified(checked)
    failed = [c for c in checked.claims if c.verified is False]
    assert failed and all(c.witness is not None for c in failed)
    for c in failed:
        assert c.kind in (NO_ODD_CYCLE, NO_CYCLE_GEQ)
        g = corrupted.coloring.color_class(c.color)
        vs = c.witness.vertices
        assert all(
            g.has_edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))
        )


def test_verify_claims_with_no_claims_is_noop():
    r = build_odd_triple(3)
    empty = replace(r, claims=())
    assert verify_claims(empty).claims == ()


def test_grid_all_builders_all_claims():
    reports = []
    for m1 in (3, 5, 7, 9):
        reports.append(build_odd_triple(m1))
    for m1 in (4, 6, 8):
        for m2 in (4, 6, 8):
            if m1 >= m2:
                reports.append(build_eeo_four_part(m1, m2))
            for m3 in (3, 5, 7, 9):
                reports.append(build_eeo_three_part(m1, m2, m3))
    for m1 in (4, 6, 8):
        for m2 in (3, 5, 7, 9):
            reports.append(build_oee_four_part(m1, m2))
    for report in reports:
        checked = verify_claims(report)
        assert all_verified(checked), (report.name, report.params)


def test_block_table_must_be_symmetric():
    # EdgeColoring.validate does not compare the two ends of an edge, so an
    # asymmetric table is refused before any mask is built
    claims = (Claim(1, NO_ODD_CYCLE),)
    with pytest.raises(ValueError, match="not symmetric"):
        _block_report("bad", {}, [2, 2], ("12", "31"), claims)
    report = _block_report("ok", {}, [2, 2], ("12", "21"), claims)
    assert report.parts == (frozenset({0, 1}), frozenset({2, 3}))
    assert report.coloring.color_of(1, 2) == 2 and report.coloring.color_of(2, 3) == 1
