import random
from fractions import Fraction

import pytest

from cycleramsey.cycles import erdos_gallai_cycle
from cycleramsey.errors import NoQualifyingComponent, PreconditionViolated
from cycleramsey.graphs import (
    Graph,
    _mask_of,
    _reachable,
    _toggle_edge,
    bipartition,
    complete_graph,
    components,
)
from cycleramsey.matchings import (
    ClosedWalk,
    MatchingCertificate,
    _alternating_search,
    _best_matched,
    _gallai_edmonds_d,
    _matched,
    _mates,
    _repair_matching,
    best_component_matching,
    best_saturation,
    bipartite_split,
    closed_walk_through_matching,
    matching_along_cycle,
    maximum_matching,
    tutte_partition,
)

from conftest import (
    oracle_deficiency,
    oracle_matching_size,
    random_graph,
    subgraph_on,
    without_vertex,
)


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_matching_examples(petersen):
    assert len(maximum_matching(complete_graph(4)).edges) == 2
    assert len(maximum_matching(cycle_graph(5)).edges) == 2
    m = maximum_matching(petersen)
    assert len(m.edges) == 5 == oracle_matching_size(petersen)
    assert m.check(petersen)


def test_matching_is_canonicalized():
    g = Graph(4, [(2, 3), (0, 1)])
    m = maximum_matching(g)
    assert m.edges == ((0, 1), (2, 3))


def test_matching_oracle_equivalence():
    rng = random.Random(41)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.05, 0.95))
        m = maximum_matching(g)
        assert m.check(g)
        assert len(m.edges) == oracle_matching_size(g)


def test_mates_runs_no_search_without_a_partner(monkeypatch):
    # the greedy start leaves one vertex of an odd clique exposed, and an
    # augmenting path needs two: no root search may run
    import cycleramsey.matchings as matchings

    calls = []
    real = matchings._alternating_search

    def counting(adj, mask, match):
        find_path, *rest = real(adj, mask, match)

        def find_path_counted(root):
            calls.append(root)
            return find_path(root)

        return (find_path_counted, *rest)

    monkeypatch.setattr(matchings, "_alternating_search", counting)
    for n in range(3, 14, 2):
        assert len(maximum_matching(complete_graph(n)).edges) == n // 2
    assert calls == []


def test_berge_duality_spot_check():
    rng = random.Random(42)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.7))
        nu = len(maximum_matching(g).edges)
        assert nu == (g.n - oracle_deficiency(g)) // 2


def test_best_component_matching_examples():
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
    comp, m = best_component_matching(g, require_nonbipartite=True)
    assert comp == frozenset({0, 1, 2}) and len(m.edges) == 1
    comp, m = best_component_matching(g, require_nonbipartite=False)
    assert comp == frozenset({3, 4, 5, 6}) and len(m.edges) == 2
    with pytest.raises(NoQualifyingComponent):
        best_component_matching(cycle_graph(4), require_nonbipartite=True)


def _best_component_reference(g, require_nonbipartite):
    """Every qualifying component matched, none skipped; first maximum wins."""
    best = None
    for comp in components(g):
        if require_nonbipartite and bipartition(subgraph_on(g, comp)) is not None:
            continue
        match = maximum_matching(g, within=comp)
        if best is None or match.saturation > best[1].saturation:
            best = (comp, match)
    return best


def test_best_component_skip_matches_unskipped_reference():
    # sparse graphs: many small components, so the size skip fires often
    rng = random.Random(20240)
    for _ in range(200):
        n = rng.randint(1, 16)
        g = random_graph(rng, n, rng.uniform(0.05, 0.5))
        for nonbip in (False, True):
            ref = _best_component_reference(g, nonbip)
            if ref is None:
                with pytest.raises(NoQualifyingComponent):
                    best_component_matching(g, nonbip)
                assert best_saturation(g, nonbip) == 0
                continue
            assert best_component_matching(g, nonbip) == ref
            assert best_saturation(g, nonbip) == ref[1].saturation
            assert ref[1].saturation == 2 * oracle_matching_size(subgraph_on(g, ref[0]))


def test_repaired_matching_stays_maximum_across_toggles():
    # seeded toggle sequences; half the toggles remove a matched edge when
    # there is one, so every repair branch runs
    rng = random.Random(20261)
    for _ in range(60):
        n = rng.randint(2, 14)
        adj = list(random_graph(rng, n, rng.uniform(0.05, 0.6))._adj)
        match = _mates(adj)
        matched = _matched(match)
        for _ in range(40):
            pairs = [(v, w) for v, w in enumerate(match) if w > v]
            if pairs and rng.random() < 0.5:
                u, v = rng.choice(pairs)
            else:
                u, v = rng.sample(range(n), 2)
            _toggle_edge(u, v, adj)
            matched = _repair_matching(adj, match, matched, u, v)
            assert matched == _matched(match)
            g = Graph._from_masks(n, list(adj))
            kept = MatchingCertificate(
                tuple((v, w) for v, w in enumerate(match) if w > v)
            )
            assert all(match[w] == v for v, w in enumerate(match) if w != -1)
            assert kept.check(g)
            assert len(kept.edges) == len(maximum_matching(g).edges)
            for nonbip in (False, True):
                ref = _best_component_reference(g, nonbip)
                want = (0, 0) if ref is None else (
                    ref[1].saturation, _mask_of(ref[0])
                )
                saturation, part = _best_matched(adj, matched, nonbip)
                assert (saturation, _reachable(adj, part, (1 << n) - 1)) == want


def test_best_component_ties_and_bipartite_skip():
    # two triangles tie at saturation 2: the first one is returned
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for nonbip in (False, True):
        comp, m = best_component_matching(two_triangles, nonbip)
        assert comp == frozenset({0, 1, 2}) and m.saturation == 2
    # a larger bipartite component (C6, saturation 6) ahead of a smaller odd
    # one: in non-bipartite mode only the triangle qualifies
    c6_then_triangle = Graph(9, [(i, (i + 1) % 6) for i in range(6)]
                             + [(6, 7), (7, 8), (6, 8)])
    comp, m = best_component_matching(c6_then_triangle, require_nonbipartite=True)
    assert comp == frozenset({6, 7, 8}) and m.saturation == 2
    assert best_saturation(c6_then_triangle, require_nonbipartite=True) == 2
    assert best_saturation(c6_then_triangle) == 6


def test_within_matches_induced_subgraph():
    # ``within`` only restricts the work: same edges as on the induced subgraph
    rng = random.Random(57)
    for _ in range(200):
        n = rng.randint(1, 40)
        g = random_graph(rng, n, rng.uniform(0.02, 0.5))
        within = [v for v in range(n) if rng.random() < 0.6]
        assert maximum_matching(g, within=within) == maximum_matching(
            subgraph_on(g, within)
        )
        mask = sum(1 << v for v in within)  # a vertex mask works the same
        assert maximum_matching(g, within=mask) == maximum_matching(g, within=within)
        for comp in components(g):
            assert maximum_matching(g, within=comp) == maximum_matching(
                subgraph_on(g, comp)
            )


def _d_by_definition(g):
    """Vertices whose deletion keeps the matching number (missed by some maximum one)."""
    nu = len(maximum_matching(g).edges)
    return {
        v for v in range(g.n) if len(maximum_matching(without_vertex(g, v)).edges) == nu
    }


def _one_pass_d(g):
    d_mask = _gallai_edmonds_d(g, _mates(g._adj))
    return {v for v in range(g.n) if d_mask >> v & 1}


def test_gallai_edmonds_d_matches_definition():
    rng = random.Random(4242)
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 24), rng.uniform(0.05, 0.6))
        assert _one_pass_d(g) == _d_by_definition(g)

    def path(vs):
        return list(zip(vs, vs[1:]))

    # blossom inside a blossom: triangle 0-1-2 in a 5-cycle 0..4 whose
    # stem 5-6 leads to an exposed end
    nested = Graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0), (4, 5), (5, 6)])
    # C5 and C7 with pendant paths of length 1, 2 and 3
    pendants = Graph(16, [(i, (i + 1) % 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 1) % 7) for i in range(7)]
                     + [(0, 12)] + path([5, 13, 14]) + [(8, 15)])
    odd_pendant = Graph(9, [(i, (i + 1) % 5) for i in range(5)] + path([0, 5, 6, 7, 8]))
    triangles = Graph(11, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                           (6, 7), (7, 8), (8, 6)])
    star = Graph(7, [(0, i) for i in range(1, 7)])
    double_star = Graph(9, [(0, i) for i in range(2, 5)] + [(1, i) for i in range(5, 9)]
                        + [(0, 1)])
    for g in (nested, pendants, odd_pendant, triangles, star, double_star,
              cycle_graph(9), complete_graph(7), Graph(5)):
        assert _one_pass_d(g) == _d_by_definition(g)
    assert _one_pass_d(star) == set(range(1, 7))
    assert _one_pass_d(triangles) == set(range(11))
    assert _one_pass_d(nested) == set(range(7)) - {5}


def _sparse_many_pieces(rng, n_min, n_max):
    """A sparse graph of n_min..n_max vertices made of many small pieces whose
    matchings need blossoms or long alternating paths, randomly relabelled."""
    pieces = [
        lambda k: (k, [(i, (i + 1) % k) for i in range(k)]),  # a cycle
        lambda k: (7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0), (4, 5),
                       (5, 6)]),  # a triangle inside a 5-cycle, with a stem
        lambda k: (k + 5, [(i, (i + 1) % 5) for i in range(5)]
                   + [(j, j + 1) for j in range(4, k + 4)]),  # C5 with a tail
        lambda k: (k, [(i, i + 1) for i in range(k - 1)]),  # a path
        lambda k: (k + 6, [(0, 1), (1, 2), (2, 0), (k + 3, k + 4), (k + 4, k + 5),
                           (k + 5, k + 3)]
                   + [(j, j + 1) for j in range(2, k + 3)]),  # triangles + path
        lambda k: (k + 1, [(0, j) for j in range(1, k + 1)]),  # a star
        lambda k: (10, [(0, 1), (0, 4), (0, 7)] + [
            (t + a, t + b) for t in (1, 4, 7) for a, b in ((0, 1), (1, 2), (2, 0))
        ]),  # three triangles on a hub: two exposed vertices, one component
        lambda k: (k, [e for e in ((u, v) for u in range(k) for v in range(u + 1, k))
                       if rng.random() < 0.45]),  # a small dense graph
        lambda k: (k + 5, [e for e in ((u, v) for u in range(k + 5)
                                        for v in range(u + 1, k + 5))
                           if rng.random() < 0.25]),  # a small sparse graph
        lambda k: (1, []),  # an isolated vertex
    ]
    parts, total = [], 0
    target = rng.randint(n_min, n_max)
    while total < target:
        k, edges = rng.choice(pieces)(rng.randint(3, 9))
        parts.append((total, edges))
        total += k
    label = rng.sample(range(total), total)  # the pieces' vertices interleave
    return Graph(total, [(label[a + u], label[a + v]) for a, es in parts for u, v in es])


def test_tree_only_resets_leave_no_stale_blossom():
    # one alternating search serves every exposed root of a whole graph, so
    # a base, parent or blossom mark left over from an earlier root's tree
    # would show in a later component's matching or in D
    rng = random.Random(2024)
    for _ in range(6):
        g = _sparse_many_pieces(rng, 100, 300)
        # from an empty matching, without the greedy start, one search tries
        # every vertex as a root: augmenting and failing searches interleave
        bare = [-1] * g.n
        find_path = _alternating_search(g._adj, g.vertices_mask(), bare)[0]
        for root in range(g.n):
            if bare[root] == -1:
                find_path(root)
        for mates in (_mates(g._adj), bare):
            assert all(w == -1 or (mates[w] == v and g.has_edge(v, w))
                       for v, w in enumerate(mates))
            for comp in components(g):
                vs = sorted(comp)
                at = {v: i for i, v in enumerate(vs)}
                piece = Graph(len(vs), [(at[u], at[v]) for u, v in g.edges()
                                        if u in comp])
                matched = sum(mates[v] != -1 for v in vs)
                assert matched == 2 * oracle_matching_size(piece), vs
        assert _one_pass_d(g) == _d_by_definition(g)


def test_tutte_partition_runs_one_blossom(monkeypatch):
    import cycleramsey.matchings as mod

    g = random_graph(random.Random(5), 60, 0.03)
    n_target = 2 * len(maximum_matching(g).edges) + 1  # before ``_mates`` counts
    calls = []
    real = mod._mates
    monkeypatch.setattr(mod, "_mates",
                        lambda adj, mask=None: calls.append(adj) or real(adj, mask))
    tutte_partition(g, n_target)
    assert len(calls) == 1


def test_tutte_partition_examples():
    star = Graph(6, [(0, i) for i in range(1, 6)])
    part = tutte_partition(star, 3)
    assert part.S == frozenset({0}) and part.U == frozenset()
    assert part.T == frozenset(range(1, 6))
    assert part.verify(star)

    empty = Graph(6)
    part = tutte_partition(empty, 1)
    assert part.S == frozenset() and part.T == frozenset(range(6))
    assert part.verify(empty)

    tri_iso = Graph(7, [(0, 1), (1, 2), (0, 2)])
    part = tutte_partition(tri_iso, 4)
    assert part.verify(tri_iso)


def test_tutte_partition_precondition():
    with pytest.raises(PreconditionViolated):
        tutte_partition(complete_graph(4), 3)  # perfect matching saturates 4


def test_tutte_partition_random_suite():
    rng = random.Random(13)
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 22), rng.uniform(0.05, 0.5))
        nu = len(maximum_matching(g).edges)
        n_target = 2 * nu + 1 + rng.randint(0, 3)
        part = tutte_partition(g, n_target)
        assert part.verify(g)


def test_bipartite_split_examples():
    c4c3 = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (4, 6)])
    split = bipartite_split(c4c3, 3, 1)
    assert split.Vprime == frozenset({0, 1, 2, 3})
    assert split.Vdoubleprime == frozenset({4, 5, 6})
    assert split.verify(c4c3)

    all_bip = Graph(6, [(0, 1), (2, 3), (4, 5)])
    split = bipartite_split(all_bip, 1, 2)
    assert split.Vdoubleprime == frozenset()

    with pytest.raises(PreconditionViolated) as err:
        bipartite_split(complete_graph(5), 2, 1)
    comp, match = err.value.witness
    assert match.saturation >= 2 and match.check(complete_graph(5))


def test_bipartite_split_random_suite():
    rng = random.Random(29)
    done = 0
    while done < 80:
        g = random_graph(rng, rng.randint(3, 18), rng.uniform(0.05, 0.4))
        # choose a bound just above the worst non-bipartite component
        worst = 0
        for comp in components(g):
            if bipartition(subgraph_on(g, comp)) is None:
                worst = max(
                    worst, maximum_matching(g, within=comp).saturation
                )
        alpha_n = worst + 1
        split = bipartite_split(g, Fraction(alpha_n), 1)
        assert split.verify(g)
        done += 1


def test_matching_along_cycle():
    cert = erdos_gallai_cycle(complete_graph(5), 5)
    m = matching_along_cycle(cert)
    assert m.check(complete_graph(5))
    assert m.saturation >= cert.length - 1


def test_closed_walk_examples():
    tri = complete_graph(3)
    walk = closed_walk_through_matching(tri, MatchingCertificate(((0, 1),)), "odd")
    assert walk.length == 3  # the triangle itself

    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    m = MatchingCertificate(((0, 1), (2, 3)))
    walk = closed_walk_through_matching(path, m, "even")
    assert walk.length % 2 == 0
    assert walk.check(path, m, "even")

    c4 = cycle_graph(4)
    with pytest.raises(PreconditionViolated):
        closed_walk_through_matching(
            c4, MatchingCertificate(((0, 1), (2, 3))), "odd"
        )


def test_closed_walk_preconditions():
    two_comps = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(PreconditionViolated):
        closed_walk_through_matching(
            two_comps, MatchingCertificate(((0, 1), (2, 3))), "even"
        )
    with pytest.raises(PreconditionViolated):
        closed_walk_through_matching(
            complete_graph(3), MatchingCertificate(()), "even"
        )


def test_closed_walk_random_suite():
    rng = random.Random(31)
    done = 0
    while done < 80:
        g = random_graph(rng, rng.randint(3, 14), rng.uniform(0.25, 0.7))
        comps = [c for c in components(g) if len(c) >= 2]
        if not comps:
            continue
        comp = comps[rng.randrange(len(comps))]
        sub = subgraph_on(g, comp)
        m = maximum_matching(g, within=comp)
        if not m.edges:
            continue
        keep = rng.randint(1, len(m.edges))
        m = MatchingCertificate(tuple(rng.sample(list(m.edges), keep)))
        parity = "odd" if bipartition(sub) is None else "even"
        walk = closed_walk_through_matching(g, m, parity)
        assert walk.check(g, m, parity, comp)
        done += 1


def test_walk_predicate_rejects():
    tri = complete_graph(3)
    assert not ClosedWalk((0, 1)).check(tri, parity="odd")  # even length
    assert not ClosedWalk((0, 1, 2)).check(
        tri, matching=MatchingCertificate(((0, 1),)), component=frozenset({0, 1})
    )  # vertex 2 outside the claimed component
    path = Graph(3, [(0, 1)])
    assert not ClosedWalk((0, 1, 2)).check(path)  # missing edges
