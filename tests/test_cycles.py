import random

import pytest

from cycleramsey import cycles
from cycleramsey.cycles import (
    CycleCertificate,
    _anchored_cycle,
    _Budget,
    _long_cycle_edges,
    erdos_gallai_cycle,
    has_cycle_of_length,
    longest_cycle,
    verify_cycle,
)
from cycleramsey.errors import (
    BudgetExceededError,
    PreconditionViolated,
    TableCapExceeded,
)
from cycleramsey.graphs import Graph, components, complete_graph

from conftest import oracle_longest_cycle, random_graph


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_has_cycle_examples():
    c6 = cycle_graph(6)
    found = has_cycle_of_length(c6, 6)
    assert found is not None and verify_cycle(c6, found)
    assert has_cycle_of_length(c6, 5) is None
    assert has_cycle_of_length(c6, 4) is None


def test_petersen_girth(petersen):
    # girth 5: determined by brute-force enumeration, frozen here
    assert has_cycle_of_length(petersen, 3) is None
    assert has_cycle_of_length(petersen, 4) is None
    found = has_cycle_of_length(petersen, 5)
    assert found is not None and verify_cycle(petersen, found)


def test_longest_cycle_examples(petersen):
    k4 = complete_graph(4)
    assert longest_cycle(k4, "odd")[0] == 3
    assert longest_cycle(k4, "even")[0] == 4
    # Petersen is non-Hamiltonian with a 9-cycle (exhaustive search)
    length, cert = longest_cycle(petersen, "any")
    assert length == 9 and verify_cycle(petersen, cert)
    tree = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert longest_cycle(tree, "any") is None


def test_budget_exceeded_is_distinct():
    with pytest.raises(BudgetExceededError):
        longest_cycle(complete_graph(12), "any", budget=50)


@pytest.mark.parametrize("length, charge", [(12, 10), (10, 190)])
def test_fixed_length_charge_is_pinned(petersen, length, charge):
    # one unit per path-kernel call: K12's Hamiltonian cycle costs 10, and
    # proving the Petersen graph has no 10-cycle costs 190
    g = complete_graph(12) if length == 12 else petersen
    with pytest.raises(BudgetExceededError) as err:
        has_cycle_of_length(g, length, budget=charge - 1)
    assert err.value.nodes == charge
    found = has_cycle_of_length(g, length, budget=charge)
    assert (found is not None) == (length == 12)


def test_negative_budgets_are_refused():
    g = complete_graph(6)
    for call in (
        lambda: has_cycle_of_length(g, 4, budget=-5),
        lambda: has_cycle_of_length(g, 7, budget=-1),  # no work to do at all
        lambda: longest_cycle(g, "any", budget=-5),
        lambda: erdos_gallai_cycle(g, 5, budget=-5),
    ):
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            call()
    # a zero budget is legal: trivial answers need no work, the rest run out
    assert has_cycle_of_length(g, 7, budget=0) is None
    with pytest.raises(BudgetExceededError):
        has_cycle_of_length(g, 4, budget=0)


def test_table_cap_refusal_is_distinct():
    # a 23-vertex component slice is too large for the table: a refusal
    # before any work, still a BudgetExceededError for existing handlers
    with pytest.raises(TableCapExceeded) as err:
        longest_cycle(complete_graph(23), "any")
    assert isinstance(err.value, BudgetExceededError)
    assert (err.value.size, err.value.cap, err.value.nodes) == (23, 22, 0)
    assert "23 vertices" in str(err.value) and "table cap of 22" in str(err.value)
    # an exhausted budget is not a table-cap refusal
    with pytest.raises(BudgetExceededError) as err:
        longest_cycle(complete_graph(12), "any", budget=50)
    assert not isinstance(err.value, TableCapExceeded)
    # at the cap the table is built (a K22 slice would need far more memory
    # than a test should take, so a 22-vertex cycle stands in for it)
    c22 = Graph(22, [(i, (i + 1) % 22) for i in range(22)])
    assert longest_cycle(c22, "even")[0] == 22


def test_verify_cycle_rejects_bad_certificates():
    k3 = complete_graph(3)
    assert verify_cycle(k3, CycleCertificate((0, 1, 2)))
    assert not verify_cycle(k3, CycleCertificate((0, 1, 1)))
    assert not verify_cycle(k3, CycleCertificate((0, 1)))
    path = Graph(3, [(0, 1), (1, 2)])
    assert not verify_cycle(path, CycleCertificate((0, 1, 2)))


def test_longest_cycle_matches_permutation_oracle():
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 8), rng.uniform(0.15, 0.9))
        found = longest_cycle(g, "any")
        assert (0 if found is None else found[0]) == oracle_longest_cycle(g)
        for parity in ("odd", "even"):
            found = longest_cycle(g, parity)
            got = 0 if found is None else found[0]
            assert got == oracle_longest_cycle(g, parity)
            if found is not None:
                assert verify_cycle(g, found[1])
                assert found[0] % 2 == (1 if parity == "odd" else 0)


def test_long_cycle_edges_match_longest_cycle():
    # The score is the edge count of the components whose longest cycle has
    # at least L vertices, for every L; sparse graphs with several
    # components reach the path kernel, dense ones the Erdos-Gallai count.
    rng = random.Random(31)
    for trial in range(160):
        n = rng.randint(3, 16)
        g = random_graph(rng, n, rng.uniform(0.5, 4.0) / n)
        longest = []
        for comp in components(g):
            sub = g.subgraph_on(comp)
            found = longest_cycle(sub, "any")
            longest.append((0 if found is None else found[0], sub.num_edges))
        brute = oracle_longest_cycle(g) if n <= 9 else None
        for ell in range(3, n + 1):
            score = _long_cycle_edges(g._adj, ell, _Budget(10**8))
            assert score == sum(e for best, e in longest if best >= ell), (trial, ell)
            if brute is not None:
                assert (score > 0) == (brute >= ell), (trial, ell)


def test_long_cycle_edges_examples():
    # a 5-cycle beside a 6-cycle: every component that qualifies counts
    two = Graph(11, [(i, (i + 1) % 5) for i in range(5)]
                + [(5 + i, 5 + (i + 1) % 6) for i in range(6)])
    scores = [_long_cycle_edges(two._adj, ell, _Budget(10**8)) for ell in (3, 5, 6, 7)]
    assert scores == [11, 11, 6, 0]
    # K24 is settled by its edge count without any kernel call; the 24-cycle
    # is sparse and needs the kernel, which no longest-cycle table could run
    assert _long_cycle_edges(complete_graph(24)._adj, 5, _Budget(0)) == 276
    c24 = cycle_graph(24)._adj
    assert _long_cycle_edges(c24, 24, _Budget(10**8)) == 24
    assert _long_cycle_edges(c24, 25, _Budget(0)) == 0  # too few vertices
    with pytest.raises(BudgetExceededError):
        _long_cycle_edges(c24, 24, _Budget(3))


def test_anchored_cycle_at_least_matches_longest_cycle():
    # inside a random vertex subset, a cycle of at least L vertices is found
    # exactly when the induced subgraph's longest cycle reaches L
    rng = random.Random(37)
    for trial in range(80):
        n = rng.randint(3, 12)
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        active = rng.getrandbits(n) | rng.getrandbits(n)
        found = longest_cycle(g.subgraph_on(active), "any")
        best = 0 if found is None else found[0]
        for ell in range(3, n + 1):
            bud = _Budget(10**8)
            cycle = _anchored_cycle(g._adj, active, ell, bud, atleast=True)
            assert (cycle is not None) == (best >= ell), (trial, ell)
            if cycle is not None:
                assert len(cycle) >= ell and all(active >> v & 1 for v in cycle)
                assert verify_cycle(g, CycleCertificate(tuple(cycle)))
                assert cycle[0] == min(cycle)


def test_found_cycle_implies_longest_at_least():
    rng = random.Random(4)
    for _ in range(40):
        g = random_graph(rng, rng.randint(4, 9), rng.uniform(0.2, 0.8))
        for ell in range(3, g.n + 1):
            cert = has_cycle_of_length(g, ell)
            if cert is not None:
                parity = "odd" if ell % 2 else "even"
                best = longest_cycle(g, parity)
                assert best is not None and best[0] >= ell


def test_adding_edge_never_shrinks_longest():
    rng = random.Random(9)
    for _ in range(40):
        g = random_graph(rng, rng.randint(4, 8), rng.uniform(0.2, 0.6))
        non_edges = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        before = longest_cycle(g, "any")
        g2 = g.with_edge(*rng.choice(non_edges))
        after = longest_cycle(g2, "any")
        if before is not None:
            assert after is not None and after[0] >= before[0]


def test_erdos_gallai_examples():
    for n, m in [(4, 4), (5, 5), (3, 3)]:
        cert = erdos_gallai_cycle(complete_graph(n), m)
        assert verify_cycle(complete_graph(n), cert)
        assert cert.length >= m


def test_erdos_gallai_precondition():
    c4 = cycle_graph(4)  # 4 edges < (4-1)(4-1)/2 + 1 = 5.5
    with pytest.raises(PreconditionViolated):
        erdos_gallai_cycle(c4, 4)
    with pytest.raises(PreconditionViolated):
        erdos_gallai_cycle(complete_graph(4), 5)  # m > n


def test_erdos_gallai_random_suite():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(4, 14)
        m = rng.randint(3, n)
        g = _graph_meeting_threshold(rng, n, m)
        cert = erdos_gallai_cycle(g, m)
        assert verify_cycle(g, cert) and cert.length >= m


def test_erdos_gallai_clique_chain():
    # two K5 blocks sharing a vertex plus one extra edge: near-extremal for m=5
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u, v) for u in range(4, 9) for v in range(u + 1, 9)]
    edges.append((0, 5))
    g = Graph(9, edges)
    cert = erdos_gallai_cycle(g, 5)
    assert verify_cycle(g, cert) and cert.length >= 5


def _stall_rotations(monkeypatch):
    # every path looks stuck, so the anchored search has to find the cycle
    monkeypatch.setattr(cycles, "_examine_path", lambda *args: ("stall", None))


def test_erdos_gallai_fallback_finds_the_cycle(monkeypatch):
    _stall_rotations(monkeypatch)
    rng = random.Random(78)
    for _ in range(40):
        n = rng.randint(4, 30)
        m = rng.randint(3, n)
        g = _graph_meeting_threshold(rng, n, m)
        cert = erdos_gallai_cycle(g, m)
        assert verify_cycle(g, cert) and cert.length >= m, (n, m)


@pytest.mark.parametrize("budget", [0, 5])
def test_erdos_gallai_fallback_keeps_to_the_budget(monkeypatch, budget):
    # the Hamiltonian cycle of K30 takes 29 kernel calls; a smaller budget
    # runs out one unit past itself, with no minimum slice of work
    _stall_rotations(monkeypatch)
    with pytest.raises(BudgetExceededError) as err:
        erdos_gallai_cycle(complete_graph(30), 30, budget=budget)
    assert err.value.nodes == budget + 1
    assert erdos_gallai_cycle(complete_graph(30), 30, budget=29).length == 30


def _graph_meeting_threshold(rng, n, m):
    need = ((m - 1) * (n - 1) + 2 + 1) // 2  # ceil of (m-1)(n-1)/2 + 1
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    count = min(len(pairs), need + rng.randint(0, 3))
    return Graph(n, pairs[:count])


def test_erdos_gallai_clique_chain_family():
    # chains of cliques sharing cut vertices, topped up with random chords to
    # the density threshold: the crossing-free stall case for path closures
    rng = random.Random(5)
    checked = 0
    for _ in range(120):
        m = rng.randrange(3, 12)
        blocks = rng.randint(2, 5)
        n = 1 + blocks * (m - 2)
        if n > 40:
            continue
        edges = set()
        at = 0
        for _b in range(blocks):
            verts = list(range(at, at + m - 1))
            for i in range(len(verts)):
                for j in range(i + 1, len(verts)):
                    edges.add((verts[i], verts[j]))
            at += m - 2
        g = Graph(n, edges)
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not g.has_edge(u, v)
        ]
        rng.shuffle(pairs)
        i = 0
        while 2 * g.num_edges < (m - 1) * (n - 1) + 2 and i < len(pairs):
            g = g.with_edge(*pairs[i])
            i += 1
        if 2 * g.num_edges < (m - 1) * (n - 1) + 2:
            continue
        cert = erdos_gallai_cycle(g, m)
        assert verify_cycle(g, cert) and cert.length >= m, (m, n)
        checked += 1
    assert checked > 50


def test_erdos_gallai_shared_edge_cliques():
    for m in range(4, 12):
        a = m + 2
        edges = [(u, v) for u in range(a) for v in range(u + 1, a)]
        edges += [
            (u, v) for u in range(a - 2, 2 * a - 2) for v in range(u + 1, 2 * a - 2)
        ]
        g = Graph(2 * a - 2, set(edges))
        if 2 * g.num_edges >= (m - 1) * (g.n - 1) + 2:
            cert = erdos_gallai_cycle(g, m)
            assert verify_cycle(g, cert) and cert.length >= m
