import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleramsey.graphs import (
    EdgeColoring,
    Graph,
    HoleSpec,
    _blocks,
    _uniform_colors,
    apply_holes_and_deletions,
    bipartition,
    coloring_from_dict,
    complete_graph,
    components,
    degree_stats,
    dump_coloring,
    dump_graph,
    load_coloring,
    load_graph,
    odd_closed_walk,
)

from conftest import host_graph, neighbors, random_graph


def test_complete_graph_edge_counts():
    assert complete_graph(1).num_edges == 0
    assert complete_graph(4).num_edges == 6
    assert complete_graph(10).num_edges == 45


def test_complete_graph_range_errors():
    with pytest.raises(ValueError):
        complete_graph(0)
    with pytest.raises(ValueError):
        complete_graph(513)


def test_holes_and_deletions():
    g = apply_holes_and_deletions(complete_graph(4), HoleSpec(({0, 1, 2},)))
    assert g.num_edges == 3
    assert sorted(g.edges()) == [(0, 3), (1, 3), (2, 3)]
    g2 = apply_holes_and_deletions(
        complete_graph(5), HoleSpec(({0, 1}, {1, 2}))
    )
    assert g2.num_edges == 8
    g3 = apply_holes_and_deletions(complete_graph(6), HoleSpec(), [(0, 1)])
    assert g3.num_edges == 14


def test_holes_idempotent():
    holes = HoleSpec(({0, 1, 2}, {2, 3}))
    deleted = [(4, 5)]
    g1 = apply_holes_and_deletions(complete_graph(6), holes, deleted)
    g2 = apply_holes_and_deletions(g1, holes, deleted)
    assert g1 == g2


def test_components_examples():
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert components(two_triangles) == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
    assert components(Graph(5)) == [frozenset({v}) for v in range(5)]
    assert len(components(Graph(4, [(0, 1), (1, 2), (2, 3)]))) == 1


def test_bipartition_examples():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    sides = bipartition(c4)
    assert sides is not None and {len(sides[0]), len(sides[1])} == {2}
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert bipartition(c5) is None
    walk = odd_closed_walk(c5)
    assert walk is not None and len(walk) % 2 == 1
    # K_{3,3} minus a perfect matching: still bipartite with sides 3, 3
    edges = [(u, 3 + v) for u in range(3) for v in range(3) if u != v]
    sides = bipartition(Graph(6, edges))
    assert sides is not None
    assert sorted(map(len, sides)) == [3, 3]


def test_odd_walk_is_simple_odd_cycle():
    rng = random.Random(11)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.8))
        sides = bipartition(g)
        walk = odd_closed_walk(g)
        assert (sides is None) == (walk is not None)
        if walk is not None:
            assert len(walk) % 2 == 1
            assert len(set(walk)) == len(walk)
            assert all(
                g.has_edge(walk[i], walk[(i + 1) % len(walk)])
                for i in range(len(walk))
            )
        else:
            a, b = sides
            assert not any(g.has_edge(u, v) for u in a for v in a if u < v)
            assert not any(g.has_edge(u, v) for u in b for v in b if u < v)


def test_degree_stats():
    from fractions import Fraction

    assert degree_stats(complete_graph(4)) == degree_stats(complete_graph(4))
    stats = degree_stats(Graph(6, [(0, i) for i in range(1, 6)]))
    assert (stats.minimum, stats.maximum, stats.average) == (1, 5, Fraction(5, 3))
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert degree_stats(c6).average == 2


@given(st.integers(2, 30), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_components_partition_property(n, rnd):
    g = random_graph(rnd, n, rnd.uniform(0, 0.5))
    comps = components(g)
    seen = set()
    for comp in comps:
        assert not comp & seen
        seen |= comp
        # no edges leave the component
        for v in comp:
            assert neighbors(g, v) <= comp
    assert seen == set(range(n))


def _component_count(g, vertices):
    """Components of the subgraph of g induced on the set ``vertices``."""
    left, count = set(vertices), 0
    while left:
        count += 1
        frontier = [left.pop()]
        while frontier:
            near = neighbors(g, frontier.pop()) & left
            left -= near
            frontier += near
    return count


def test_blocks_match_a_deletion_oracle():
    # seeded graphs with isolated vertices and several components, restricted
    # to random vertex subsets; each block is checked against its definition
    rng = random.Random(61)
    for trial in range(1500):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.uniform(0.05, 0.6))
        active = {v for v in range(n) if rng.random() < 0.8}
        mask = sum(1 << v for v in active)
        blocks = [{v for v in range(n) if b >> v & 1} for b in _blocks(g._adj, mask)]
        # the blocks partition the edges inside ``active``
        for u, v in g.edges():
            if u in active and v in active:
                assert sum(u in b and v in b for b in blocks) == 1, (trial, u, v)
        for b in blocks:
            assert len(b) >= 2 and b <= active, trial
            # connected, and still connected without any one of its vertices
            assert _component_count(g, b) == 1, trial
            assert all(_component_count(g, b - {v}) == 1 for v in b), trial
        # the vertices in two or more blocks are exactly the cut vertices
        shared = {v for v in active if sum(v in b for b in blocks) >= 2}
        whole = _component_count(g, active)
        cuts = {v for v in active if _component_count(g, active - {v}) > whole}
        assert shared == cuts, trial


def _coloring(n, k, colors, holes=(), deleted=()):
    """A coloring built through the file form from a pair -> color map."""
    return coloring_from_dict({
        "n": n,
        "k": k,
        "holes": [sorted(h) for h in holes],
        "deleted": [list(e) for e in deleted],
        "edges": [[u, v, c] for (u, v), c in colors.items()],
    })


def test_coloring_validation():
    _coloring(3, 2, {(0, 1): 1, (0, 2): 2, (1, 2): 1})
    with pytest.raises(ValueError, match="no color"):  # missing edge color
        _coloring(3, 2, {(0, 1): 1, (0, 2): 2})
    for bad in (0, 3):  # color out of range
        with pytest.raises(ValueError, match="outside 1..2"):
            _coloring(3, 2, {(0, 1): 1, (0, 2): 2, (1, 2): bad})
    with pytest.raises(ValueError, match="listed twice"):  # duplicate edge
        load_coloring('{"n": 3, "k": 2, "edges": '
                      '[[0, 1, 1], [0, 2, 2], [1, 2, 1], [1, 0, 2]]}')
    with pytest.raises(ValueError, match="carries color"):  # edge inside a hole
        _coloring(3, 2, {(0, 1): 1, (0, 2): 2, (1, 2): 1}, holes=({1, 2},))
    # valid with the hole edge removed from the map
    _coloring(3, 2, {(0, 1): 1, (0, 2): 2}, holes=({1, 2},))

    # the same rules on class graphs directly
    def classes(*edge_lists, n=3):
        return tuple(Graph(n, edges) for edges in edge_lists)

    EdgeColoring(3, 2, classes([(0, 1), (1, 2)], [(0, 2)]))
    with pytest.raises(ValueError, match="two colors"):  # overlapping classes
        EdgeColoring(3, 2, classes([(0, 1), (1, 2)], [(0, 2), (1, 2)]))
    with pytest.raises(ValueError, match=r"absent edge \(1, 2\) carries color 1"):
        EdgeColoring(3, 2, classes([(0, 1), (1, 2)], [(0, 2)]),
                     holes=HoleSpec(({1, 2},)))
    with pytest.raises(ValueError, match=r"absent edge \(0, 2\) carries color 2"):
        EdgeColoring(3, 2, classes([(0, 1), (1, 2)], [(0, 2)]),
                     deleted=frozenset({(2, 0)}))
    EdgeColoring(3, 2, classes([(0, 1), (1, 2)], []), deleted=frozenset({(0, 2)}))
    with pytest.raises(ValueError, match=r"present edge \(0, 2\) has no color"):
        EdgeColoring(3, 2, classes([(0, 1), (1, 2)], []))
    with pytest.raises(ValueError, match="3 color classes for k=2"):
        EdgeColoring(3, 2, classes([(0, 1)], [(1, 2)], [(0, 2)]))
    with pytest.raises(ValueError, match="1 color classes for k=2"):
        EdgeColoring(3, 2, classes([(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(ValueError, match="has 4 vertices"):  # class on the wrong n
        EdgeColoring(3, 2, (Graph(4, [(0, 1), (1, 2)]), Graph(3, [(0, 2)])))


def test_class_masks_must_be_symmetric():
    # pair (0, 1) held in color 1 by row 0 and in color 2 by row 1: each
    # class holds it at one end only, and color_of would answer 1
    with pytest.raises(ValueError, match=r"color 1 holds edge \(0, 1\) at one end only"):
        EdgeColoring._from_masks(2, [[0b10, 0], [0, 0b01]])
    with pytest.raises(ValueError, match=r"color 2 holds edge \(1, 3\) at one end only"):
        EdgeColoring._from_masks(4, [[0b1110, 0b0101, 0b0011, 0b0001],
                                     [0, 0b1000, 0b1000, 0b0100]])
    # the symmetric masks of the same pairs are accepted
    EdgeColoring._from_masks(4, [[0b1110, 0b0101, 0b0011, 0b0001],
                                 [0, 0b1000, 0b1000, 0b0110]])


def test_color_classes_partition_host():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 10)
        k = rng.choice((2, 3))
        hole = frozenset(rng.sample(range(n), rng.randint(0, n)))
        holes = HoleSpec((hole,))
        edges = [[] for _ in range(k)]
        for u in range(n):
            for v in range(u + 1, n):
                if not (u in hole and v in hole):
                    edges[rng.randint(1, k) - 1].append((u, v))
        col = EdgeColoring(n, k, tuple(Graph(n, e) for e in edges), holes)
        total = sum(col.color_class(i).num_edges for i in range(1, k + 1))
        assert total == host_graph(col).num_edges == sum(map(len, edges))
        for i, es in enumerate(edges, 1):
            assert all(col.color_of(v, u) == i for u, v in es)


def test_graph_file_roundtrip():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 15), rng.uniform(0, 1))
        assert load_graph(dump_graph(g)) == g


def test_coloring_file_roundtrip():
    col = _coloring(
        4, 3, {(0, 1): 1, (0, 3): 2, (1, 3): 3, (2, 3): 1}, holes=({0, 2}, {1, 2})
    )
    assert load_coloring(dump_coloring(col)) == col
    # deletions too
    col2 = _coloring(3, 2, {(0, 1): 1, (1, 2): 2}, deleted=((0, 2),))
    assert load_coloring(dump_coloring(col2)) == col2
    with pytest.raises(ValueError):  # edge list must cover present pairs exactly
        load_coloring('{"n": 3, "k": 2, "holes": [], "deleted": [], '
                      '"edges": [[0, 1, 1]]}')
    # seeded colorings with overlapping holes and deletions
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(2, 12)
        k = rng.choice((2, 3))
        holes = HoleSpec(tuple(
            frozenset(rng.sample(range(n), rng.randint(0, n)))
            for _ in range(rng.randint(0, 3))
        ))
        present = apply_holes_and_deletions(complete_graph(n), holes).edges()
        deleted = rng.sample(present, rng.randint(0, len(present)))
        colors = {e: rng.randint(1, k) for e in present if e not in deleted}
        col = _coloring(n, k, colors, holes.holes, deleted)
        text = dump_coloring(col)
        assert load_coloring(text) == col and dump_coloring(load_coloring(text)) == text
        assert all(col.color_of(*e) == c for e, c in colors.items())
        assert all(col.color_of(*e) is None for e in deleted)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("count", [0, 1, 6007])
def test_uniform_colors_draw_the_randint_stream(k, count):
    # same colors as count calls of randint(1, k), and the rng left in the
    # same state; tier-1 runs on every supported interpreter, so a
    # getrandbits word layout that differs would show here
    for seed in range(40 if count > 1 else 400):
        ours, ref = random.Random(seed), random.Random(seed)
        colors = _uniform_colors(ours, count, k)
        assert list(colors) == [ref.randint(1, k) for _ in range(count)]
        assert ours.random() == ref.random()
