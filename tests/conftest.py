"""Shared fixtures and independent brute-force oracles.

The oracles deliberately use different algorithms from the library code
(bitmask DP over vertex subsets for matchings and circumference, pruned
permutation enumeration for cycles) so the two sides can check each other.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from cycleramsey.constructions import ConstructionReport
from cycleramsey.cycles import _Budget
from cycleramsey.graphs import (
    EdgeColoring,
    Graph,
    _bits,
    _mask_of,
    _toggle_edge,
    _uniform_colors,
    edge_key,
)
from cycleramsey.matchings import _matched, _mates
from cycleramsey.search import (
    T_END,
    T_START,
    ArrowVerdict,
    CycleTarget,
    MatchingTarget,
    SearchStats,
    _energy_of_color,
    _header,
    _witness_coloring,
)


@pytest.fixture
def petersen() -> Graph:
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    return Graph(10, edges)


def with_edge(g: Graph, u: int, v: int) -> Graph:
    """``g`` plus the edge (u, v)."""
    masks = list(g._adj)
    masks[u] |= 1 << v
    masks[v] |= 1 << u
    return Graph._from_masks(g.n, masks)


def subgraph_on(g: Graph, vertices) -> Graph:
    """``g`` on the same vertex range, keeping only the edges inside
    ``vertices`` (vertices or a vertex mask)."""
    keep = vertices if isinstance(vertices, int) else _mask_of(vertices)
    return Graph._from_masks(g.n, [row & keep if keep >> v & 1 else 0
                                   for v, row in enumerate(g._adj)])


def host_graph(c: EdgeColoring) -> Graph:
    """The union of ``c``'s color classes: its present pairs."""
    rows = zip(*(g._adj for g in c.classes))
    return Graph._from_masks(c.n, [sum(r) for r in rows])  # disjoint classes


def all_verified(report: ConstructionReport) -> bool:
    return all(c.verified is True for c in report.claims)


def without_vertex(g: Graph, v: int) -> Graph:
    """``g`` with every edge at ``v`` removed (``v`` stays, isolated)."""
    return subgraph_on(g, g.vertices_mask() & ~(1 << v))


def neighbors(g: Graph, v: int) -> set[int]:
    return set(_bits(g._adj[v]))


def recolored(c: EdgeColoring, edge: tuple[int, int], color: int) -> EdgeColoring:
    """``c`` with the present ``edge`` moved into class ``color``."""
    u, v = edge_key(*edge)
    masks = [list(g._adj) for g in c.classes]
    _toggle_edge(u, v, masks[c.color_of(u, v) - 1], masks[color - 1])
    return EdgeColoring._from_masks(c.n, masks, c.holes, c.deleted)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def oracle_matching_size(g: Graph) -> int:
    """Maximum matching size by exhaustive subset DP (independent of blossom)."""
    adj = [g._adj[v] for v in range(g.n)]

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if not mask:
            return 0
        v = (mask & -mask).bit_length() - 1
        out = best(mask & ~(1 << v))
        m = adj[v] & mask
        while m:
            b = m & -m
            w = b.bit_length() - 1
            m ^= b
            out = max(out, 1 + best(mask & ~(1 << v) & ~(1 << w)))
        return out

    result = best((1 << g.n) - 1)
    best.cache_clear()
    return result


def oracle_longest_cycle(g: Graph, parity: str = "any") -> int:
    """Maximum cycle length by permutation brute force (0 if acyclic).

    Enumerates vertex subsets by descending size; within a subset, fixes the
    smallest vertex first and walks permutations of the rest with early
    adjacency breaks, skipping each cycle's reflection.
    """
    want = {
        "any": (0, 1),
        "even": (0,),
        "odd": (1,),
    }[parity]
    verts = list(range(g.n))
    for k in range(g.n, 2, -1):
        if k % 2 not in want:
            continue
        for subset in combinations(verts, k):
            a = subset[0]
            rest = subset[1:]
            for perm in permutations(rest):
                if perm[0] > perm[-1]:
                    continue  # reflection
                if not g.has_edge(a, perm[0]) or not g.has_edge(perm[-1], a):
                    continue
                if all(g.has_edge(perm[i], perm[i + 1]) for i in range(k - 2)):
                    return k
    return 0


def oracle_circumference(g: Graph) -> dict[str, int]:
    """Longest cycle length in each parity ("any", "odd", "even"; 0 for
    none) by subset DP, with no budget.

    For each anchor a, the layer of size k maps every k-vertex set S that a
    simple path from a can visit exactly, through vertices above a only, to
    the mask of that path's possible endpoints; S closes a cycle of k
    vertices when one endpoint is adjacent to a.
    """
    best = {"odd": 0, "even": 0}
    for a in range(g.n):
        above = [g._adj[v] >> a << a for v in range(g.n)]
        layer = {1 << a: 1 << a}
        while layer:
            grown: dict[int, int] = {}
            for s, ends in layer.items():
                size = s.bit_count()
                if size >= 3 and ends & above[a]:
                    key = "odd" if size % 2 else "even"
                    best[key] = max(best[key], size)
                for v in range(a, g.n):
                    step = above[v] & ~s if ends >> v & 1 else 0
                    while step:
                        low = step & -step
                        grown[s | low] = grown.get(s | low, 0) | low
                        step ^= low
            layer = grown
    return {"any": max(best.values()), **best}


def has_cycle_brute(n, edges, length):
    """Any cycle of exactly this many vertices, by walking every simple path
    from each anchor through larger vertices only."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)

    def walk(anchor, cur, seen):
        if len(seen) == length:
            return anchor in nbrs[cur]
        return any(
            walk(anchor, w, seen | {w})
            for w in nbrs[cur]
            if w > anchor and w not in seen
        )

    return any(walk(a, a, {a}) for a in range(n))


def count_cycles_brute(adj, length):
    """The cycles of exactly this many vertices in the graph of mask rows
    ``adj``, by walking every simple path from each anchor through larger
    vertices only; each cycle is walked once in each direction."""
    nbrs = [[w for w in range(len(adj)) if row >> w & 1] for row in adj]

    def walk(anchor, cur, seen):
        if len(seen) == length:
            return int(anchor in nbrs[cur])
        return sum(
            walk(anchor, w, seen | {w})
            for w in nbrs[cur]
            if w > anchor and w not in seen
        )

    return sum(walk(a, a, {a}) for a in range(len(adj))) // 2


def oracle_deficiency(g: Graph) -> int:
    """max over S of (odd components of g-S) - |S|, by full enumeration."""
    best = 0
    for r in range(g.n + 1):
        for s_set in combinations(range(g.n), r):
            s_mask = 0
            for v in s_set:
                s_mask |= 1 << v
            rest = g.vertices_mask() & ~s_mask
            odd = 0
            unseen = rest
            while unseen:
                start = unseen & -unseen
                comp = start
                frontier = start
                while frontier:
                    grow = 0
                    m = frontier
                    while m:
                        b = m & -m
                        grow |= g._adj[b.bit_length() - 1]
                        m ^= b
                    frontier = grow & rest & ~comp
                    comp |= frontier
                if comp.bit_count() % 2:
                    odd += 1
                unseen &= ~comp
            best = max(best, odd - r)
    return best


def reference_anneal(inst, schedule, seed, initial=None) -> dict:
    """``arrow_randomized(inst, schedule, seed, initial).to_dict()`` without
    incremental energies: the same random stream, but after each proposal
    every class is rebuilt from the assignment and rescored from scratch,
    with a fresh maximum matching for each matching target. An exact
    ``C<len>`` class scores len times its len-cycles, counted by
    ``count_cycles_brute``, so the replay shares no code with the
    annealer's path counter."""
    edges = inst.present_edges()
    n, k, targets = inst.n, inst.k, inst.targets
    bud = _Budget(float("inf"))

    def classes(assignment):
        masks = [[0] * n for _ in range(k + 1)]
        for (u, v), c in zip(edges, assignment):
            _toggle_edge(u, v, masks[c])
        return masks

    def score(adj, t):
        if isinstance(t, CycleTarget) and t.exact:
            return t.length * count_cycles_brute(adj, t.length)
        matched = _matched(_mates(adj)) if isinstance(t, MatchingTarget) else None
        return _energy_of_color(n, adj, t, bud, matched)

    def energy(assignment):
        masks = classes(assignment)
        return sum(score(masks[c], t) for c, t in enumerate(targets, 1))

    rng = random.Random(seed)
    stats = SearchStats()
    header = _header(inst, "randomized", seed=seed, schedule={
        "steps": schedule.steps, "restarts": schedule.restarts})
    best = None
    for restart in range(schedule.restarts):
        stats.restarts = restart + 1
        if restart == 0 and initial is not None:
            assignment = [initial.color_of(*e) or 0 for e in edges]
        else:
            assignment = list(_uniform_colors(rng, len(edges), k))
        total = energy(assignment)
        best = total if best is None else min(best, total)
        for step in range(schedule.steps):
            if total == 0:
                break
            stats.proposals += 1
            frac = step / max(1, schedule.steps - 1)
            temp = T_START * (T_END / T_START) ** frac
            i = rng.randrange(len(edges))
            opts = [c for c in range(1, k + 1) if c != assignment[i]]
            if assignment[i] != 0 and assignment.count(0) < inst.deleted_budget:
                opts.append(0)
            trial = assignment[:]
            trial[i] = rng.choice(opts)
            delta = energy(trial) - total
            if delta <= 0 or rng.random() < pow(
                2.718281828459045, -delta / max(temp, 1e-9)
            ):
                assignment, total = trial, total + delta
                best = min(best, total)
        if total == 0:
            stats.best_energy = 0
            witness = _witness_coloring(inst, edges, assignment, classes(assignment))
            return ArrowVerdict(False, witness, stats, header).to_dict()
    stats.best_energy = best
    return ArrowVerdict(None, None, stats, header).to_dict()
