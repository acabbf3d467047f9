"""Maximum matchings, barrier partitions, bipartite splits and matching walks."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Optional

from .cycles import CycleCertificate
from .errors import NoQualifyingComponent, PreconditionViolated
from .graphs import (
    Graph,
    _bits,
    _mask_of,
    bipartition,
    components,
    edge_key,
    odd_closed_walk,
)


@dataclass(frozen=True)
class MatchingCertificate:
    """A set of pairwise vertex-disjoint edges, canonically sorted."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple(sorted(edge_key(u, v) for u, v in self.edges))
        )

    @property
    def saturation(self) -> int:
        return 2 * len(self.edges)

    def vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    def check(self, g: Graph) -> bool:
        seen = set()
        for u, v in self.edges:
            if u in seen or v in seen or not g.has_edge(u, v):
                return False
            seen.update((u, v))
        return True


def _alternating_search(n: int, adj: list[list[int]], verts, match: list[int]):
    """Edmonds' alternating-tree search with blossom contraction.

    Works only on ``verts`` (ascending): ``adj`` must not leave them. Returns
    ``(find_path, used)``. ``find_path(root)`` grows the tree of the exposed
    vertex ``root``; if it meets another exposed vertex it augments ``match``
    in place and returns True. Otherwise ``used`` then marks the even (outer)
    vertices of root's tree, those reachable from ``root`` by an alternating
    path of even length.
    """
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    blossom = [False] * n

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def lca(a: int, b: int) -> int:
        seen = set()
        v = a
        while True:
            v = base[v]
            seen.add(v)
            if match[v] == -1:
                break
            v = p[match[v]]
        v = b
        while True:
            v = base[v]
            if v in seen:
                return v
            v = p[match[v]]

    def find_path(root: int) -> bool:
        for i in verts:
            used[i] = False
            p[i] = -1
            base[i] = i
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(v, to)
                    for i in verts:
                        blossom[i] = False
                    mark_path(v, curbase, to)
                    mark_path(to, curbase, v)
                    for i in verts:
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = p[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    return find_path, used


def _adj_lists(g: Graph, verts, mask: int) -> list[list[int]]:
    adj: list[list[int]] = [[]] * g.n  # vertices outside ``verts`` stay bare
    for v in verts:
        adj[v] = list(_bits(g._adj[v] & mask))
    return adj


def maximum_matching(g: Graph, within: Optional[Iterable[int]] = None) -> MatchingCertificate:
    """Maximum-cardinality matching (general graphs, blossom contraction).

    With ``within``, the matching of the subgraph induced on those vertices;
    the work is proportional to that subgraph, not to ``g``.
    """
    if within is None:
        mask, verts = g.vertices_mask(), range(g.n)
    else:
        mask = _mask_of(within)
        verts = list(_bits(mask))
    adj = _adj_lists(g, verts, mask)
    match = [-1] * g.n
    for v in verts:  # greedy warm start
        if match[v] == -1:
            for w in adj[v]:
                if match[w] == -1:
                    match[v] = w
                    match[w] = v
                    break
    find_path, _ = _alternating_search(g.n, adj, verts, match)
    for v in verts:
        if match[v] == -1:
            find_path(v)
    edges = [(v, match[v]) for v in verts if match[v] > v]
    return MatchingCertificate(tuple(edges))


def best_component_matching(
    g: Graph, require_nonbipartite: bool = False
) -> tuple[frozenset[int], MatchingCertificate]:
    """The component whose internal maximum matching saturates the most vertices.

    Ties go to the component with the smallest member.
    """
    best = None
    for comp in components(g):
        if best is not None and len(comp) <= best[1].saturation:
            continue  # saturation <= |comp|: this one cannot beat the best
        if require_nonbipartite and bipartition(g.subgraph_on(comp)) is not None:
            continue
        match = maximum_matching(g, within=comp)
        if best is None or match.saturation > best[1].saturation:
            best = (comp, match)
    if best is None:
        raise NoQualifyingComponent("no non-bipartite component exists")
    return best


def best_saturation(g: Graph, require_nonbipartite: bool = False) -> int:
    """Saturation of ``best_component_matching``, or 0 if no component qualifies."""
    try:
        return best_component_matching(g, require_nonbipartite)[1].saturation
    except NoQualifyingComponent:
        return 0


# ---------------------------------------------------------------------------
# Barrier partition for graphs without large matchings.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TuttePartition:
    """(S, T, U) split certifying the absence of a matching saturating n_target."""

    S: frozenset[int]
    T: frozenset[int]
    U: frozenset[int]
    n_target: int

    def verify(self, g: Graph) -> bool:
        n = g.n
        if self.S | self.T | self.U != frozenset(range(n)):
            return False
        if (self.S & self.T) or (self.S & self.U) or (self.T & self.U):
            return False
        t_mask = _mask_of(self.T)
        u_mask = _mask_of(self.U)
        if any(g._adj[v] & u_mask for v in self.T):
            return False
        max_deg_t = max((0, *((g._adj[v] & t_mask).bit_count() for v in self.T)))
        if (max_deg_t + 1) ** 2 > n:  # max degree on T must be <= sqrt(n) - 1
            return False
        slack = len(self.U) + 2 * len(self.S) - self.n_target
        return slack < 0 or slack * slack < n  # |U| + 2|S| < n_target + sqrt(n)


def _gallai_edmonds_d(g: Graph, matching: MatchingCertificate) -> int:
    """Mask of the vertices reachable from a ``matching``-exposed vertex by an
    even alternating path.

    When ``matching`` is maximum this is the Gallai-Edmonds set D, the
    vertices some maximum matching misses (Lovasz-Plummer, Matching Theory,
    1986). One alternating-tree search per exposed vertex; none may augment.
    """
    match = [-1] * g.n
    for u, v in matching.edges:
        match[u], match[v] = v, u
    verts = range(g.n)
    find_path, even = _alternating_search(
        g.n, _adj_lists(g, verts, g.vertices_mask()), verts, match
    )
    d_mask = 0
    for root in verts:
        if match[root] != -1:
            continue
        if find_path(root):
            raise AssertionError("internal: a maximum matching has an augmenting path")
        d_mask |= _mask_of(v for v in verts if even[v])
    return d_mask


def tutte_partition(g: Graph, n_target: int) -> TuttePartition:
    """Barrier-based partition built from the Gallai-Edmonds set D.

    D, the set of vertices missed by some maximum matching, comes from one
    blossom run and one alternating-tree search per exposed vertex (see
    ``_gallai_edmonds_d``). S is the neighbor set of D outside D; components
    of g - S are split by the sqrt(|V|) size threshold into T (small) and U
    (large).
    """
    matching = maximum_matching(g)
    nu = len(matching.edges)
    if 2 * nu >= n_target:
        raise PreconditionViolated(
            f"graph has a matching saturating {2 * nu} >= n_target={n_target}"
        )
    d_mask = _gallai_edmonds_d(g, matching)
    s_mask = 0
    for v in _bits(d_mask):
        s_mask |= g._adj[v]
    s_mask &= ~d_mask
    rest = g.vertices_mask() & ~s_mask
    threshold = math.isqrt(g.n)
    t_mask = u_mask = 0
    sub = g.subgraph_on(rest)
    for comp in components(sub):
        comp_mask = _mask_of(comp)
        if not comp_mask & rest:
            continue  # an S vertex showing up as an isolated singleton
        if len(comp) <= threshold:  # component size <= sqrt(|V|) goes to T
            t_mask |= comp_mask
        else:
            u_mask |= comp_mask
    part = TuttePartition(
        S=frozenset(_bits(s_mask)),
        T=frozenset(_bits(t_mask)),
        U=frozenset(_bits(u_mask)),
        n_target=n_target,
    )
    if not part.verify(g):
        raise AssertionError("internal: barrier partition failed its invariants")
    return part


# ---------------------------------------------------------------------------
# Bipartite / non-bipartite component split.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BipartiteSplit:
    """V' = union of bipartite components, V'' = the rest, with an edge bound."""

    Vprime: frozenset[int]
    Vdoubleprime: frozenset[int]
    alpha_bound: Fraction  # alpha * n_scale

    def verify(self, g: Graph) -> bool:
        vp, vpp = _mask_of(self.Vprime), _mask_of(self.Vdoubleprime)
        if vp | vpp != g.vertices_mask() or vp & vpp:
            return False
        if any(g._adj[v] & vpp for v in self.Vprime):
            return False
        if bipartition(g.subgraph_on(vp)) is None:
            return False
        edges2 = sum((g._adj[v] & vpp).bit_count() for v in self.Vdoubleprime)
        return Fraction(edges2, 2) <= Fraction(1, 2) * self.alpha_bound * len(
            self.Vdoubleprime
        )


def bipartite_split(g: Graph, alpha: Fraction | int, n_scale: int) -> BipartiteSplit:
    """Split into bipartite components' union and the rest.

    Precondition: no non-bipartite component has a matching saturating
    alpha*n_scale vertices; violated preconditions raise with the offending
    matching attached.
    """
    bound = Fraction(alpha) * n_scale
    vprime: set[int] = set()
    vdouble: set[int] = set()
    for comp in components(g):
        sub = g.subgraph_on(comp)
        if bipartition(sub) is not None:
            vprime |= comp
            continue
        match = maximum_matching(g, within=comp)
        if match.saturation >= bound:
            raise PreconditionViolated(
                f"non-bipartite component has a matching saturating "
                f"{match.saturation} >= {bound}",
                witness=(comp, match),
            )
        vdouble |= comp
    split = BipartiteSplit(frozenset(vprime), frozenset(vdouble), bound)
    if not split.verify(g):
        raise AssertionError("internal: bipartite split failed its invariants")
    return split


# ---------------------------------------------------------------------------
# Closed walks of prescribed parity through a matching.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedWalk:
    """Cyclic vertex sequence w0..w_{p-1} (closing edge implicit, repeats allowed)."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)

    def check(
        self,
        g: Graph,
        matching: Optional[MatchingCertificate] = None,
        parity: Optional[Literal["odd", "even"]] = None,
        component: Optional[frozenset[int]] = None,
    ) -> bool:
        vs = self.vertices
        if len(vs) < 1:
            return False
        pairs = {
            edge_key(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))
        }
        if any(not g.has_edge(u, v) for u, v in pairs):
            return False
        if parity is not None and len(vs) % 2 != (1 if parity == "odd" else 0):
            return False
        if matching is not None and any(e not in pairs for e in matching.edges):
            return False
        if component is not None and any(v not in component for v in vs):
            return False
        return True


def matching_along_cycle(cert: CycleCertificate) -> MatchingCertificate:
    """Alternate edges of a cycle: saturates 2*floor(len/2) vertices."""
    vs = cert.vertices
    edges = [(vs[i], vs[i + 1]) for i in range(0, len(vs) - 1, 2)]
    return MatchingCertificate(tuple(edges))


def closed_walk_through_matching(
    g: Graph, matching: MatchingCertificate, parity: Literal["odd", "even"]
) -> ClosedWalk:
    """Closed walk of the requested parity traversing every matching edge.

    Builds a connecting tree over the matching edges (plus, for odd parity,
    a vertex of an odd cycle), doubles every tree edge, and splices the odd
    cycle in at its anchor.
    """
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be odd or even, got {parity!r}")
    if not matching.edges:
        raise PreconditionViolated("matching is empty; no component to anchor a walk")
    if not matching.check(g):
        raise PreconditionViolated("matching edges are not a matching of the graph")
    comps = components(g)
    endpoints = matching.vertices()
    holders = [c for c in comps if c & endpoints]
    if len(holders) != 1:
        raise PreconditionViolated("matching edges span more than one component")
    comp = holders[0]
    comp_mask = _mask_of(comp)
    sub = g.subgraph_on(comp_mask)

    cycle = None
    if parity == "odd":
        cycle = odd_closed_walk(sub)
        if cycle is None:
            raise PreconditionViolated(
                "odd walk requested but the component is bipartite"
            )
        cycle_edges = {
            edge_key(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
        }
        if all(e in cycle_edges for e in matching.edges):
            return ClosedWalk(tuple(cycle))

    # Forest of required pieces: one group per matching edge, plus the odd
    # cycle anchor when needed.
    groups: list[set[int]] = [set(e) for e in matching.edges]
    tree_adj: dict[int, set[int]] = {}

    def tree_add(u: int, v: int) -> None:
        tree_adj.setdefault(u, set()).add(v)
        tree_adj.setdefault(v, set()).add(u)

    for u, v in matching.edges:
        tree_add(u, v)
    anchor = None
    if parity == "odd":
        anchor = cycle[0]
        if not any(anchor in grp for grp in groups):
            groups.append({anchor})

    group_of = {}
    for gi, grp in enumerate(groups):
        for v in grp:
            group_of[v] = gi

    while len(groups) > 1:
        # BFS from group 0 through the component to the closest other group.
        sources = sorted(groups[0])
        parent = {v: None for v in sources}
        queue = deque(sources)
        hit = None
        while queue and hit is None:
            v = queue.popleft()
            for w in sorted(_bits(sub._adj[v])):
                if w in parent:
                    continue
                parent[w] = v
                if w in group_of and group_of[w] != 0:
                    hit = w
                    break
                queue.append(w)
        if hit is None:
            raise AssertionError("internal: groups share a component but BFS failed")
        other = group_of[hit]
        path = [hit]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        for a, b in zip(path, path[1:]):
            tree_add(a, b)
        merged = groups[0] | groups[other] | set(path)
        groups = [merged] + [grp for i, grp in enumerate(groups) if i not in (0, other)]
        group_of = {}
        for gi, grp in enumerate(groups):
            for v in grp:
                group_of[v] = gi

    root = anchor if anchor is not None else min(tree_adj)
    tour = [root]

    def dfs(v: int, par: Optional[int]) -> None:
        for w in sorted(tree_adj[v]):
            if w != par:
                tour.append(w)
                dfs(w, v)
                tour.append(v)

    dfs(root, None)
    # tour starts and ends at root with every tree edge used twice (even).
    walk = tour[:-1] if len(tour) > 1 else tour
    if parity == "odd":
        walk = walk + cycle  # cycle starts at the anchor == root: odd splice
    out = ClosedWalk(tuple(walk))
    if not out.check(g, matching, parity, comp):
        raise AssertionError("internal: constructed walk failed its predicate")
    return out
