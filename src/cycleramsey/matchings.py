"""Maximum matchings, barrier partitions, bipartite splits and matching walks."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Optional, Sequence

from .cycles import CycleCertificate
from .errors import NoQualifyingComponent, PreconditionViolated
from .graphs import (
    Graph,
    _bits,
    _component_masks,
    _mask_of,
    _reachable,
    _route,
    _toggle_edge,
    _two_color,
    edge_key,
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


def _alternating_search(adj: Sequence[int], mask: int, match: list[int]):
    """Edmonds' alternating-tree search with blossom contraction.

    Works only on the vertices of ``mask``, reading their neighbours in
    ``adj & mask``. Returns ``(find_path, used, tree)``. ``find_path(root)``
    grows the tree of the exposed vertex ``root``; if it meets another
    exposed vertex it augments ``match`` in place and returns True.
    Otherwise ``tree`` then lists the vertices of root's tree (root, its odd
    vertices and their mates), and ``used`` marks its even (outer) ones,
    those reachable from ``root`` by an alternating path of even length.

    Only tree vertices are ever parents, bases or blossom members, so each
    root resets, and each contraction scans, only the previous tree: the
    cost of a root is that of its tree, not of ``mask``. A contraction
    queues the tree's new even vertices in ascending order, as a scan of
    ``mask`` would, so the search takes the same steps.
    """
    n = len(adj)
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    blossom = [False] * n
    tree: list[int] = []

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
        for i in tree:
            used[i] = False
            p[i] = -1
            base[i] = i
        tree[:] = [root]
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            rest = adj[v] & mask
            while rest:
                low = rest & -rest
                rest ^= low
                to = low.bit_length() - 1
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(v, to)
                    for i in tree:
                        blossom[i] = False
                    mark_path(v, curbase, to)
                    mark_path(to, curbase, v)
                    tree.sort()  # ascending, as a scan of the mask would go
                    for i in tree:
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    tree.append(to)
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
                    tree.append(match[to])
                    q.append(match[to])
        return False

    return find_path, used, tree


def _mates(adj: Sequence[int], mask: Optional[int] = None) -> list[int]:
    """Mate array (-1: exposed) of a maximum matching of ``adj`` on ``mask``.

    A greedy warm start, then Edmonds' search from each exposed root. By
    Berge's lemma an augmenting path joins two exposed vertices, each with a
    neighbour in ``mask``; so the roots stop once fewer than two such
    vertices remain, and each augmentation matches two of them. Stopping
    changes no result: a failing ``find_path`` only grows and contracts its
    tree (``p``, ``base``, ``used``) and never writes ``match``.
    """
    mask = (1 << len(adj)) - 1 if mask is None else mask
    verts = list(_bits(mask))
    match = [-1] * len(adj)
    free = mask
    for v in verts:  # greedy warm start: v takes its smallest free neighbour
        pick = adj[v] & free if free >> v & 1 else 0
        if pick:
            w = (pick & -pick).bit_length() - 1
            match[v], match[w] = w, v
            free &= ~(1 << v | 1 << w)
    exposed = sum(1 for v in _bits(free) if adj[v] & mask)  # possible path ends
    if exposed > 1:
        find_path = _alternating_search(adj, mask, match)[0]
        for v in verts:
            if match[v] == -1 and adj[v] & mask and find_path(v):
                exposed -= 2
                if exposed < 2:
                    break
    return match


def maximum_matching(
    g: Graph, within: Optional[Iterable[int] | int] = None
) -> MatchingCertificate:
    """Maximum-cardinality matching (general graphs, blossom contraction).

    With ``within`` (vertices or a vertex mask), the matching of the
    subgraph induced on those vertices; the work is proportional to that
    subgraph, not to ``g``.
    """
    if within is not None and not isinstance(within, int):
        within = _mask_of(within)
    match = _mates(g._adj, within)
    return MatchingCertificate(tuple((v, w) for v, w in enumerate(match) if w > v))


def _repair_matching(
    adj: Sequence[int], match: list[int], matched: int, u: int, v: int
) -> int:
    """Make ``match``, a maximum matching of ``adj`` before (u,v) was flipped,
    maximum again, in place; returns its matched mask after the flip, given
    ``matched``, the mask before it.
    By Berge's lemma a matching is maximum iff it has no augmenting path; a
    flip moves the matching number by at most one. Adding (u,v) keeps
    ``match`` valid, and a new augmenting path uses (u,v): it lies in their
    component and starts at an exposed end of (u,v) if there is one.
    Removing a matched (u,v) exposes u and v; an augmenting path then ends
    at one of them, as any other was one before. Edmonds' single-root
    search finds a path from its root if there is one, and an augmentation
    matches just its two ends."""
    present, ends = adj[u] >> v & 1, 1 << u | 1 << v
    if present and match[u] == -1 == match[v]:
        match[u], match[v] = v, u
        return matched | ends
    if not present and match[u] == v:
        match[u] = match[v] = -1
        matched &= ~ends
    elif not present or len(match) - matched.bit_count() < 2:
        return matched  # an unmatched edge was removed, or nothing can augment
    comp = _reachable(adj, ends, (1 << len(adj)) - 1)
    exposed = comp & ~matched
    if exposed & (exposed - 1):  # two or more
        find_path = _alternating_search(adj, comp, match)[0]
        roots = [w for w in (u, v) if match[w] == -1]
        if any(find_path(root) for root in roots or _bits(exposed)):  # augments once
            matched |= _mask_of(w for w in _bits(exposed) if match[w] != -1)
    return matched


def _matched(match: list[int]) -> int:
    """The mask of the vertices that ``match`` matches: all but the exposed."""
    return ((1 << len(match)) - 1) ^ sum(1 << v for v, w in enumerate(match) if w == -1)


def _best_matched(adj: Sequence[int], matched: int, nonbip: bool = False):
    """(saturation, mask) of the component (with ``nonbip``: non-bipartite) that
    a maximum matching saturates most, ties to the smallest member, or (0, 0);
    components share no edges, so the matching is maximum on each.
    ``matched`` is the mask of its matched vertices. The returned mask is the
    part of the best component that holds all its matched vertices.

    Without ``nonbip``, a flood from the lowest matched vertex stops once it
    has reached them all: their component is then the best, saturating all
    of them, and the mask is the part flooded by then. Otherwise the
    components are walked one by one, and the mask is a whole component.
    """
    comp = todo = 0 if nonbip else matched & -matched  # ``todo``: not yet expanded
    while todo and matched & ~comp:
        low = todo & -todo
        grow = adj[low.bit_length() - 1] & ~comp
        comp |= grow
        todo ^= low | grow
    if comp and not matched & ~comp:
        return matched.bit_count(), comp
    best, where = 0, 0
    for comp in _component_masks(adj, (1 << len(adj)) - 1):
        sat = (matched & comp).bit_count()
        if (sat > best or not where) and (not nonbip or _two_color(adj, comp)[1]):
            best, where = sat, comp
    return best, where


def _saturation(adj: Sequence[int], nonbip: bool = False) -> int:
    """The saturation of ``_best_matched`` under a fresh maximum matching."""
    return _best_matched(adj, _matched(_mates(adj)), nonbip)[0]


def best_component_matching(
    g: Graph, require_nonbipartite: bool = False
) -> tuple[frozenset[int], MatchingCertificate]:
    """The component whose internal maximum matching saturates the most vertices.

    Ties go to the component with the smallest member.
    """
    match = _mates(g._adj)
    part = _best_matched(g._adj, _matched(match), require_nonbipartite)[1]
    if not part:
        raise NoQualifyingComponent("no non-bipartite component exists")
    comp = _reachable(g._adj, part, g.vertices_mask())
    edges = tuple((v, match[v]) for v in _bits(comp) if match[v] > v)
    return frozenset(_bits(comp)), MatchingCertificate(edges)


def best_saturation(g: Graph, require_nonbipartite: bool = False) -> int:
    """Saturation of ``best_component_matching``, or 0 if no component qualifies."""
    return _saturation(g._adj, require_nonbipartite)


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


def _gallai_edmonds_d(g: Graph, match: list[int]) -> int:
    """Mask of the vertices reachable from a vertex that the mate array
    ``match`` leaves exposed by an even alternating path.

    When ``match`` is maximum this is the Gallai-Edmonds set D, the
    vertices some maximum matching misses (Lovasz-Plummer, Matching Theory,
    1986). One alternating-tree search per exposed vertex; none may augment.
    """
    find_path, even, tree = _alternating_search(g._adj, g.vertices_mask(), match)
    d_mask = 0
    for root in range(g.n):
        if match[root] != -1:
            continue
        if find_path(root):
            raise AssertionError("internal: a maximum matching has an augmenting path")
        d_mask |= _mask_of(v for v in tree if even[v])
    return d_mask


def tutte_partition(g: Graph, n_target: int) -> TuttePartition:
    """Barrier-based partition built from the Gallai-Edmonds set D.

    D, the set of vertices missed by some maximum matching, comes from one
    blossom run and one alternating-tree search per exposed vertex (see
    ``_gallai_edmonds_d``). S is the neighbor set of D outside D; components
    of g - S are split by the sqrt(|V|) size threshold into T (small) and U
    (large).
    """
    match = _mates(g._adj)
    saturation = g.n - match.count(-1)
    if saturation >= n_target:
        raise PreconditionViolated(
            f"graph has a matching saturating {saturation} >= n_target={n_target}"
        )
    d_mask = _gallai_edmonds_d(g, match)
    s_mask = 0
    for v in _bits(d_mask):
        s_mask |= g._adj[v]
    s_mask &= ~d_mask
    rest = g.vertices_mask() & ~s_mask
    threshold = math.isqrt(g.n)
    t_mask = u_mask = 0
    for comp in _component_masks(g._adj, rest):
        if comp.bit_count() <= threshold:  # component size <= sqrt(|V|) goes to T
            t_mask |= comp
        else:
            u_mask |= comp
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
        if _two_color(g._adj, vp)[0] is None:
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
    vprime = vdouble = 0
    for comp in _component_masks(g._adj, g.vertices_mask()):
        if _two_color(g._adj, comp)[0] is not None:
            vprime |= comp
            continue
        match = maximum_matching(g, within=comp)
        if match.saturation >= bound:
            raise PreconditionViolated(
                f"non-bipartite component has a matching saturating "
                f"{match.saturation} >= {bound}",
                witness=(frozenset(_bits(comp)), match),
            )
        vdouble |= comp
    split = BipartiteSplit(frozenset(_bits(vprime)), frozenset(_bits(vdouble)), bound)
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
    the first vertex of an odd cycle, its anchor): while the tree is in more
    than one piece, ``_route`` joins the piece holding the first matching
    edge to the nearest other piece by a shortest path through the
    component. The walk then doubles every tree edge from the root and
    splices the odd cycle in at its anchor.
    """
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be odd or even, got {parity!r}")
    if not matching.edges:
        raise PreconditionViolated("matching is empty; no component to anchor a walk")
    if not matching.check(g):
        raise PreconditionViolated("matching edges are not a matching of the graph")
    ends = _mask_of(matching.vertices())
    comp = _reachable(g._adj, ends & -ends, g.vertices_mask())
    if ends & ~comp:
        raise PreconditionViolated("matching edges span more than one component")

    cycle = None
    if parity == "odd":
        _, cycle = _two_color(g._adj, comp)
        if cycle is None:
            raise PreconditionViolated(
                "odd walk requested but the component is bipartite"
            )
        cycle_edges = {
            edge_key(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
        }
        if all(e in cycle_edges for e in matching.edges):
            return ClosedWalk(tuple(cycle))

    # The tree as adjacency masks; ``joined`` is its part that holds the
    # first matching edge, and ``need`` the vertices that part must reach.
    tree = [0] * g.n
    for u, v in matching.edges:
        _toggle_edge(u, v, tree)
    need = ends | 1 << cycle[0] if parity == "odd" else ends
    joined = _reachable(tree, ends & -ends, comp)
    while need & ~joined:
        path = _route(g._adj, joined, need & ~joined, comp)
        for a, b in zip(path, path[1:]):
            _toggle_edge(a, b, tree)
        joined = _reachable(tree, joined, comp)

    root = cycle[0] if parity == "odd" else (joined & -joined).bit_length() - 1
    tour = [root]

    def dfs(v: int, par: int) -> None:
        for w in _bits(tree[v] & ~par):
            tour.append(w)
            dfs(w, 1 << v)
            tour.append(v)

    dfs(root, 0)
    # tour starts and ends at root with every tree edge used twice (even).
    walk = tour[:-1] if len(tour) > 1 else tour
    if parity == "odd":
        walk = walk + cycle  # cycle starts at the anchor == root: odd splice
    out = ClosedWalk(tuple(walk))
    if not out.check(g, matching, parity, frozenset(_bits(comp))):
        raise AssertionError("internal: constructed walk failed its predicate")
    return out
