"""Dense simple graphs, vertex holes and edge colorings.

Vertices are integers ``0..n-1``. Adjacency is kept as one Python int
bitmask per vertex, which makes each neighborhood set operation (union,
intersection, difference) one C-level pass over a few machine words and
keeps the whole structure cache resident up to the 512-vertex cap. An edge
coloring is one such graph per color, its class graph; the pair-to-color
map appears only in the coloring file format.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

MAX_VERTICES = 512


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _toggle_edge(u: int, v: int, *classes: list[int]) -> None:
    """Flip edge (u,v) in or out of each class given as adjacency masks."""
    for masks in classes:
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u


_TOP_BITS_COLOR = bytes(1 + (b >> 6) for b in range(256))


def _uniform_colors(rng: random.Random, count: int, k: int) -> bytes:
    """``count`` uniform colors in 1..k (k in {2, 3}), leaving ``rng`` in the
    state that ``count`` calls of ``rng.randint(1, k)`` would leave.

    ``randint(1, k)`` takes the top two bits of one 32-bit Mersenne Twister
    word per attempt and rejects an attempt that reads k or more. The words
    of ``getrandbits(32 * r)`` come lowest first, so every 4th of its
    little-endian bytes is the top byte of one attempt; ``translate`` keeps
    the accepted ones as colors. r attempts keep at most r colors, so no
    word past the last color needed is drawn.
    """
    rejected = bytes(range(64 * k, 256))
    out = b""
    while len(out) < count:
        r = count - len(out)
        words = rng.getrandbits(32 * r).to_bytes(4 * r, "little")
        out += words[3::4].translate(_TOP_BITS_COLOR, rejected)
    return out


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical unordered-pair key with u < v."""
    if u == v:
        raise ValueError(f"loop edge ({u},{v}) not allowed")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable undirected simple graph with bitset adjacency."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        adj = [0] * n
        for u, v in edges:
            u, v = edge_key(u, v)
            if not (0 <= u and v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def _from_masks(cls, n: int, masks: list[int]) -> "Graph":
        g = object.__new__(cls)
        g.n = n
        g._adj = tuple(masks)
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1) if u != v else False

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            m = self._adj[u] >> (u + 1) << (u + 1)
            while m:  # low bit first, as _bits, without a generator per row
                low = m & -m
                out.append((u, low.bit_length() - 1))
                m ^= low
        return out

    def vertices_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def complete_graph(n: int) -> Graph:
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    full = (1 << n) - 1
    return Graph._from_masks(n, [full ^ (1 << v) for v in range(n)])


@dataclass(frozen=True)
class HoleSpec:
    """Vertex subsets whose internal edges are removed from a host graph.

    Holes may overlap; the forbidden edge set is the union over holes.
    """

    holes: tuple[frozenset[int], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "holes", tuple(frozenset(h) for h in self.holes)
        )

    def validate(self, n: int) -> None:
        for h in self.holes:
            for v in h:
                if not 0 <= v < n:
                    raise ValueError(f"hole vertex {v} outside range 0..{n - 1}")

    def masks(self) -> list[int]:
        return [_mask_of(h) for h in self.holes]


def apply_holes_and_deletions(
    g: Graph, holespec: HoleSpec, deleted: Iterable[tuple[int, int]] = ()
) -> Graph:
    """Remove all hole-internal edges and the explicitly deleted edges from g."""
    holespec.validate(g.n)
    masks = list(g._adj)
    for hole in holespec.masks():
        for v in _bits(hole):
            masks[v] &= ~hole
    for u, v in deleted:
        u, v = edge_key(u, v)
        if v >= g.n:
            raise ValueError(f"deleted edge ({u},{v}) outside vertex range")
        masks[u] &= ~(1 << v)
        masks[v] &= ~(1 << u)
    return Graph._from_masks(g.n, masks)


@dataclass(frozen=True, eq=True)
class EdgeColoring:
    """Total coloring of the present pairs of a complete host minus holes/deletions.

    ``classes[i - 1]`` is the class graph G_i of color i, on all n vertices. A
    pair is present when it is not inside any hole and not in ``deleted``;
    the classes are pairwise edge-disjoint and together hold exactly the
    present pairs.
    """

    n: int
    k: int
    classes: tuple[Graph, ...]
    holes: HoleSpec = HoleSpec()
    deleted: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "deleted", frozenset(
            edge_key(u, v) for (u, v) in self.deleted))
        self.validate()

    @classmethod
    def _from_masks(cls, n, masks, holes=HoleSpec(), deleted=()) -> "EdgeColoring":
        classes = tuple(Graph._from_masks(n, m) for m in masks)
        return cls(n, len(classes), classes, holes, frozenset(deleted))

    def validate(self) -> None:
        if self.k not in (2, 3):
            raise ValueError(f"color count {self.k} not in {{2,3}}")
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.classes) != self.k:
            raise ValueError(f"{len(self.classes)} color classes for k={self.k}")
        present = apply_holes_and_deletions(
            complete_graph(self.n), self.holes, self.deleted
        )._adj
        union = [0] * self.n
        for i, g in enumerate(self.classes, 1):
            if g.n != self.n:
                raise ValueError(f"color {i} class has {g.n} vertices, not {self.n}")
            mirror = [0] * self.n  # the upper-triangle bits, transposed
            for u, row in enumerate(g._adj):
                for v in _bits(row >> (u + 1) << (u + 1)):
                    mirror[v] |= 1 << u
            for u, row in enumerate(g._adj):
                lone = (row & ((1 << u) - 1)) ^ mirror[u]  # held at one end only
                if lone:
                    e = edge_key(u, next(_bits(lone)))
                    raise ValueError(f"color {i} holds edge {e} at one end only")
                if row & union[u]:
                    e = edge_key(u, next(_bits(row & union[u])))
                    raise ValueError(f"edge {e} has two colors")
                union[u] |= row
        for u, (have, want) in enumerate(zip(union, present)):
            for v in _bits(have ^ want):
                e = edge_key(u, v)
                if want >> v & 1:
                    raise ValueError(f"present edge {e} has no color")
                raise ValueError(f"absent edge {e} carries color {self.color_of(*e)}")

    def color_of(self, u: int, v: int) -> Optional[int]:
        u, v = edge_key(u, v)
        if 0 <= u and v < self.n:
            for i, g in enumerate(self.classes, 1):
                if g._adj[u] >> v & 1:
                    return i
        return None

    def color_class(self, i: int) -> Graph:
        if not 1 <= i <= self.k:
            raise ValueError(f"color {i} outside 1..{self.k}")
        return self.classes[i - 1]


def _reachable(adj: Sequence[int], start_mask: int, allowed: int) -> int:
    """Closure of ``start_mask`` through vertices in ``allowed`` (start included)."""
    comp = start_mask
    frontier = start_mask
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grow |= adj[low.bit_length() - 1]
        frontier = grow & allowed & ~comp
        comp |= frontier
    return comp


def _route(adj: Sequence[int], start: int, end: int, allowed: int) -> list[int]:
    """A shortest path from a vertex of ``start`` to one of ``end`` whose
    other vertices lie in ``allowed``, last vertex first; one must exist.

    BFS layers of masks grow from ``start`` until one meets ``end``; the path
    steps back from the smallest vertex met there, through the smallest
    neighbour in each earlier layer.
    """
    layers = [start]
    while not layers[-1] & end:
        allowed &= ~layers[-1]
        grow = 0
        for x in _bits(layers[-1]):
            grow |= adj[x]
        layers.append(grow & allowed)
    path = []
    for layer in reversed(layers):
        pick = layer & end
        path.append((pick & -pick).bit_length() - 1)
        end = adj[path[-1]]
    return path


def _component_masks(adj: Sequence[int], active: int) -> Iterator[int]:
    """Components of the subgraph induced on ``active``, by smallest member."""
    while active:
        comp = _reachable(adj, active & -active, active)
        yield comp
        active &= ~comp


def _blocks(adj: Sequence[int], active: int) -> Iterator[int]:
    """Vertex masks of the blocks (maximal 2-connected pieces and bridges) of
    the subgraph induced on ``active``, as an iterative Hopcroft-Tarjan DFS
    completes them. Each component's DFS starts at its smallest vertex and
    takes neighbours smallest first; an isolated vertex yields no block."""
    num, low = [0] * len(adj), [0] * len(adj)  # DFS numbers from 1; 0 unvisited
    count, left = 0, active  # ``left``: the vertices no DFS has reached
    while left:
        root = (left & -left).bit_length() - 1
        left ^= 1 << root
        count += 1
        num[root] = low[root] = count
        stack = [[root, adj[root] & active, 1 << root]]  # [v, unexplored, open subtree]
        while stack:
            v, todo, sub = top = stack[-1]
            if todo:
                top[1] = todo & (todo - 1)
                w = (todo & -todo).bit_length() - 1
                if not num[w]:
                    count += 1
                    num[w] = low[w] = count
                    left ^= 1 << w
                    stack.append([w, adj[w] & active, 1 << w])
                elif num[w] < low[v]:
                    low[v] = num[w]
                continue
            stack.pop()
            if stack:
                parent = stack[-1]
                u = parent[0]
                if low[v] >= num[u]:  # u cuts v's subtree off: one block closes
                    yield sub | 1 << u
                else:
                    parent[2] |= sub
                    low[u] = min(low[u], low[v])


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components as vertex sets, ordered by smallest member."""
    return [frozenset(_bits(c)) for c in _component_masks(g._adj, g.vertices_mask())]


def _two_color(
    adj: Sequence[int], active: int
) -> tuple[Optional[int], Optional[list[int]]]:
    """2-color the subgraph induced on ``active``: (side mask, None), or
    (None, an odd cycle as a vertex list) when it is not bipartite.

    Each component is split into BFS layers of masks from its smallest
    vertex, and the side mask holds the even layers. An edge inside one
    layer closes an odd cycle: both of its ends step back one layer at a
    time, each to its smallest neighbour there, until they meet.
    """
    side = 0
    while active:
        layers = [active & -active]
        reached = layers[0]
        while layers[-1]:
            layer = rest = layers[-1]
            grow = 0
            while rest:
                low = rest & -rest
                rest ^= low
                x = low.bit_length() - 1
                inside = adj[x] & layer
                if inside:
                    a, b = [x], [(inside & -inside).bit_length() - 1]
                    for back in reversed(layers[:-1]):
                        if a[-1] == b[-1]:
                            break
                        for ends in (a, b):
                            prev = adj[ends[-1]] & back
                            ends.append((prev & -prev).bit_length() - 1)
                    return None, a + b[-2::-1]
                grow |= adj[x]
            layers.append(grow & active & ~reached)
            reached |= layers[-1]
        for layer in layers[::2]:
            side |= layer
        active &= ~reached
    return side, None


def bipartition(g: Graph) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """A global two-sided vertex split with no internal edges, if one exists."""
    side, _ = _two_color(g._adj, g.vertices_mask())
    if side is None:
        return None
    return frozenset(_bits(side)), frozenset(_bits(g.vertices_mask() & ~side))


def odd_closed_walk(g: Graph) -> Optional[list[int]]:
    """A simple odd cycle witnessing non-bipartiteness, or None if bipartite."""
    _, cycle = _two_color(g._adj, g.vertices_mask())
    return cycle


@dataclass(frozen=True)
class DegreeStats:
    minimum: int
    maximum: int
    average: Fraction


def degree_stats(g: Graph) -> DegreeStats:
    degs = [g.degree(v) for v in range(g.n)]
    return DegreeStats(min(degs), max(degs), Fraction(2 * g.num_edges, g.n))


# ---------------------------------------------------------------------------
# File formats.  Graph: {n, edges:[[u,v]...]}.  Coloring: {n, k,
# holes:[[v...]...], deleted:[[u,v]...], edges:[[u,v,color]...]}, u < v.
# ---------------------------------------------------------------------------


def _field(data: dict, key: str, kind: type, *default):
    """``data[key]``, or ``default`` when given and the key is absent: a
    ValueError unless its type is exactly ``kind``, so a bool is no int."""
    value = data.get(key, *default) if default else data[key]
    if type(value) is not kind:
        raise ValueError(f"{key!r} must be {kind.__name__}, got {value!r}")
    return value


def _int_rows(data: dict, key: str, width: int, *default) -> list:
    """``data[key]``, or ``default`` when given and the key is absent: a
    ValueError naming ``key`` unless it is a list of lists of ``width``
    ints each, so a bool is no int."""
    rows = data.get(key, *default) if default else data[key]
    if type(rows) is not list:
        raise ValueError(f"{key!r} must be a list, got {rows!r}")
    for row in rows:
        if type(row) is not list or len(row) != width or any(
            type(x) is not int for x in row
        ):
            raise ValueError(f"{key!r} entry {row!r} must list {width} ints")
    return rows


def _holes_from_dict(data: dict) -> HoleSpec:
    """The ``holes`` field: lists of int vertices, none listed twice."""
    holes = data.get("holes", [])
    for h in holes:
        if any(type(v) is not int for v in h) or len(set(h)) != len(h):
            raise ValueError(f"hole {h!r} must list distinct int vertices")
    return HoleSpec(tuple(frozenset(h) for h in holes))


def graph_to_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def graph_from_dict(data: dict) -> Graph:
    return Graph(_field(data, "n", int), _int_rows(data, "edges", 2))


def dump_graph(g: Graph) -> str:
    return json.dumps(graph_to_dict(g), sort_keys=True) + "\n"


def load_graph(text: str) -> Graph:
    return graph_from_dict(json.loads(text))


def coloring_to_dict(c: EdgeColoring) -> dict:
    return {
        "n": c.n,
        "k": c.k,
        "holes": [sorted(h) for h in c.holes.holes],
        "deleted": [[u, v] for u, v in sorted(c.deleted)],
        "edges": sorted(
            [u, v, col] for col, g in enumerate(c.classes, 1) for u, v in g.edges()
        ),
    }


def coloring_from_dict(data: dict) -> EdgeColoring:
    n, k = _field(data, "n", int), _field(data, "k", int)
    if k not in (2, 3):  # before building k class graphs
        raise ValueError(f"color count {k} not in {{2,3}}")
    colors = {}
    for u, v, col in _int_rows(data, "edges", 3):
        key = edge_key(u, v)
        if key in colors:
            raise ValueError(f"edge {key} listed twice")
        if not 1 <= col <= k:
            raise ValueError(f"edge {key} color {col} outside 1..{k}")
        colors[key] = col
    classes = tuple(
        Graph(n, (e for e, c in colors.items() if c == i)) for i in range(1, k + 1)
    )
    deleted = frozenset(tuple(e) for e in _int_rows(data, "deleted", 2, []))
    return EdgeColoring(n, k, classes, _holes_from_dict(data), deleted)


def dump_coloring(c: EdgeColoring) -> str:
    return json.dumps(coloring_to_dict(c), sort_keys=True) + "\n"


def load_coloring(text: str) -> EdgeColoring:
    return coloring_from_dict(json.loads(text))
