"""Exact cycle detection by length and parity, and constructive dense-graph cycles.

Every exact search runs on one simple-path kernel and carries a budget,
charged one unit per kernel call; running out raises BudgetExceededError,
which is reported distinctly from "no such cycle". No input is refused for
its size. Counting paths for the annealer's exact-cycle energies is the one
unbudgeted exception (``_count_paths``): it is not a search, and the
annealer is bounded by its schedule, so a budget there would only cost
time per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Optional, Sequence

from .errors import BudgetExceededError, PreconditionViolated
from .graphs import (
    Graph,
    _bits,
    _blocks,
    _component_masks,
    _reachable,
    _route,
    _two_color,
)

DEFAULT_BUDGET = 10**8

Parity = Literal["any", "odd", "even"]


@dataclass(frozen=True)
class CycleCertificate:
    """A simple cycle given by its vertex sequence (closing edge implicit)."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)


def verify_cycle(g: Graph, cert: CycleCertificate) -> bool:
    vs = cert.vertices
    if len(vs) < 3 or len(set(vs)) != len(vs):
        return False
    if any(not 0 <= v < g.n for v in vs):
        return False
    return all(g.has_edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))


def _check_budget(budget) -> None:
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")


class _Budget:
    __slots__ = ("amount", "spent")

    def __init__(self, amount: int):
        _check_budget(amount)
        self.amount = amount
        self.spent = 0

    def spend(self) -> None:
        self.spent += 1
        if self.spent > self.amount:  # one unit past the budget
            raise BudgetExceededError(nodes=self.spent)


def _simple_paths(
    adj: list[int],
    u: int,
    v: int,
    steps: int,
    avoid: int,
    bud: _Budget,
    atleast: bool = False,
    out: Optional[list[int]] = None,
) -> int:
    """1 if a simple u->v path of exactly ``steps`` edges (at least ``steps``
    if ``atleast``) has its inner vertices outside ``avoid`` (a mask holding
    u and v), else 0. Each call spends one unit of ``bud``.

    With u == v and ``steps`` >= 3 the paths are the cycles through u whose
    other vertices avoid ``avoid``. The inner vertices of one such path (the
    lexicographically first for exact lengths) are appended to ``out``, last
    first; a failure leaves ``out`` as is. Counting paths is
    ``_count_paths``.

    Exactly four or five edges with no ``out`` (the search's presence
    question) are answered in closed form, for one unit, by one loop over
    the middle edge b-c of u-a-b-c-d-v: it closes a path when some first
    step a of b is not c, some last step d of c is not b, and a != d. At
    four edges the middle edge collapses to the vertex b of u-a-b-d-v, as
    ``_count_walk`` counts its last three edges, but the loop stops at the
    first b that closes a path. Every
    other query from four edges on, and so every one of six or more, is
    guarded by one flood that finds the region the inner vertices may use.
    For exact lengths it is layered (``_layered_flood``): if u and that
    region induce a bipartite graph, every u->v path has length p + 1 (mod
    2), where p is the distance parity from u shared by all of v's
    neighbours there; an exact ``steps`` of the other parity is refuted in
    this one call, where the walk would have spent a unit on every prefix
    it tried. With u == v, p is 1: an odd cycle through u is refuted at
    once. At-least lengths need the region only, and flood it with
    ``graphs._reachable``, which keeps no layers.
    """
    bud.spend()
    free = adj[u] & ~avoid
    if atleast:
        if steps <= 1 and adj[u] >> v & 1:
            return 1
    elif steps == 1:
        return adj[u] >> v & 1
    elif steps <= 3:
        # Two edges remain from u, or from each free neighbour of u: those
        # paths close on the common neighbours with v.
        last = adj[v] & ~avoid
        if steps == 2:
            mids = free & last
            if mids and out is not None:
                out.append((mids & -mids).bit_length() - 1)
            return int(mids != 0)
        while free:
            low = free & -free
            free ^= low
            common = adj[low.bit_length() - 1] & last
            if common:
                if out is not None:
                    out += ((common & -common).bit_length() - 1, low.bit_length() - 1)
                return 1
        return 0
    elif steps <= 5 and out is None:
        # u-a-b-c-d-v over its middle edge b-c: a in N(b)&free less c and d
        # in N(c)&last less b with a != d exist iff those sets are non-empty
        # and not the same single vertex (|A|*|C| > |A&C|, as in
        # ``_count_walk``). At four edges c is b: u-a-b-d-v.
        last = adj[v] & ~avoid
        rest = ~avoid & (1 << len(adj)) - 1
        while rest:
            low = rest & -rest
            rest ^= low
            nbrs = adj[low.bit_length() - 1]
            firsts = nbrs & free
            mids = (low if steps == 4 else nbrs & ~avoid) if firsts else 0
            while mids:
                mid = mids & -mids
                mids ^= mid
                starts, ends = firsts & ~mid, adj[mid.bit_length() - 1] & last & ~low
                if starts and ends and (starts != ends or starts & (starts - 1)):
                    return 1
        return 0
    # Every inner vertex lies in the region u's free neighbours reach without
    # entering ``avoid``, and the last one is adjacent to v.
    if atleast:
        reach = _reachable(adj, free, ~avoid)
    else:
        reach, odd, bipartite = _layered_flood(adj, free, ~avoid)
    last = adj[v] & reach
    if not last or reach.bit_count() < steps - 1:
        return 0
    if not atleast and bipartite and last & odd == (last if steps & 1 else 0):
        return 0
    if atleast and steps <= 2:
        # any route from a free neighbour to v has >= 2 edges
        if out is not None:
            out += _route(adj, free, adj[v], reach)
        return 1
    while free:
        low = free & -free
        free ^= low
        w = low.bit_length() - 1
        if _simple_paths(adj, w, v, steps - 1, avoid | low, bud, atleast, out):
            if out is not None:
                out.append(w)
            return 1
    return 0


def _layered_flood(adj: list[int], free: int, allowed: int) -> tuple[int, int, bool]:
    """BFS layers from ``free``, the neighbours in ``allowed`` of a vertex u
    outside it, through ``allowed``: the vertices reached (``free``
    included), those of them at odd distance from u, and whether no edge
    joins two vertices of one layer, that is whether u and the vertices
    reached induce a bipartite graph."""
    reach = frontier = odd = free
    bipartite, at_odd = True, True
    while frontier:
        grow, layer = 0, frontier
        while layer:
            low = layer & -layer
            layer ^= low
            nbrs = adj[low.bit_length() - 1]
            if nbrs & frontier:
                bipartite = False
            grow |= nbrs
        frontier = grow & allowed & ~reach
        reach |= frontier
        at_odd = not at_odd
        if at_odd:
            odd |= frontier
    return reach, odd, bipartite


def _count_paths(adj: list[int], u: int, v: int, steps: int, avoid: int) -> int:
    """The number of simple u->v paths of exactly ``steps`` >= 1 edges whose
    inner vertices avoid ``avoid`` (a mask holding u and v); with u == v and
    ``steps`` >= 3, of the cycles through u, counted once per direction.

    No budget: counting is not a search, and the annealer that calls it is
    bounded by its schedule. From four edges on, one flood guards the walk:
    v must be adjacent to the region u's free neighbours reach outside
    ``avoid``, and ``steps`` - 1 inner vertices must fit in it, or a target
    longer than the host would walk every simple path from u. Each level of
    ``_count_walk`` adds one vertex to ``avoid`` and removes one step, so
    the fit holds there with no further flood.
    """
    free, last = adj[u] & ~avoid, adj[v] & ~avoid
    if steps == 1:
        return adj[u] >> v & 1
    if steps == 2:
        return (free & last).bit_count()
    if steps >= 4:
        reach = _reachable(adj, free, ~avoid)
        if not last & reach or reach.bit_count() < steps - 1:
            return 0
    return _count_walk(adj, 1 << u, last, steps, avoid)


def _count_walk(adj: list[int], free: int, last: int, steps: int, avoid: int) -> int:
    """The simple paths of ``steps`` >= 3 edges from a vertex w of ``free``
    (outside ``avoid``, or the start u) to v whose inner vertices avoid
    ``avoid`` and w, summed over w; ``last`` holds v's neighbours outside
    ``avoid``. Three edges w-x-y-v are counted in closed form over their
    middle vertex x outside ``avoid``: |N(x)&free| * |N(x)&last| pairs
    (w, y), less the |N(x)&free&last| with y == w."""
    total = 0
    if steps == 3:
        rest = ~avoid & (1 << len(adj)) - 1
        if not free & (free - 1):  # one start: x is among its neighbours (none: no x)
            rest &= adj[free.bit_length() - 1]
        while rest:
            low = rest & -rest
            rest ^= low
            nbrs = adj[low.bit_length() - 1]
            starts = nbrs & free
            if starts:
                total += starts.bit_count() * (nbrs & last).bit_count() - (
                    starts & last).bit_count()
        return total
    while free:
        low = free & -free
        free ^= low
        inner = avoid | low
        total += _count_walk(adj, adj[low.bit_length() - 1] & ~inner,
                             last & ~low, steps - 1, inner)
    return total


def _degree_order(adj: Sequence[int], active: int) -> list[int]:
    """The vertices of ``active`` by ascending degree inside it, ties by label."""
    return sorted(_bits(active), key=lambda v: ((adj[v] & active).bit_count(), v))


def _anchored_cycle(
    adj: Sequence[int], active: int, lengths: Sequence[int], bud: _Budget,
    atleast: bool = False,
) -> Optional[list[int]]:
    """For the first length in ``lengths`` that a cycle inside ``active``
    has (or exceeds, if ``atleast``), such a cycle as a vertex list from its
    anchor; None if no length has one.

    The subgraph induced by ``active`` is relabelled once, in
    ``_degree_order``; the lengths are then tried in turn. For each, every
    anchor in that order asks the simple-path kernel for a closed path of
    that many edges through later vertices only, extended in the same order.
    Anchors and extensions thus try low-degree vertices first, where a dead
    end shows soonest: in input order, a Hamiltonian G(22, 0.35) with a
    vertex of degree two ran past a budget of 10^6. An exact length gives
    the first cycle in that order through the earliest possible anchor.
    """
    order = _degree_order(adj, active)
    label = [0] * len(adj)
    for i, v in enumerate(order):
        label[v] = 1 << i
    rows = []
    for v in order:
        nbrs, row = adj[v] & active, 0
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            row |= label[low.bit_length() - 1]
        rows.append(row)
    every = (1 << len(order)) - 1
    for length in lengths:
        rest = every  # the anchor and later
        while rest.bit_count() >= length:
            low = rest & -rest
            rest ^= low
            anchor = low.bit_length() - 1
            if (rows[anchor] & rest).bit_count() < 2:
                continue
            inner: list[int] = []
            if _simple_paths(rows, anchor, anchor, length, every & ~rest, bud,
                             atleast=atleast, out=inner):
                return [order[anchor], *(order[i] for i in reversed(inner))]
    return None


def _long_cycle_edges(adj: Sequence[int], length: int, bud: _Budget) -> int:
    """Edges in the components that hold a cycle of at least ``length``
    vertices; 0 exactly when the graph has no such cycle.

    A component of v >= ``length`` vertices with more than (length-1)(v-1)/2
    edges holds one by the Erdos-Gallai theorem, with no search; a sparser
    one is searched with ``_anchored_cycle``, in ascending degree order
    inside the component.
    """
    score = 0
    for comp in _component_masks(adj, (1 << len(adj)) - 1):
        size = comp.bit_count()
        if size < length:
            continue
        edges2 = sum(adj[v].bit_count() for v in _bits(comp))
        if _density_holds(edges2, size, length) or _anchored_cycle(
            adj, comp, (length,), bud, atleast=True
        ):
            score += edges2 // 2
    return score


def has_cycle_of_length(
    g: Graph, length: int, budget: int = DEFAULT_BUDGET
) -> Optional[CycleCertificate]:
    """Find a simple cycle of exactly ``length`` vertices, or prove absence.

    One ``_anchored_cycle`` runs on the 2-core, so the certificate is the
    first such cycle in ascending degree order inside the 2-core. The budget
    is charged one unit per simple-path kernel call.
    """
    bud = _Budget(budget)
    if length < 3:
        raise ValueError(f"cycle length {length} below 3")
    core = _strip(g._adj, g.vertices_mask(), 1)
    cycle = _anchored_cycle(g._adj, core, (length,), bud)
    return None if cycle is None else CycleCertificate(tuple(cycle))


def longest_cycle(
    g: Graph, parity: Parity = "any", budget: int = DEFAULT_BUDGET
) -> Optional[tuple[int, CycleCertificate]]:
    """Maximum-length simple cycle of the requested parity, with certificate.

    Each component of the 2-core is relabelled once by one
    ``_anchored_cycle`` call (ascending degree order inside the component),
    which tries the lengths of the parity from the smallest ``_cycle_bounds``
    down to one more than the best cycle so far; the first hit is the
    component's longest. One budget unit per simple-path kernel call.
    """
    if parity not in ("any", "odd", "even"):
        raise ValueError(f"parity must be any, odd or even, got {parity!r}")
    bud = _Budget(budget)
    want_odd, want_even = parity != "even", parity != "odd"
    best: Optional[list[int]] = None
    for comp in _component_masks(g._adj, _strip(g._adj, g.vertices_mask(), 1)):
        bounds = _cycle_bounds(g._adj, comp)
        odd = want_odd and "bipartite-sides" not in bounds  # else all even
        stop = len(best) if best else 2
        lengths = [ell for ell in range(min(bounds.values()), stop, -1)
                   if (odd if ell % 2 else want_even)]
        best = _anchored_cycle(g._adj, comp, lengths, bud) or best
    return None if best is None else (len(best), CycleCertificate(tuple(best)))


def _strip(adj: Sequence[int], active: int, low: int) -> int:
    """``active`` less every vertex whose degree inside it falls to ``low``
    or below, removed repeatedly until none is left."""
    changed = True
    while changed:
        changed = False
        for v in _bits(active):
            if (adj[v] & active).bit_count() <= low:
                active &= ~(1 << v)
                changed = True
    return active


def _cycle_bounds(adj: Sequence[int], comp: int) -> dict[str, int]:
    """Bounds on every cycle's length in the component ``comp``, by method:
    its size; twice its smaller side, only if it is bipartite (all its
    cycles are then even); twice the vertices outside a greedy independent
    set, since a cycle alternates at best between such a set and the rest."""
    size = comp.bit_count()
    bounds = {"component-size": size}
    side, _ = _two_color(adj, comp)
    if side is not None:
        bounds["bipartite-sides"] = 2 * min(side.bit_count(), size - side.bit_count())
    chosen = 0
    for v in _degree_order(adj, comp):
        if not adj[v] & chosen:
            chosen |= 1 << v
    bounds["independent-set"] = 2 * (size - chosen.bit_count())
    return bounds


# ---------------------------------------------------------------------------
# Constructive dense-graph long cycles (Erdos-Gallai edge threshold).
# ---------------------------------------------------------------------------


def erdos_gallai_cycle(
    g: Graph, m: int, budget: int = DEFAULT_BUDGET
) -> CycleCertificate:
    """A cycle of length >= m in any graph with > (m-1)(n-1)/2 edges.

    Each reduction round strips the vertices of degree <= (m-1)/2, then
    keeps the first block (``_blocks``) that still has 2e > (m-1)(n-1),
    with e and n its own edge and vertex counts. Stripping a vertex of
    degree d keeps the invariant, as 2d <= m-1. Some block keeps it too:
    over the blocks B of a graph with c components, the sum of |B|-1 is
    n - c <= n - 1, so if every block had 2e_B <= (m-1)(|B|-1), then
    2e <= (m-1)(n-1). Rounds repeat until the kept block is the whole
    active set. That core is 2-connected with minimum degree >= ceil(m/2)
    and at least m vertices; one ``_anchored_cycle`` of at least m vertices
    on it extracts the cycle, so the certificate is the first one in
    ascending degree order inside the core. The whole extraction is charged
    to ``budget``, one unit per simple-path kernel call.
    """
    bud = _Budget(budget)
    if not 3 <= m <= g.n:
        raise PreconditionViolated(f"need 3 <= m <= n, got m={m}, n={g.n}")
    if 2 * g.num_edges < (m - 1) * (g.n - 1) + 2:
        raise PreconditionViolated(
            f"edge count {g.num_edges} below threshold (m-1)(n-1)/2+1"
        )
    active, block = 0, g.vertices_mask()
    while block != active:
        active = _strip(g._adj, block, (m - 1) // 2)
        block = _dense_part(g, _blocks(g._adj, active), m)
    cycle = _anchored_cycle(g._adj, active, (m,), bud, atleast=True)
    if cycle is None:
        raise AssertionError("internal: dense core lacks the guaranteed cycle")
    cert = CycleCertificate(tuple(cycle))
    if not (verify_cycle(g, cert) and cert.length >= m):
        raise AssertionError("internal: constructed cycle failed verification")
    return cert


def _density_holds(edges2: int, nverts: int, m: int) -> bool:
    return edges2 > (m - 1) * (nverts - 1)


def _dense_part(g: Graph, parts: Iterable[int], m: int) -> int:
    """The first vertex mask of ``parts`` that keeps the density invariant."""
    for part in parts:
        e2 = sum((g._adj[v] & part).bit_count() for v in _bits(part))
        if _density_holds(e2, part.bit_count(), m):
            return part
    raise AssertionError("internal: no part keeps the density invariant")

