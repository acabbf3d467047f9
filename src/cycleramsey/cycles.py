"""Exact cycle detection by length and parity, and constructive dense-graph cycles.

Exact searches carry a node-expansion budget; running out raises
BudgetExceededError, which is reported distinctly from "no such cycle".
A longest-cycle query on a component too large for its table raises the
subclass TableCapExceeded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Sequence

from .errors import BudgetExceededError, PreconditionViolated, TableCapExceeded
from .graphs import Graph, _bits, _component_masks, _reachable, components

DEFAULT_BUDGET = 10**8
TABLE_CAP = 22  # longest_cycle's largest component slice (2^22 table entries)

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
    __slots__ = ("left", "spent")

    def __init__(self, amount: int):
        _check_budget(amount)
        self.left = amount
        self.spent = 0

    def spend(self, k: int = 1) -> None:
        self.left -= k
        self.spent += k
        if self.left < 0:
            # one unit past the budget, however large the last charge
            raise BudgetExceededError(nodes=self.spent + self.left + 1)


def _simple_paths(
    adj: list[int],
    u: int,
    v: int,
    steps: int,
    avoid: int,
    bud: _Budget,
    count: bool = False,
    atleast: bool = False,
    out: Optional[list[int]] = None,
) -> int:
    """Simple u->v paths of exactly ``steps`` edges whose inner vertices avoid
    ``avoid`` (a mask holding u and v); at least ``steps`` edges if ``atleast``.

    Returns the number of such paths in count mode (exact lengths only), else
    1 if one exists and 0 if none does. Each call spends one unit of ``bud``.
    With u == v and ``steps`` >= 3 the paths are the cycles through u whose
    other vertices avoid ``avoid``, counted once per direction. In plain
    existence mode the inner vertices of the lexicographically first such
    path are appended to ``out``, last first; a failure leaves ``out`` as is.
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
            if count:
                return mids.bit_count()
            if mids and out is not None:
                out.append((mids & -mids).bit_length() - 1)
            return int(mids != 0)
        total = 0
        while free:
            low = free & -free
            free ^= low
            common = adj[low.bit_length() - 1] & last
            if common and not count:
                if out is not None:
                    out += ((common & -common).bit_length() - 1, low.bit_length() - 1)
                return 1
            total += common.bit_count()
        return total
    # Every inner vertex lies in the region u's free neighbours reach without
    # entering ``avoid``, and the last one is adjacent to v. Testing this from
    # four remaining edges on, rather than only from five or six, measured
    # 14-19% faster on the two-color proofs at R(C_n,C_m) and at most 13%
    # slower on the n=12 refutations of (C7,C7), (C7,C5) and (C6,C6,C3).
    reach = _reachable(adj, free, ~avoid)
    if not adj[v] & reach or reach.bit_count() < steps - 1:
        return 0
    if atleast and steps <= 2:
        return 1  # any route from a free neighbour to v has >= 2 edges
    total = 0
    while free:
        low = free & -free
        free ^= low
        w = low.bit_length() - 1
        found = _simple_paths(
            adj, w, v, steps - 1, avoid | low, bud, count, atleast, out
        )
        if found and not count:
            if out is not None:
                out.append(w)
            return 1
        total += found
    return total


def _long_cycle_edges(adj: Sequence[int], length: int, bud: _Budget) -> int:
    """Edges in the components that hold a cycle of at least ``length``
    vertices; 0 exactly when the graph has no such cycle.

    A component of v >= ``length`` vertices with more than (length-1)(v-1)/2
    edges holds one by the Erdos-Gallai theorem, with no search. In a sparser
    one each anchor in ascending order asks the simple-path kernel for a
    closed path of at least ``length`` edges through higher vertices only,
    as ``has_cycle_of_length`` does; every kernel call spends one unit.
    """
    score = 0
    for comp in _component_masks(adj, (1 << len(adj)) - 1):
        size = comp.bit_count()
        if size < length:
            continue
        edges2 = sum(adj[v].bit_count() for v in _bits(comp))
        found = _density_holds(edges2, size, length)
        rest = comp  # the anchor and the higher vertices of the component
        while not found and rest.bit_count() >= length:
            low = rest & -rest
            rest ^= low
            anchor = low.bit_length() - 1
            found = (adj[anchor] & rest).bit_count() >= 2 and bool(
                _simple_paths(
                    adj, anchor, anchor, length, (low << 1) - 1, bud, atleast=True
                )
            )
        if found:
            score += edges2 // 2
    return score


def has_cycle_of_length(
    g: Graph, length: int, budget: int = DEFAULT_BUDGET
) -> Optional[CycleCertificate]:
    """Find a simple cycle of exactly ``length`` vertices, or prove absence.

    Each anchor in ascending order asks the simple-path kernel for a closed
    path of ``length`` edges from the anchor back to itself through higher
    vertices only, so the anchor is the cycle's smallest vertex. The
    certificate is the lexicographically first such cycle through the
    smallest possible anchor. The budget is charged one unit per kernel call.
    """
    bud = _Budget(budget)
    if length < 3:
        raise ValueError(f"cycle length {length} below 3")
    for anchor in range(g.n - length + 1):
        avoid = (2 << anchor) - 1
        if (g._adj[anchor] & ~avoid).bit_count() < 2:
            continue
        inner: list[int] = []
        if _simple_paths(g._adj, anchor, anchor, length, avoid, bud, out=inner):
            return CycleCertificate((anchor, *reversed(inner)))
    return None


def longest_cycle(
    g: Graph, parity: Parity = "any", budget: int = DEFAULT_BUDGET
) -> Optional[tuple[int, CycleCertificate]]:
    """Maximum-length simple cycle of the requested parity, with certificate.

    Per component and per anchored minimum vertex, runs a set-reachability
    table ends[S] = endpoints of simple paths from the anchor spanning
    exactly S (Bellman/Held-Karp), filled by pushing the union of the
    endpoints' neighbourhoods outside S. The budget is charged one unit per
    (S, endpoint) table entry. A component slice of more than TABLE_CAP
    vertices raises TableCapExceeded. Deterministic for a fixed graph.
    """
    bud = _Budget(budget)
    best_len = 0
    best_path: Optional[tuple[int, ...]] = None
    want_odd = parity in ("any", "odd")
    want_even = parity in ("any", "even")

    for comp in components(g):
        members = sorted(comp)
        if len(members) < 3 or len(members) <= best_len:
            continue  # no cycle in here can beat the current best
        for ai, anchor in enumerate(members):
            local = members[ai:]
            m = len(local)
            if m < 3 or m <= best_len:
                break  # suffixes only shrink
            idx = {v: i for i, v in enumerate(local)}
            ladj = [0] * m
            for i, v in enumerate(local):
                for w in _bits(g._adj[v]):
                    j = idx.get(w)
                    if j is not None:
                        ladj[i] |= 1 << j
            home = ladj[0] & ~1  # endpoints that close a cycle at the anchor
            if home.bit_count() < 2:
                continue
            if m > TABLE_CAP:
                # the reachability table itself would dwarf the budget
                raise TableCapExceeded(m, TABLE_CAP, nodes=bud.spent)
            nbr = {1 << i: a for i, a in enumerate(ladj)}  # ends[S] holds endpoint bits
            size = 1 << m
            ends = [0] * size
            ends[1] = 1
            found_here = None  # (cycle length, mask, endpoint)
            for mask in range(1, size, 2):  # anchor bit always set
                ep = ends[mask]
                if not ep:
                    continue
                bud.spend(ep.bit_count())
                close = ep & home
                if close:
                    cnt = mask.bit_count()
                    if (
                        ((cnt & 1 and want_odd) or (not cnt & 1 and want_even))
                        and cnt >= 3
                        and (found_here is None or cnt > found_here[0])
                    ):
                        found_here = (cnt, mask, (close & -close).bit_length() - 1)
                reach = 0
                while ep:
                    low = ep & -ep
                    reach |= nbr[low]
                    ep ^= low
                reach &= ~mask
                while reach:
                    low = reach & -reach
                    ends[mask | low] |= low
                    reach ^= low
            if found_here is not None and found_here[0] > best_len:
                cnt, mask, v = found_here
                best_len = cnt
                best_path = tuple(local[i] for i in _reconstruct(ends, ladj, mask, v))
    if best_path is None:
        return None
    return best_len, CycleCertificate(best_path)


def _reconstruct(ends, ladj, mask, v) -> list[int]:
    path = [v]
    cur = v
    while cur != 0:
        prev_mask = mask & ~(1 << cur)
        cands = ends[prev_mask] & ladj[cur]
        prev = (cands & -cands).bit_length() - 1
        path.append(prev)
        mask, cur = prev_mask, prev
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# Constructive dense-graph long cycles (Erdos-Gallai edge threshold).
# ---------------------------------------------------------------------------


def erdos_gallai_cycle(
    g: Graph, m: int, budget: int = DEFAULT_BUDGET
) -> CycleCertificate:
    """A cycle of length >= m in any graph with > (m-1)(n-1)/2 edges.

    Reduction loop: strip vertices of degree <= (m-1)/2, restrict to a
    component that keeps the density invariant, split at cut vertices toward
    the denser side. The surviving core is 2-connected with minimum degree
    >= ceil(m/2) and at least m vertices; a maximal-path closure loop (with a
    budgeted exact search as last resort) extracts the cycle there.
    """
    _check_budget(budget)
    if not 3 <= m <= g.n:
        raise PreconditionViolated(f"need 3 <= m <= n, got m={m}, n={g.n}")
    if 2 * g.num_edges < (m - 1) * (g.n - 1) + 2:
        raise PreconditionViolated(
            f"edge count {g.num_edges} below threshold (m-1)(n-1)/2+1"
        )
    active = g.vertices_mask()
    low = (m - 1) // 2

    while True:
        # Strip low-degree vertices; each removal keeps 2e > (m-1)(n-1).
        changed = True
        while changed:
            changed = False
            for v in _bits(active):
                if (g._adj[v] & active).bit_count() <= low:
                    active &= ~(1 << v)
                    changed = True
        sub = g.subgraph_on(active)
        comp = _densest_invariant_component(sub, active, m)
        if comp != active:
            active = comp
            continue
        cut = _articulation_vertex(sub, active)
        if cut is None:
            break
        active = _denser_side(sub, active, cut, m)

    core = g.subgraph_on(active)
    cycle = _closure_cycle(core, active, m, budget)
    cert = CycleCertificate(tuple(cycle))
    if not (verify_cycle(g, cert) and cert.length >= m):
        raise AssertionError("internal: constructed cycle failed verification")
    return cert


def _density_holds(edges2: int, nverts: int, m: int) -> bool:
    return edges2 > (m - 1) * (nverts - 1)


def _densest_invariant_component(sub: Graph, active: int, m: int) -> int:
    comps = list(_component_masks(sub._adj, active))
    if len(comps) == 1:
        return active
    for comp in comps:
        e2 = sum((sub._adj[v] & comp).bit_count() for v in _bits(comp))
        if _density_holds(e2, comp.bit_count(), m):
            return comp
    raise AssertionError("internal: no component keeps the density invariant")


def _articulation_vertex(sub: Graph, active: int) -> Optional[int]:
    """Any articulation vertex of the (connected) active subgraph, else None."""
    verts = list(_bits(active))
    if len(verts) <= 2:
        return None
    index = {}
    lowlink = {}
    counter = [0]
    root = verts[0]
    # Iterative DFS computing lowpoints.
    stack = [(root, -1, iter(_bits(sub._adj[root] & active)))]
    index[root] = lowlink[root] = 0
    counter[0] = 1
    root_children = 0
    art = None
    while stack:
        v, parent, it = stack[-1]
        advanced = False
        for w in it:
            if w == parent:
                continue
            if w not in index:
                index[w] = lowlink[w] = counter[0]
                counter[0] += 1
                if v == root:
                    root_children += 1
                stack.append((w, v, iter(_bits(sub._adj[w] & active))))
                advanced = True
                break
            lowlink[v] = min(lowlink[v], index[w])
        if not advanced:
            stack.pop()
            if stack:
                pv = stack[-1][0]
                lowlink[pv] = min(lowlink[pv], lowlink[v])
                if pv != root and lowlink[v] >= index[pv] and art is None:
                    art = pv
    if root_children >= 2:
        return root
    return art


def _denser_side(sub: Graph, active: int, cut: int, m: int) -> int:
    for comp in _component_masks(sub._adj, active & ~(1 << cut)):
        side = comp | (1 << cut)
        e2 = sum((sub._adj[v] & side).bit_count() for v in _bits(side))
        if _density_holds(e2, side.bit_count(), m):
            return side
    raise AssertionError("internal: no cut side keeps the density invariant")


def _examine_path(core: Graph, active: int, m: int, path: list[int]):
    """Classify a path: ('long', cycle >= m), ('grow', longer path), or stall.

    Checks endpoint extension, the crossing-pair closure (head ~ x_i with
    tail ~ x_{i-1} gives a cycle through every path vertex), and the two
    single-endpoint closures.
    """
    used = 0
    for v in path:
        used |= 1 << v
    head, tail = path[0], path[-1]
    if core._adj[head] & active & ~used or core._adj[tail] & active & ~used:
        return "grow", _maximal_path(core, active, list(path))
    k = len(path)
    pos = {v: i for i, v in enumerate(path)}
    head_hits = [pos[w] for w in _bits(core._adj[head]) if w in pos]
    tail_hits = {pos[w] for w in _bits(core._adj[tail]) if w in pos}
    cross = next((i for i in head_hits if i >= 1 and (i - 1) in tail_hits), None)
    if cross is not None:
        cycle = path[:cross] + path[k - 1 : cross - 1 : -1]
        if len(cycle) >= m:
            return "long", cycle
        grown = _extend_from_cycle(core, active, cycle)
        if grown is None:
            return "long", cycle  # spans the whole core, and core size >= m
        return "grow", grown
    far_head = max(head_hits, default=-1)
    if far_head + 1 >= m:
        return "long", path[: far_head + 1]
    near_tail = min(tail_hits, default=k)
    if k - near_tail >= m:
        return "long", path[near_tail:]
    return "stall", None


def _rotations(core: Graph, path: list[int]):
    """All single head/tail rotations of a path (same vertex set)."""
    pos = {v: i for i, v in enumerate(path)}
    k = len(path)
    for w in _bits(core._adj[path[0]]):
        i = pos.get(w)
        if i is not None and i >= 2:
            yield path[i - 1 :: -1] + path[i:]
    for w in _bits(core._adj[path[-1]]):
        j = pos.get(w)
        if j is not None and j <= k - 3:
            yield path[: j + 1] + path[k - 1 : j : -1]


def _closure_cycle(core: Graph, active: int, m: int, budget: int) -> list[int]:
    """Cycle of length >= m in a 2-connected min-degree >= ceil(m/2) core."""
    from collections import deque

    total = active.bit_count()
    start = (active & -active).bit_length() - 1
    path = _maximal_path(core, active, [start])
    grown = True
    while grown:
        grown = False
        # Breadth-first over rotation variants of the current (maximal) path;
        # a rotation can expose an extendable endpoint or a crossing.
        seen = set()
        cap = 8 * total + 16
        queue = deque([path])
        while queue and len(seen) < cap:
            p = queue.popleft()
            key = (p[0], p[-1])
            if key in seen:
                continue
            seen.add(key)
            kind, payload = _examine_path(core, active, m, p)
            if kind == "long":
                return payload
            if kind == "grow":
                path = payload
                grown = True
                break
            queue.extend(_rotations(core, p))
    # Rotation closure exhausted short of m (adversarial near-extremal cores).
    if total <= TABLE_CAP:
        found = longest_cycle(core, "any", budget=budget)
        if found is None or found[0] < m:
            raise AssertionError("internal: dense core lacks the guaranteed cycle")
        return list(found[1].vertices)
    # Larger cores: scan exact lengths downward from the degree bound.
    min_deg = min((core._adj[v] & active).bit_count() for v in _bits(active))
    high = min(total, 2 * min_deg)
    slice_budget = max(10**5, budget // max(1, high - m + 1))
    for ell in range(high, m - 1, -1):
        try:
            cert = has_cycle_of_length(core, ell, budget=slice_budget)
        except BudgetExceededError:
            continue
        if cert is not None:
            return list(cert.vertices)
    raise BudgetExceededError(
        "guaranteed cycle exists but was not extracted within budget"
    )


def _maximal_path(core: Graph, active: int, path: list[int]) -> list[int]:
    used = 0
    for v in path:
        used |= 1 << v
    while True:
        ext = core._adj[path[-1]] & active & ~used
        if not ext:
            break
        w = (ext & -ext).bit_length() - 1
        path.append(w)
        used |= 1 << w
    while True:
        ext = core._adj[path[0]] & active & ~used
        if not ext:
            break
        w = (ext & -ext).bit_length() - 1
        path.insert(0, w)
        used |= 1 << w
    return path


def _extend_from_cycle(core: Graph, active: int, cycle: list[int]):
    """Break a non-spanning cycle at an attachment point into a longer path."""
    on_cycle = 0
    for v in cycle:
        on_cycle |= 1 << v
    outside = active & ~on_cycle
    if not outside:
        return None
    for i, v in enumerate(cycle):
        att = core._adj[v] & outside
        if att:
            w = (att & -att).bit_length() - 1
            return _maximal_path(core, active, [w] + cycle[i:] + cycle[:i])
    raise AssertionError("internal: connected core has no cycle attachment")
