"""Independent output checks for the benchmark.

Nothing here imports ``cycleramsey``: the checks work on the plain data the
library returns (JSON reports, vertex lists, edge lists) and re-derive every
claim with their own code, so a library defect cannot hide behind itself.
Graphs are lists of neighbour bitmasks, one per vertex.
"""

from __future__ import annotations


class CheckFailed(Exception):
    """An output contradicts its independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Expected verdicts from the literature.
# ---------------------------------------------------------------------------


def two_color_cycle_ramsey(a: int, b: int) -> int:
    """R(C_a, C_b) by Rosta (1973) and Faudree-Schelp (1974).

    See Radziszowski, Small Ramsey Numbers, EJC DS1, section 5.
    """
    n, m = max(a, b), min(a, b)
    if m < 3:
        raise ValueError("cycles have at least 3 vertices")
    if (n, m) in ((3, 3), (4, 4)):
        return 6
    if m % 2 == 1:
        return 2 * n - 1
    if n % 2 == 0:
        return n - 1 + m // 2
    return max(n - 1 + m // 2, 2 * m - 1)


# R(C4, C4, C4) = 11 (Bialostocki and Schoenheim 1984).
THREE_COLOR_RAMSEY = {(4, 4, 4): 11}

# K12 avoids (C6, C6, C3): colour K_{6,6} with colour 3 (bipartite, so no
# triangle) and each K6 side with colours 1 and 2 avoiding C6, which exists
# because R(C6, C6) = 8 > 6.
KNOWN_REFUTED = {((6, 6, 3), 12)}


def expected_arrows(lengths: tuple[int, ...], n: int) -> bool:
    """Does K_n arrow the exact cycles C_l (one per colour)?"""
    if (tuple(lengths), n) in KNOWN_REFUTED:
        return False
    if len(lengths) == 2:
        return n >= two_color_cycle_ramsey(*lengths)
    return n >= THREE_COLOR_RAMSEY[tuple(sorted(lengths, reverse=True))]


# ---------------------------------------------------------------------------
# Graph helpers.
# ---------------------------------------------------------------------------


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        require(u != v and 0 <= u < n and 0 <= v < n, f"bad edge ({u},{v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def component_masks(adj: list[int]) -> list[int]:
    out, seen = [], 0
    for s in range(len(adj)):
        if seen >> s & 1:
            continue
        comp, stack = 1 << s, [s]
        while stack:
            v = stack.pop()
            new = adj[v] & ~comp
            comp |= new
            stack.extend(_members(new))
        seen |= comp
        out.append(comp)
    return out


def two_sides(adj: list[int], mask: int):
    """(side0, side1) masks of a proper 2-colouring of ``mask``, or None."""
    side = {}
    for s in _members(mask):
        if s in side:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in _members(adj[v] & mask):
                if w not in side:
                    side[w] = 1 - side[v]
                    stack.append(w)
                elif side[w] == side[v]:
                    return None
    zero = sum(1 << v for v, sd in side.items() if sd == 0)
    return zero, mask & ~zero


def _closes(adj, anchor, last, used, count, lo, hi) -> bool:
    """DFS over simple paths from ``anchor`` through higher vertices only."""
    if count >= max(3, lo) and adj[last] >> anchor & 1:
        return True
    if count == hi:
        return False
    free = adj[last] & ~used & ~((1 << (anchor + 1)) - 1)
    return any(
        _closes(adj, anchor, w, used | 1 << w, count + 1, lo, hi) for w in _members(free)
    )


def has_cycle(adj: list[int], length: int, at_least: bool = False) -> bool:
    """Brute force: a simple cycle with exactly (or at least) ``length`` vertices."""
    if at_least:
        require(len(adj) <= 12, "brute-force long-cycle search is limited to 12 vertices")
    hi = len(adj) if at_least else length
    return any(_closes(adj, a, a, 1 << a, 1, length, hi) for a in range(len(adj)))


def max_matching_edges(adj: list[int], mask: int) -> int:
    """Maximum matching size inside ``mask`` by subset recursion (small masks)."""
    require(bin(mask).count("1") <= 20, "subset matching is limited to 20 vertices")
    memo = {}

    def best(m: int) -> int:
        if m in memo:
            return memo[m]
        if not m:
            return 0
        low = m & -m
        v = low.bit_length() - 1
        rest = m & ~low
        out = best(rest)
        for w in _members(adj[v] & rest):
            out = max(out, 1 + best(rest & ~(1 << w)))
        memo[m] = out
        return out

    return best(mask)


def check_cycle(adj: list[int], vertices, length=None) -> None:
    vs = list(vertices)
    require(len(vs) >= 3, f"cycle {vs} has fewer than 3 vertices")
    require(len(set(vs)) == len(vs), f"cycle {vs} repeats a vertex")
    require(all(0 <= v < len(adj) for v in vs), f"cycle {vs} leaves the graph")
    for i, v in enumerate(vs):
        w = vs[(i + 1) % len(vs)]
        require(adj[v] >> w & 1, f"cycle {vs} uses the non-edge ({v},{w})")
    if length is not None:
        require(len(vs) == length, f"cycle {vs} does not have length {length}")


def check_matching(adj: list[int], edges, within: int | None = None) -> None:
    seen = 0
    for u, v in edges:
        require(adj[u] >> v & 1, f"matching uses the non-edge ({u},{v})")
        both = 1 << u | 1 << v
        require(not seen & both, f"matching edge ({u},{v}) shares a vertex")
        if within is not None:
            require(both & within == both, f"matching edge ({u},{v}) leaves its component")
        seen |= both


def check_tutte_partition(adj: list[int], S, T, U, n_target: int) -> None:
    """The invariants ``TuttePartition`` states for a barrier partition."""
    n = len(adj)
    s, t, u = (sum(1 << v for v in part) for part in (S, T, U))
    require(s | t | u == (1 << n) - 1, "S, T, U do not cover the vertices")
    require(not (s & t or s & u or t & u), "S, T, U overlap")
    require(all(not adj[v] & u for v in T), "an edge joins T and U")
    max_deg_t = max([0] + [bin(adj[v] & t).count("1") for v in T])
    require((max_deg_t + 1) ** 2 <= n, "a vertex of T has degree above sqrt(n) - 1 in T")
    slack = len(U) + 2 * len(S) - n_target
    require(slack < 0 or slack * slack < n, "|U| + 2|S| reaches n_target + sqrt(n)")


def odd_component_count(adj: list[int]) -> int:
    return sum(bin(c).count("1") % 2 for c in component_masks(adj))


# ---------------------------------------------------------------------------
# Colourings.
# ---------------------------------------------------------------------------


def coloring_classes(data: dict) -> list[list[int]]:
    """Colour classes of a complete, hole-free coloring in its JSON form."""
    n, k = data["n"], data["k"]
    require(not data.get("holes") and not data.get("deleted"), "unexpected holes")
    pairs = {(u, v): c for u, v, c in data["edges"]}
    require(len(pairs) == len(data["edges"]), "an edge is coloured twice")
    require(len(pairs) == n * (n - 1) // 2, "the coloring is not complete")
    classes = [[0] * n for _ in range(k)]
    for (u, v), c in pairs.items():
        require(0 <= u < v < n and 1 <= c <= k, f"bad coloured edge ({u},{v},{c})")
        classes[c - 1][u] |= 1 << v
        classes[c - 1][v] |= 1 << u
    return classes


def check_avoids(data: dict, targets) -> None:
    """Every colour class of the witness avoids its target.

    Targets are ("C", l) exact cycles, ("C+", l) cycles of length >= l and
    ("M", s) matchings saturating s vertices inside one component.
    """
    classes = coloring_classes(data)
    require(len(classes) == len(targets), "colour count differs from target count")
    for colour, (adj, (kind, size)) in enumerate(zip(classes, targets), start=1):
        if kind == "M":
            best = max(max_matching_edges(adj, c) for c in component_masks(adj))
            require(2 * best < size, f"colour {colour} has a matching saturating {2 * best}")
        else:
            found = has_cycle(adj, size, at_least=kind == "C+")
            require(not found, f"colour {colour} contains its target cycle {kind}{size}")


def check_no_cycle_geq(adj: list[int], bound: int) -> None:
    """Certify that no cycle has >= ``bound`` vertices, component by component.

    A component is cleared by its size, by a bipartition (a cycle alternates
    sides), by an independent set I (a cycle has at most |C| - |I| vertices
    outside I and as many inside), or, up to 12 vertices, by brute force.
    """
    for comp in component_masks(adj):
        size = bin(comp).count("1")
        if size < bound:
            continue
        sides = two_sides(adj, comp)
        if sides and 2 * min(bin(sides[0]).count("1"), bin(sides[1]).count("1")) < bound:
            continue
        indep = 0
        for v in sorted(_members(comp), key=lambda x: (bin(adj[x] & comp).count("1"), x)):
            if not adj[v] & indep:
                indep |= 1 << v
        if 2 * (size - bin(indep).count("1")) < bound:
            continue
        require(size <= 12, f"cannot certify a component of {size} vertices")
        local = _members(comp)
        index = {v: i for i, v in enumerate(local)}
        sub = [sum(1 << index[w] for w in _members(adj[v] & comp)) for v in local]
        require(not has_cycle(sub, bound, at_least=True), f"a cycle of >= {bound} vertices")


def check_construction_claims(construction: dict, coloring: dict) -> None:
    """Re-check each claim of a construction report against its coloring."""
    classes = coloring_classes(coloring)
    require(construction["n"] == coloring["n"], "report and coloring sizes differ")
    require(construction["claims"], "the report has no claims")
    for claim in construction["claims"]:
        require(claim["verified"] is True, f"claim {claim} is not verified")
        adj = classes[claim["color"] - 1]
        full = (1 << len(adj)) - 1
        if claim["kind"] == "no-odd-cycle":
            require(two_sides(adj, full) is not None, f"colour {claim['color']} has an odd cycle")
        elif claim["kind"] == "no-cycle-length-geq":
            check_no_cycle_geq(adj, claim["bound"])
        else:
            raise CheckFailed(f"unknown claim kind {claim['kind']!r}")
