"""Builders and verifier for the extremal lower-bound colorings.

Each builder colors a complete graph by blocks, from a table of the colors
inside and between its parts, so that every color class provably avoids
its target structure; the verifier checks every claim by the
cheapest sufficient method and attaches a cycle witness on failure.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from itertools import accumulate
from typing import Optional

from .cycles import (
    DEFAULT_BUDGET,
    CycleCertificate,
    _anchored_cycle,
    _Budget,
    _check_budget,
    _cycle_bounds,
)
from .errors import BudgetExceededError
from .graphs import (
    EdgeColoring,
    Graph,
    _component_masks,
    _field,
    _mask_of,
    coloring_to_dict,
    odd_closed_walk,
)

NO_CYCLE_GEQ = "no-cycle-length-geq"
NO_ODD_CYCLE = "no-odd-cycle"


@dataclass(frozen=True)
class Claim:
    color: int
    kind: str
    bound: Optional[int] = None  # for NO_CYCLE_GEQ
    verified: Optional[bool] = None
    method: Optional[str] = None
    witness: Optional[CycleCertificate] = None


@dataclass(frozen=True)
class ConstructionReport:
    name: str
    params: dict
    coloring: EdgeColoring
    parts: tuple[frozenset[int], ...]
    claims: tuple[Claim, ...]
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "n": self.coloring.n,
            "parts": [sorted(p) for p in self.parts],
            "claims": [
                {**asdict(c), "witness": list(c.witness.vertices) if c.witness else None}
                for c in self.claims
            ],
            "notes": list(self.notes),
            "coloring": coloring_to_dict(self.coloring),
        }


def _block_report(
    name: str,
    params: dict,
    sizes: list[int],
    table: tuple[str, ...],
    claims: tuple[Claim, ...],
) -> ConstructionReport:
    """Color K_n, n = sum(sizes), by blocks and wrap it in an unverified report.

    Part i occupies the next ``sizes[i]`` vertices, and every edge between
    parts i and j (inside part i when i == j) gets color ``int(table[i][j])``.
    The table must be symmetric: an asymmetric one would give the two ends
    of an edge different colors, so it raises ValueError.
    """
    if any(row[j] != table[j][i] for i, row in enumerate(table) for j in range(i)):
        raise ValueError(f"block table {table} is not symmetric")
    n = sum(sizes)
    ends = list(accumulate(sizes, initial=0))
    parts = tuple(frozenset(range(a, b)) for a, b in zip(ends, ends[1:]))
    masks = [[0] * n for _ in range(3)]
    for p, row in zip(parts, table):
        for q, color in zip(parts, row):
            rows = masks[int(color) - 1]
            block = _mask_of(q)
            for v in p:
                rows[v] |= block & ~(1 << v)
    coloring = EdgeColoring._from_masks(n, masks)
    return ConstructionReport(name, params, coloring, parts, claims)


def build_odd_triple(m1: int) -> ConstructionReport:
    """Four equal parts of size m1-1, each in color 1; color 2 on the pair
    blocks of the path V1V2V3V4, color 3 on the other three, which form the
    path V3V1V4V2. Colors 2 and 3 are bipartite, color 1 has no cycle of
    length m1 or more."""
    if m1 < 3 or m1 % 2 == 0:
        raise ValueError(f"m1 must be odd and >= 3, got {m1}")
    return _block_report(
        "odd_triple", {"m1": m1}, [m1 - 1] * 4, ("1233", "2123", "3212", "3321"),
        (Claim(1, NO_CYCLE_GEQ, m1), Claim(2, NO_ODD_CYCLE), Claim(3, NO_ODD_CYCLE)),
    )


def build_eeo_four_part(m1: int, m2: int) -> ConstructionReport:
    """Parts |V1|=|V2|=m1-1, |V3|=|V4|=m2/2-1; color 1 inside parts, color 2
    on (V1,V3) and (V2,V4), color 3 on the remaining pair blocks."""
    if m1 % 2 or m2 % 2 or m1 < 4 or m2 < 4:
        raise ValueError(f"m1, m2 must be even and >= 4, got {m1}, {m2}")
    if m1 < m2:
        raise ValueError(f"need m1 >= m2, got m1={m1} < m2={m2}")
    return _block_report(
        "eeo_four_part", {"m1": m1, "m2": m2},
        [m1 - 1, m1 - 1, m2 // 2 - 1, m2 // 2 - 1], ("1323", "3132", "2313", "3231"),
        (Claim(1, NO_CYCLE_GEQ, m1), Claim(2, NO_CYCLE_GEQ, m2),
         Claim(3, NO_ODD_CYCLE)),
    )


def build_eeo_three_part(m1: int, m2: int, m3: int) -> ConstructionReport:
    """Parts of sizes m1/2-1, m2/2-1, m3-1; color 3 inside part 3, color 2 on
    every edge meeting part 2, color 1 on the rest."""
    if m1 % 2 or m2 % 2 or m1 < 4 or m2 < 4:
        raise ValueError(f"m1, m2 must be even and >= 4, got {m1}, {m2}")
    if m3 % 2 == 0 or m3 < 3:
        raise ValueError(f"m3 must be odd and >= 3, got {m3}")
    return _block_report(
        "eeo_three_part", {"m1": m1, "m2": m2, "m3": m3},
        [m1 // 2 - 1, m2 // 2 - 1, m3 - 1], ("121", "222", "123"),
        (Claim(1, NO_CYCLE_GEQ, m1 - 1), Claim(2, NO_CYCLE_GEQ, m2 - 1),
         Claim(3, NO_CYCLE_GEQ, m3)),
    )


def build_oee_four_part(m1: int, m2: int) -> ConstructionReport:
    """Parts |V1|=|V2|=m1/2-1, |V3|=|V4|=m2-1; color 1 inside V1, V2 and on
    (V1,V3), (V2,V4); color 2 inside V3, V4; color 3 on the rest."""
    if m1 % 2 or m1 < 4:
        raise ValueError(f"m1 must be even and >= 4, got {m1}")
    if m2 % 2 == 0 or m2 < 3:
        raise ValueError(f"m2 must be odd and >= 3, got {m2}")
    return _block_report(
        "oee_four_part", {"m1": m1, "m2": m2},
        [m1 // 2 - 1, m1 // 2 - 1, m2 - 1, m2 - 1], ("1313", "3131", "1323", "3132"),
        (Claim(1, NO_CYCLE_GEQ, m1), Claim(2, NO_CYCLE_GEQ, m2),
         Claim(3, NO_ODD_CYCLE)),
    )


# ---------------------------------------------------------------------------
# Verification.
# ---------------------------------------------------------------------------


def _check_no_cycle_geq(
    g: Graph, bound: int, budget: int
) -> tuple[Optional[bool], str, Optional[CycleCertificate]]:
    methods = set()
    bud = _Budget(budget)
    for comp in _component_masks(g._adj, g.vertices_mask()):
        bounds = _cycle_bounds(g._adj, comp)
        method = next((m for m, b in bounds.items() if b < bound), None)
        if method:
            methods.add(method)
            continue
        length = max(bound, 3)  # a claim file may hold a smaller bound
        try:
            cycle = _anchored_cycle(g._adj, comp, (length,), bud, atleast=True)
        except BudgetExceededError:
            return None, "budget-exceeded", None
        methods.add("exact-search")
        if cycle is not None:
            return False, "exact-search", CycleCertificate(tuple(cycle))
    return True, "+".join(sorted(methods)) if methods else "empty", None


def _check_claim(
    coloring: EdgeColoring, claim: Claim, budget: int
) -> Claim:
    g = coloring.color_class(claim.color)
    if claim.kind == NO_ODD_CYCLE:
        walk = odd_closed_walk(g)
        if walk is None:
            return replace(claim, verified=True, method="bipartite")
        return replace(
            claim,
            verified=False,
            method="odd-cycle-found",
            witness=CycleCertificate(tuple(walk)),
        )
    if claim.kind == NO_CYCLE_GEQ:
        ok, method, witness = _check_no_cycle_geq(g, claim.bound, budget)
        return replace(claim, verified=ok, method=method, witness=witness)
    raise ValueError(f"unknown claim kind {claim.kind!r}")


def report_from_dict(data: dict, coloring: EdgeColoring) -> ConstructionReport:
    """A report file's construction over ``coloring``, refused where
    ``verify_claims`` could not read it: a claim names a color of
    ``coloring`` and a known kind, and its ``bound`` is an int (or null for
    ``no-odd-cycle``); parts list int vertices; params is an object."""
    data = data["construction"]
    claims = []
    for c in data["claims"]:
        coloring.color_class(_field(c, "color", int))  # a color 1..k
        if c["kind"] not in (NO_CYCLE_GEQ, NO_ODD_CYCLE):
            raise ValueError(f"unknown claim kind {c['kind']!r}")
        if not (c["kind"] == NO_ODD_CYCLE and c["bound"] is None):
            _field(c, "bound", int)
        claims.append(Claim(c["color"], c["kind"], c["bound"]))
    params, parts = _field(data, "params", dict), data["parts"]
    if data["name"] == "oee_four_part":
        _field(params, "m1", int)  # the stated-bound note reads it
    if any(type(v) is not int for p in parts for v in p):
        raise ValueError(f"parts {parts!r} must list int vertices")
    return ConstructionReport(
        data["name"], params, coloring, tuple(frozenset(p) for p in parts), tuple(claims)
    )


def verify_claims(
    report: ConstructionReport, budget: int = DEFAULT_BUDGET
) -> ConstructionReport:
    """Re-check every claim; cheapest sufficient method first, witnesses on failure."""
    _check_budget(budget)
    checked = tuple(_check_claim(report.coloring, c, budget) for c in report.claims)
    notes = list(report.notes)
    if report.name == "oee_four_part":
        notes.append(_oee_stated_bound_note(report, budget))
    return replace(report, claims=checked, notes=tuple(notes))


def _oee_stated_bound_note(report: ConstructionReport, budget: int) -> str:
    # The source text asserts the stronger per-component bound m1/2 - 2 for
    # color 1; we report whether it actually holds rather than asserting it.
    # A violation names the length of the first cycle found beyond the bound.
    stated = report.params["m1"] // 2 - 2
    g = report.coloring.color_class(1)
    ok, _, witness = _check_no_cycle_geq(g, stated + 1, budget)
    if ok is None:
        verdict = "undecided (budget)"
    elif ok:
        verdict = "holds"
    else:
        verdict = f"violated (cycle of length {witness.length})"
    return f"stated stronger color-1 bound (<= {stated}): {verdict}"
