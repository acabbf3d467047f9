"""Finite arrowing decisions: exhaustive backtracking and randomized search.

An instance fixes a host (complete graph minus holes, with an optional
deletion budget) and one target per color. "Arrows" means every admissible
coloring contains some target; a witness coloring avoiding all targets
refutes it. Unknown is a first-class verdict and never conflated with a
decision.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import asdict, dataclass
from typing import Optional, Union

from .cycles import (
    DEFAULT_BUDGET,
    _Budget,
    _check_budget,
    _count_paths,
    _long_cycle_edges,
    _simple_paths,
    has_cycle_of_length,
)
from .errors import BudgetExceededError
from .graphs import (
    MAX_VERTICES,
    EdgeColoring,
    Graph,
    HoleSpec,
    _bits,
    _field,
    _holes_from_dict,
    _toggle_edge,
    _uniform_colors,
    apply_holes_and_deletions,
    coloring_to_dict,
    complete_graph,
)
from .matchings import _best_matched, _matched, _mates, _repair_matching, best_saturation

DEFAULT_SEED = 1729
# Annealing temperature falls geometrically from T_START to T_END.
T_START = 1.5
T_END = 0.05


@dataclass(frozen=True)
class CycleTarget:
    """Demand a cycle in this color: exact length, or at least that length."""

    length: int
    exact: bool = True


@dataclass(frozen=True)
class MatchingTarget:
    """Demand a matching of the given saturation inside one monochromatic
    component (non-bipartite if flagged)."""

    saturation: int
    nonbipartite: bool = False


Target = Union[CycleTarget, MatchingTarget]


@dataclass(frozen=True)
class ArrowInstance:
    n: int
    targets: tuple[Target, ...]
    holes: HoleSpec = HoleSpec()
    deleted_budget: int = 0

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.targets) not in (2, 3):
            raise ValueError("need 2 or 3 targets (one per color)")
        for t in self.targets:
            if isinstance(t, CycleTarget):
                if t.length < 3:
                    raise ValueError(f"cycle length {t.length} below 3")
            elif isinstance(t, MatchingTarget):
                if t.saturation < 2 or t.saturation % 2:
                    raise ValueError(
                        f"saturation {t.saturation} must be even and >= 2"
                    )
            else:
                raise TypeError(f"unknown target {t!r}")
        self.holes.validate(self.n)
        if self.deleted_budget < 0:
            raise ValueError("deleted budget must be nonnegative")

    @property
    def k(self) -> int:
        return len(self.targets)

    def present_edges(self) -> list[tuple[int, int]]:
        """Assignable pairs in lexicographic (max endpoint, min endpoint) order."""
        adj = apply_holes_and_deletions(complete_graph(self.n), self.holes)._adj
        return [(u, v) for v in range(self.n) for u in _bits(adj[v] & ((1 << v) - 1))]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "holes": [sorted(h) for h in self.holes.holes],
            "deleted_budget": self.deleted_budget,
            "targets": [
                {
                    "kind": "cycle" if isinstance(t, CycleTarget) else "matching",
                    **asdict(t),
                }
                for t in self.targets
            ],
        }


def instance_from_dict(data: dict) -> ArrowInstance:
    """An instance file's ``ArrowInstance``. Nothing is coerced: ``n``,
    ``length``, ``saturation`` and ``deleted_budget`` must be ints, ``exact``
    and ``nonbipartite`` bools, and no hole may list a vertex twice."""
    targets = []
    for t in data["targets"]:
        if t["kind"] == "cycle":
            targets.append(CycleTarget(
                _field(t, "length", int), _field(t, "exact", bool, True)
            ))
        elif t["kind"] == "matching":
            targets.append(MatchingTarget(
                _field(t, "saturation", int), _field(t, "nonbipartite", bool, False)
            ))
        else:
            raise ValueError(f"unknown target kind {t['kind']!r}")
    return ArrowInstance(
        n=_field(data, "n", int),
        targets=tuple(targets),
        holes=_holes_from_dict(data),
        deleted_budget=_field(data, "deleted_budget", int, 0),
    )


@dataclass
class SearchStats:
    nodes: int = 0
    presence_prunes: int = 0
    symmetry_prunes: int = 0
    leaves: int = 0
    proposals: int = 0
    restarts: int = 0
    best_energy: Optional[int] = None
    elapsed: float = 0.0

    def to_dict(self, include_timings: bool = False) -> dict:
        out = asdict(self)
        elapsed = out.pop("elapsed")
        if include_timings:
            out["elapsed_seconds"] = elapsed
        return out


@dataclass
class ArrowVerdict:
    arrows: Optional[bool]  # True / False / None == unknown
    witness: Optional[EdgeColoring]
    stats: SearchStats
    header: dict

    def to_dict(self, include_timings: bool = False) -> dict:
        return {
            "arrows": self.arrows,
            "witness": coloring_to_dict(self.witness) if self.witness else None,
            "stats": self.stats.to_dict(include_timings),
            "header": self.header,
        }


def _header(inst: ArrowInstance, mode: str, **extra) -> dict:
    head = {
        "mode": mode,
        "instance": inst.to_dict(),
        "finite_instantiation": (
            "asymptotic coloring relation instantiated at a fixed host: "
            f"N={inst.n}, deletion budget={inst.deleted_budget}, "
            f"holes={[sorted(h) for h in inst.holes.holes]}"
        ),
    }
    head.update(extra)
    return head


# ---------------------------------------------------------------------------
# Independent target evaluation (used to re-verify every emitted witness).
# ---------------------------------------------------------------------------


def target_present(class_graph: Graph, target: Target) -> bool:
    """Does this color class realize its target?

    An at-least cycle target is present when some component holds a cycle
    of at least its length (``cycles._long_cycle_edges`` is positive), so no
    longest cycle is computed and no host size is refused.
    """
    if isinstance(target, CycleTarget):
        if target.exact:
            return has_cycle_of_length(class_graph, target.length) is not None
        bud = _Budget(DEFAULT_BUDGET)
        return _long_cycle_edges(class_graph._adj, target.length, bud) > 0
    return best_saturation(class_graph, target.nonbipartite) >= target.saturation


def coloring_avoids_all(coloring: EdgeColoring, targets: tuple[Target, ...]) -> bool:
    return not any(
        target_present(coloring.color_class(i + 1), t) for i, t in enumerate(targets)
    )


def _witness_coloring(inst: ArrowInstance, edges, assignment, adjs) -> EdgeColoring:
    deleted = (e for e, c in zip(edges, assignment) if c == 0)
    return EdgeColoring._from_masks(inst.n, adjs[1:], inst.holes, deleted)


# ---------------------------------------------------------------------------
# Incremental presence checks on adjacency masks.
# ---------------------------------------------------------------------------


def _presence_test(n: int, target: Target):
    """The test that one color class runs when edge (u, v) enters it, as
    ``test(adj, u, v, bud)``: did the edge complete the target? None when the
    target cannot fit on n vertices. A search resolves it once per color.

    A path's existence does not depend on its direction, so the kernel
    starts at the end of lower degree in the class, whose fewer first steps
    leave fewer subtrees to refute."""
    if isinstance(target, MatchingTarget):
        saturation, nonbipartite = target.saturation, target.nonbipartite
        return lambda adj, u, v, bud: (
            _best_matched(adj, _mates(adj), nonbipartite, whole=False)[0] >= saturation
        )
    if target.length > n:
        return None
    steps, atleast = target.length - 1, not target.exact

    def created(adj: list[int], u: int, v: int, bud: _Budget) -> int:
        if adj[v].bit_count() < adj[u].bit_count():
            u, v = v, u
        return _simple_paths(adj, u, v, steps, 1 << u | 1 << v, bud, atleast=atleast)

    return created


# ---------------------------------------------------------------------------
# Canonical-extension vertex symmetry and color-group symmetry.
# ---------------------------------------------------------------------------


def _refined_twins(
    prev: list[int], row: list[int], adjs: list[list[int]], z: int
) -> list[int]:
    """The twin classes on 0..z from those on 0..z-1 (``prev``), as a list
    whose entry y is the mask of y's class; ``row[x]`` is the color of
    (x, z).

    Each class is split by its members' colors to z. Then z joins the class
    of its twins: y < z is one when every other x < z has one color to y
    and to z, that is y is in ``adjs[c][x]`` for c the color of (x, z)."""
    mates = 1 << z | (1 << z) - 1  # z's class: z and its twins
    for x, c in enumerate(row):
        mates &= adjs[c][x] | 1 << x
    split = [mask & adjs[c][z] for mask, c in zip(prev, row)]
    return [mates if mask & mates else mask for mask in split] + [mates]


def _walk(
    rows: list[list[int]],
    firsts: list[bool],
    cls: list[int],
    view: tuple,
    named,
    adjs: list[list[int]],
    bud: _Budget,
) -> bool:
    """Does no relabeling of the clique, with its colors renamed, give a
    vector below the prefix ``rows``? The walk of ``_prefix_is_canonical``,
    which describes it. A view ``named(perm)`` reads the class masks under
    the partial renaming ``perm``: ``view[0][c][x]`` is x's neighbours in
    the color named c (None while c is free), ``view[1][c][x]`` those in
    the colors valued below c. Row 0 is read in ``view``, and ``firsts[j]``
    marks the rows where a name is given (``_named_row``). ``cls[y]`` is
    the mask of y's twin class. Each visit charges ``bud`` one unit,
    counted here and settled on the way out."""
    m = len(rows)
    images, pending = [0] * m, [0] * m  # pending[j]: tied candidates left at j
    # at[j]: the view that row j, giving a name, was read in; split[j]: its
    # other candidates with the renamings they go on in, the next to walk last
    at, split = [view] * m, [()] * m
    masks, below = view[0], view[1]
    j, free = 0, (1 << m) - 1
    visits, limit = 0, bud.amount - bud.spent
    while True:
        visits += 1  # a visit: the images of 0..j-1 tie the prefix
        if visits > limit:
            bud.spent += visits - 1
            bud.spend()  # one unit past the budget: raises
        cands = 0
        if j < m:
            if firsts[j]:
                out = _named_row(rows[j], images, free, 0, view, adjs, named)
                if out is None:
                    bud.spent += visits
                    return False
                at[j], split[j] = view, out
                if out:
                    cands, perm = out.pop()
                    view = named(perm)
                    masks, below = view[0], view[1]
            else:
                tie, low = free, 0
                for x, c in zip(images, rows[j]):
                    low |= tie & below[c][x]
                    tie &= masks[c][x]
                if low:
                    bud.spent += visits
                    return False
                cands = tie
        while not cands:
            j -= 1
            if j < 0:
                bud.spent += visits
                return True
            free |= 1 << images[j]
            cands = pending[j]
            if not cands and firsts[j]:  # the next renaming of row j, or back
                if split[j]:
                    cands, perm = split[j].pop()
                    view = named(perm)
                else:
                    view = at[j]
                masks, below = view[0], view[1]
        bit = cands & -cands
        y = bit.bit_length() - 1
        pending[j] = cands & ~cls[y]  # y is the first unused member of its class
        images[j] = y
        free ^= bit
        j += 1


def _named_row(row, images, tie, a, view, adjs, named):
    """The candidates ``tie`` of ``_walk`` that tie ``row`` from entry a on,
    in a row where a name is given, as (candidates, renaming) pairs, the
    next to walk last; None when one of them gives a lower entry. At an
    entry whose name c is free, the candidates split by their color d to x,
    and each free d valued c goes on in the renaming that names it c. Twins
    have one color to x, so they stay together."""
    masks, below, forks, perm = view
    for a in range(a, len(row)):
        x, c = images[a], row[a]
        if tie & below[c][x]:
            return None
        if masks[c] is None:
            out = []
            for perm in reversed(forks[c]):  # the lowest color walks first
                t = tie & adjs[perm[c]][x]
                if t and a + 1 < len(row):
                    t = _named_row(row, images, t, a + 1, named(perm), adjs, named)
                    if t is None:
                        return None
                    out += t
                elif t:
                    out.append((t, perm))
            return out
        tie &= masks[c][x]
    return [(tie, perm)] if tie else []


class _Carry:
    """What one canonical check hands the next (``_prefix_is_canonical``
    says why it may): ``rows[j]``, row j of the prefix as the last check
    read it, and ``classes[z]``, its twin classes on 0..z; ``used``, the
    bitmask of the colors that the assignment uses, and ``first[c]``, the
    index of c's first entry while c is used; the ``_renamings`` of the
    color groups that ``prev`` links; and ``kept``, by used mask, the root
    renamings and the views that read only class masks. ``used`` and
    ``first`` are read from ``prefix``: a search passes none and keeps
    them itself."""

    __slots__ = ("rows", "classes", "used", "first", "renamings", "kept")

    def __init__(self, prev: list[int], prefix=()):
        self.rows = [[]]  # row 0 is empty
        self.classes = [[1], [3, 3]]  # 0 and 1 are twins on 0..1
        self.used = sum(1 << c for c in set(prefix))
        self.first = [prefix.index(c) if c in prefix else 0 for c in range(len(prev))]
        self.renamings = _renamings(tuple(prev))
        self.kept = {}


def _prefix_is_canonical(
    assignment: list[int],
    adjs: list[list[int]],
    v_top: int,
    bud: _Budget,
    carry: _Carry,
) -> bool:
    """Is the colored clique on vertices 0..v_top lex-minimal under vertex
    relabelings combined with the renamings of same-target colors?

    ``carry`` holds the state one check hands the next (see "Carried
    state"); its color groups link each color to the last earlier one of
    its group, as ``_color_predecessors`` builds them. Color 0, the
    deletions, is never renamed.

    Edge i of the prefix is the i-th pair in (max, min) lex order, so fixing
    the images of vertices 0..j fixes the first j(j+1)/2 entries of the
    relabeled vector. ``_walk`` chooses the images depth first: a
    relabeling whose new entries (a, j), a < j, are smaller than the
    prefix's refutes canonicity, a larger one is pruned, and a tie goes one
    vertex deeper.

    Entry (a, j) of the prefix is read off ``assignment``, relabeled ones
    off the class masks (class 0 the deletions), which at a block end hold
    exactly the prefix's pairs. Over the images x of a < j, c the color of
    (a, j), ``tie &= masks[c][x]`` keeps the unused candidates tied so far
    and ``low |= tie & below[c][x]`` adds those whose first difference is a
    lower color (``below[c][x]``: x's neighbours in the colors valued below
    c). Any candidate in ``low`` answers "smaller" at once: the images so
    far, extended by it and then by the unused vertices in any order,
    relabel the prefix to a smaller vector. Otherwise the candidates in
    ``tie`` go one vertex deeper, in ascending order, on an explicit stack,
    so the depth is bounded by the host and not by Python's recursion limit.

    First-appearance lemma (value precedence, Law and Lee 2004): for one
    relabeling, the least vector over the renamings within the groups names
    the colors of each group in the order they first appear in it, each
    taking the lowest name of its group not yet given. So a walk need not
    try every renaming: it carries the partial renaming that the tied
    entries fix, and values a free color at the lowest free name of its
    group. Where the prefix first uses a name (``_named_row``), the tied
    candidates split by their color d there, each free d of the group taking
    that name on its own branch, so renamings that agree on the colors met
    so far share every visit up to there. The first name of each group is
    given before the walk, one walk per color of the group that the prefix
    uses: it first appears in row 1 of nearly every prefix, where only row 0
    would be shared. A prefix that uses a color of a group before a lower
    one is not minimal, since swapping the two lowers it, and the check
    answers at once.

    Twin lemma: y and z are twins when ``(a[y] ^ a[z]) & ~(1 << y | 1 << z)``
    is 0 in every class, that is they have the same color to every third
    vertex (class 0, the deletions, counts as a color). The transposition
    (y z) is then an automorphism of the prefix that fixes every image
    chosen so far, so the subtree that maps j to z yields exactly the
    relabeled vectors, and with them the renamings, of the subtree that maps
    j to y. Twinship is transitive, so at each depth only the first unused
    member of each twin class is tried.

    Refinement lemma: y, w < z are twins on 0..z exactly when they are
    twins on 0..z-1 and have one color to z. So the classes on 0..z are
    those on 0..z-1, each split by its members' colors to z, and z's own
    class (``_refined_twins``).

    Carried state: ``carry.rows[j]`` is row j of the prefix and
    ``carry.classes[z]`` the twin classes on 0..z. The check keeps the
    entries below v_top, drops the deeper ones and appends the rest up to
    v_top. A search hands one carry from check to check. That is sound
    because the last check at each z < v_top ran on the prefix as it
    stands: the search passes a block end only after its check. Row 1 is
    the exception: no check runs at block end 1, so the check at v_top = 2
    reads row 1 afresh. The search keeps ``used`` where a color's count
    crosses 0 and sets ``first[c]`` where c's count reaches 1; at a block
    end the assignment is the prefix, so both are the prefix's. The roots
    and each renaming's view depend on the prefix only through ``used``
    and the class masks. A view whose ``below`` lists are each empty or one
    class mask reads the masks themselves, which hold the prefix at every
    block end, so it is kept by used mask with the roots; a union of two
    masks is a copy of this prefix's, and it is built anew at each check.
    Since the kept views read the class masks in place, a carry serves only
    the class masks of the search that built it. A direct caller builds a
    fresh one from the prefix, whose rows the check reads in full, so it
    runs the same code.

    Soundness at every depth: take the representative of a target-free
    coloring's orbit that is lex-min over vertex relabelings combined with
    the renamings of same-target colors. Each of its clique prefixes is
    lex-min too, since a smaller relabeled and recolored prefix, extended by
    fixing the other vertices and recoloring the rest the same way, would
    make the whole vector smaller; so this representative passes the check
    on every prefix, of any size. It meets the first-use rule as well: a
    color of a group used before a lower one of its group could be swapped
    with it. Each visit (a set of images that ties the prefix) charges one
    unit to ``bud``, so a check stops one unit past the budget.
    """
    m = v_top + 1
    rows, classes, used, first = carry.rows, carry.classes, carry.used, carry.first
    del rows[v_top if v_top > 2 else 1:]
    for z in range(len(rows), m):
        row = assignment[z * (z - 1) // 2 : z * (z + 1) // 2]
        rows.append(row)
        classes[z:] = [_refined_twins(classes[z - 1], row, adjs, z)]
    size = m * (m - 1) // 2
    start, groups, table = carry.renamings
    # The first name of a group is given before the walk, one walk for each
    # color that takes it; the others where the prefix first uses them, but
    # for the last, which is settled by then.
    firsts = [False] * m
    for group in groups:
        at = [first[c] if used >> c & 1 else size for c in group]
        if at != sorted(at):
            return False
        for i in at[1:-1]:
            if i < size:
                firsts[(1 + math.isqrt(8 * i + 1)) // 2] = True
    if used not in carry.kept:
        roots = [start]
        for group in groups:
            c = group[0]
            if used >> c & 1:
                roots = [p for q in roots for p in table[q][1][c] if used >> p[c] & 1]
        carry.kept[used] = roots, {}
    roots, kept = carry.kept[used]
    views, zero = {}, [0] * len(adjs[0])

    def named(perm):
        view = kept.get(perm) or views.get(perm)
        if not view:
            layers, forks, ident = table[perm]
            # below[c][x]: x's neighbours in the colors valued below c; a
            # class the prefix leaves empty adds nothing, so no list is built
            below, acc, live = [zero], zero, True
            for layer in layers:
                for d in layer:
                    if used >> d & 1:
                        if acc is zero:
                            acc = adjs[d]
                        else:  # a union holds this prefix only
                            acc = [p | q for p, q in zip(acc, adjs[d][:m])]
                            live = False
                below.append(acc)
            view = (kept if live else views)[perm] = (
                adjs if ident else [adjs[d] if d >= 0 else None for d in perm],
                below, forks, perm)
        return view

    for perm in roots:
        if not _walk(rows, firsts, classes[v_top], named(perm), named, adjs, bud):
            return False
    return True


@functools.cache
def _renamings(prev: tuple[int, ...]):
    """The partial renamings that the walk of ``_prefix_is_canonical``
    carries for the color groups that ``prev`` links: the one it starts on,
    the groups of two or more colors, and a dict of them all.

    ``perm[c]`` is the color named c, or -1 while the name c is free. A
    group gives its names lowest first, and its last name at once to its
    last color, so a group of one color starts named. A color is valued at
    its name, a free one at the lowest free name of its group. Each
    renaming maps to ``(layers, forks, ident)``: ``layers[c]`` lists the
    colors valued c, up to the highest name that the walk reads in it,
    ``forks[c]``, for each lowest free name c, the renamings in which a free
    color of c's group takes c, by ascending color, and ``ident`` tells the
    identity."""
    group = [[c] for c in range(len(prev))]  # group[c]: the colors of c's group
    for c, p in enumerate(prev):
        if p:
            group[c] = group[p]
            group[c].append(c)
    start = tuple(c if len(group[c]) == 1 else -1 for c in range(len(prev)))
    table, todo = {}, [start]
    while todo:
        perm = todo.pop()
        value, forks = [], {}
        for d in range(len(perm)):
            if d in perm:
                value.append(perm.index(d))
                continue
            c = next(e for e in group[d] if perm[e] < 0)
            value.append(c)
            named = list(perm)
            named[c] = d
            left = [e for e in group[d] if named[e] < 0]
            if len(left) == 1:  # the group's last name goes to its last color
                named[left[0]] = next(e for e in group[d] if e not in named)
            forks.setdefault(c, []).append(tuple(named))
        # the walk reads names up to the lowest free one, unless a name above
        # it is given
        top = min(forks, default=len(perm) - 1)
        if any(d >= 0 for d in perm[top:]):
            top = len(perm) - 1
        table[perm] = ([[d for d in range(len(perm)) if value[d] == c] for c in range(top)],
                       forks, perm == tuple(range(len(perm))))
        todo += (p for fork in forks.values() for p in fork if p not in table)
    return start, [g for c, g in enumerate(group) if g[0] == c and len(g) > 1], table


def _twin_row_falls(twins: int, adjs: list[list[int]], w: int, c: int) -> bool:
    """Has some twin in ``twins`` a color above c to w? The twin-row test of
    ``arrow_exhaustive``, run when (z, w) takes color c on a hole-free host,
    ``twins`` holding z's twins y < z on the clique 0..w-1."""
    return any(twins & adjs[d][w] for d in range(c + 1, len(adjs)))


def _color_predecessors(targets: tuple[Target, ...]) -> list[int]:
    """prev[c]: the last color before c with an identical target, else 0.

    Colors sharing an identical target are interchangeable. Targets are
    frozen dataclasses, so equality compares the class and every field: C5
    and C5+ (or M4 and M4n) are never predecessors of each other."""
    return [0] + [max((d for d in range(1, c) if targets[d - 1] == t), default=0)
                  for c, t in enumerate(targets, 1)]


def arrow_exhaustive(
    inst: ArrowInstance,
    budget: int = DEFAULT_BUDGET,
    symmetry: bool = True,
) -> ArrowVerdict:
    """Exact arrowing decision by backtracking over edge colorings.

    A branch dies as soon as the partial coloring realizes some target in its
    color. Colors with identical targets are interchangeable: they form a
    group (``_color_predecessors``). On a hole-free host each clique prefix
    must be lex-min under vertex relabelings combined with the renamings
    within the groups (``_prefix_is_canonical``), which keeps one coloring
    of each orbit: canonical augmentation in the sense of McKay (1998), with
    the colors added. On any host a color is offered only once the color
    before it in its group is used (the first-use rule). Neither changes a
    verdict, and on a host without holes or deletions the witness is the
    first target-free coloring in lex order, as without symmetry.

    Twin rows: let y < z be twins of the clique 0..w-1 (``classes[w-1]``
    of the check's carried state).
    The transposition (y z) fixes that clique's vector and w, and gives
    entry (y, w) the color of (z, w). So once (z, w) is colored below
    (y, w), with color 0 lowest, the clique 0..w is not lex-min however row
    w goes on, and the search prunes there (``_twin_row_falls``): the check
    at block end w would reject every such prefix, so the leaves that
    survive do not change.

    Last block: on a host without holes or deletions the search meets the
    lex-first target-free coloring before any other, and it is least in its
    orbit; so the check of the whole clique could only answer "canonical",
    and it is skipped.
    """
    bud = _Budget(budget)  # search nodes, path-kernel and canonical-check visits
    t0 = time.perf_counter()
    stats = SearchStats()
    edges = inst.present_edges()
    k = inst.k
    n = inst.n
    targets = inst.targets
    # block_end[i]: the prefix clique completed by assigning edge i, else 0; on
    # a hole-free host the pair (v-1, v) is edge v(v+1)/2 - 1. Without
    # deletions the whole clique needs no check (see the docstring).
    block_end = [0] * len(edges)
    # First-use rule: c is offered once its predecessor prev[c] is used. The
    # used colors of a group then always form a prefix of it: a color is first
    # used only after its predecessor, and the explicit stack takes colors off
    # in reverse order. So "prev[c] used" means all of c's earlier group is used.
    prev = _color_predecessors(targets) if symmetry else [0] * (k + 1)
    # the canonical check's state, with used and first kept here; the twin-row
    # test reads its twin classes carry.classes[w] on 0..w
    carry = _Carry(prev)
    if symmetry and not inst.holes.holes:
        for v in range(2, n if inst.deleted_budget else n - 1):
            block_end[v * (v + 1) // 2 - 1] = v
    else:
        carry.classes = [[0] * n] * n  # no twins where no check runs
    tests = [None] + [_presence_test(n, t) for t in targets]  # class 0: deletions

    # adjs[0] and used_count[0] hold the deleted pairs, as in the annealer
    adjs = [[0] * n for _ in range(k + 1)]
    assignment = [None] * len(edges)
    used_count = [0] * (k + 1)
    # The options change only when used_count[c] crosses flip[c]: a color that
    # is some color's predecessor crosses at 1, the deletions at their budget.
    flip = [inst.deleted_budget] + [1 if c in prev else 0 for c in range(1, k + 1)]

    def options() -> tuple[int, ...]:
        opts = tuple(c for c in range(1, k + 1) if not prev[c] or used_count[prev[c]])
        return opts + (0,) if used_count[0] < inst.deleted_budget else opts

    def descend() -> Optional[EdgeColoring]:
        # Depth first with an explicit stack, pending[i] holding edge i's
        # options and the index of the next one to try, so that the budget
        # alone bounds the depth.
        pending: list[tuple[tuple[int, ...], int]] = []
        opts = options()
        i = 0
        while i >= 0:
            if i == len(edges):
                stats.leaves += 1
                cand = _witness_coloring(inst, edges, assignment, adjs)
                if not coloring_avoids_all(cand, targets):
                    raise AssertionError(
                        "internal: incremental and independent checks disagree"
                    )
                return cand
            u, v = edges[i]
            bu, bv = 1 << u, 1 << v
            if len(pending) == i:
                pending.append((opts, 0))
            else:  # back at edge i: take its last color off
                c = assignment[i]
                adjs[c][u] ^= bv
                adjs[c][v] ^= bu
                used_count[c] -= 1
                if not used_count[c]:
                    carry.used ^= 1 << c
                if used_count[c] + 1 == flip[c]:
                    opts = options()
            todo, t = pending[i]
            if t == len(todo):
                assignment[i] = None
                pending.pop()
                i -= 1
                continue
            pending[i] = todo, t + 1
            c = assignment[i] = todo[t]
            stats.nodes += 1
            bud.spend()
            adjs[c][u] ^= bv
            adjs[c][v] ^= bu
            used_count[c] += 1
            if used_count[c] == 1:
                carry.used |= 1 << c
                carry.first[c] = i
            if used_count[c] == flip[c]:
                opts = options()
            test = tests[c]
            twins = carry.classes[v - 1][u] & (bu - 1)  # u's twins y < u on 0..v-1
            if test and test(adjs[c], u, v, bud):
                stats.presence_prunes += 1
            elif twins and _twin_row_falls(twins, adjs, v, c) or block_end[i] and not (
                _prefix_is_canonical(assignment, adjs, block_end[i], bud, carry)
            ):
                stats.symmetry_prunes += 1
            else:
                i += 1
        return None

    header = _header(inst, "exhaustive", symmetry=symmetry, budget=budget)
    try:
        witness = descend()
        arrows = witness is None
    except BudgetExceededError:
        witness, arrows = None, None
    stats.elapsed = time.perf_counter() - t0
    return ArrowVerdict(arrows, witness, stats, header)


@dataclass(frozen=True)
class RamseyResult:
    value: Optional[int]
    bracket: tuple[Optional[int], Optional[int]]  # (greatest false + 1, least true)
    verdicts: dict
    unknowns: tuple[int, ...]

    def to_dict(self, include_timings: bool = False) -> dict:
        return {
            "value": self.value,
            "bracket": list(self.bracket),
            "unknowns": list(self.unknowns),
            "verdicts": {
                str(n): v.to_dict(include_timings) for n, v in self.verdicts.items()
            },
        }


def ramsey_number_exact(
    targets: tuple[Target, ...],
    n_range: range,
    budget: int = DEFAULT_BUDGET,
    symmetry: bool = True,
) -> RamseyResult:
    """Least N in the range that arrows with N-1 refuted, else a bracket."""
    _check_budget(budget)
    verdicts: dict[int, ArrowVerdict] = {}
    last_false = None
    first_true = None
    unknowns = []
    for n in n_range:
        inst = ArrowInstance(n=n, targets=tuple(targets))
        v = arrow_exhaustive(inst, budget=budget, symmetry=symmetry)
        verdicts[n] = v
        if v.arrows is True:
            first_true = n
            break
        if v.arrows is False:
            last_false = n
        else:
            unknowns.append(n)
    value = None
    if first_true is not None and last_false == first_true - 1:
        value = first_true
    lower = last_false + 1 if last_false is not None else None
    return RamseyResult(value, (lower, first_true), verdicts, tuple(unknowns))


# ---------------------------------------------------------------------------
# Randomized counterexample search (simulated annealing / min conflicts).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnealSchedule:
    steps: int = 6000
    restarts: int = 3

    def __post_init__(self):
        # an unknown verdict reports the best energy of at least one restart
        if self.steps < 0 or self.restarts < 1:
            raise ValueError(
                "annealing needs steps >= 0 and restarts >= 1, got "
                f"steps={self.steps}, restarts={self.restarts}"
            )


def _energy_of_color(
    n: int, adj: list[int], target: Target, bud: _Budget, match=None
) -> int:
    """How strongly this class realizes its target (0 iff the target is absent).

    Exact-cycle targets use the path-incidence sum (length * cycle count),
    which admits cheap per-move deltas; ``cycles._count_paths`` counts each
    cycle from its least vertex u back to u through larger ones, once per
    direction, with no budget. At-least cycle targets count the edges of the
    components that hold a cycle of at least the target length
    (``cycles._long_cycle_edges``). Matching targets score the excess
    saturation of ``match``, the mate array or matched mask of a maximum
    matching of the class, which the annealer repairs per move
    (``matchings._repair_matching``).
    """
    if isinstance(target, CycleTarget):
        if not target.exact:
            return _long_cycle_edges(adj, target.length, bud)
        ell, cycles = target.length, 0
        for u in range(n):
            cycles += _count_paths(adj, u, u, ell, (2 << u) - 1)
        return ell * cycles // 2
    saturation = _best_matched(adj, match, target.nonbipartite, whole=False)[0]
    return max(0, (saturation - target.saturation) // 2 + 1)


def arrow_randomized(
    inst: ArrowInstance,
    schedule: Optional[AnnealSchedule] = None,
    seed: int = DEFAULT_SEED,
    initial: Optional[EdgeColoring] = None,
) -> ArrowVerdict:
    """Search for a zero-violation coloring; returns a witness or unknown.

    Deterministic for a fixed seed. Each restart but a first one seeded by
    ``initial`` draws a uniform coloring (``graphs._uniform_colors``); then
    each proposal draws, in this order, the contract the pinned reports
    rely on:

    1. ``randrange(len(edges))``, the pair to recolor;
    2. ``choice`` over the other colors 1..k, ascending, with 0 (deletion)
       last while the deletion budget lasts;
    3. ``random()``, only on an uphill move, against
       ``pow(2.718281828459045, -delta / temperature)``.

    The first two are drawn as CPython draws them, with the same stream: a
    draw below s is ``getrandbits(s.bit_length())``, redrawn while it is s
    or more. s is never 0: a host without present pairs has no energy and
    draws nothing, and another color always exists.
    A move rescores only the class the pair leaves and the class it enters.
    An ``initial`` coloring seeds the first restart; it must have the
    instance's n, k and holes and delete at most ``inst.deleted_budget``
    of the present pairs, else ValueError.
    """
    schedule = schedule or AnnealSchedule()
    edges = inst.present_edges()
    if initial is not None:
        if (initial.n, initial.k) != (inst.n, inst.k):
            raise ValueError(
                f"initial coloring has n={initial.n}, k={initial.k}; "
                f"the instance has n={inst.n}, k={inst.k}"
            )
        if set(initial.holes.holes) != set(inst.holes.holes):
            raise ValueError("initial coloring has different holes from the instance")
        first = [initial.color_of(*e) or 0 for e in edges]
        if first.count(0) > inst.deleted_budget:
            raise ValueError(
                f"initial coloring deletes {first.count(0)} pairs, more than the "
                f"deletion budget {inst.deleted_budget}"
            )
    rng = random.Random(seed)
    getrandbits, random_ = rng.getrandbits, rng.random
    t0 = time.perf_counter()
    stats = SearchStats()
    n, k, targets = inst.n, inst.k, inst.targets
    # ell[c]: the length of class c's exact cycle target, else 0 (class 0 is
    # the deleted pairs and has no target)
    ell = [0] + [t.length if isinstance(t, CycleTarget) and t.exact else 0
                 for t in targets]
    # the colors a pair of class old may move to: recolor[old], and while the
    # deletion budget lasts, delete[old], which adds deletion (0) last; each
    # with its size and the bits of one draw below that size
    recolor = [tuple(c for c in range(1, k + 1) if c != old) for old in range(k + 1)]
    delete = [to + (0,) if old else to for old, to in enumerate(recolor)]
    recolor, delete = [[(to, len(to), len(to).bit_length()) for to in moves]
                       for moves in (recolor, delete)]
    m, steps, budget = len(edges), schedule.steps, inst.deleted_budget
    width = m.bit_length()
    ratio, span = T_END / T_START, max(1, steps - 1)
    bud = _Budget(float("inf"))  # annealing is bounded by its schedule
    header = _header(
        inst,
        "randomized",
        seed=seed,
        schedule={"steps": schedule.steps, "restarts": schedule.restarts},
    )

    def score(c: int, sign: int, u: int, v: int):
        # class c's energy after (u,v) entered (sign 1) or left (sign -1) it,
        # and, for a matching target, its repaired mates and matched mask
        a = adjs[c]
        if ell[c]:  # length times the cycles through (u,v), present or not
            return energies[c] + sign * ell[c] * _count_paths(
                a, u, v, ell[c] - 1, 1 << u | 1 << v
            ), None
        if not c:
            return 0, None
        if mates[c] is None:
            return _energy_of_color(n, a, targets[c - 1], bud), None
        match, matched = mates[c][0][:], mates[c][1]
        matched = _matched(match, _repair_matching(a, match, u, v), matched)
        return _energy_of_color(n, a, targets[c - 1], bud, matched), (match, matched)

    best_energy = None
    for restart in range(schedule.restarts):
        stats.restarts = restart + 1
        if restart == 0 and initial is not None:
            assignment = first
        else:
            assignment = list(_uniform_colors(rng, m, k))
        # adjs[0] holds the deleted pairs, so a move toggles two mask lists
        adjs = [[0] * n for _ in range(k + 1)]
        for (u, v), c in zip(edges, assignment):
            _toggle_edge(u, v, adjs[c])
        deleted_used = assignment.count(0)
        moves = delete if deleted_used < budget else recolor
        # (mate array, matched mask) of a maximum matching of each
        # matching-target class, kept across moves
        mates, energies = [None] * (k + 1), [0] * (k + 1)
        for c, t in enumerate(targets, 1):
            match = _mates(adjs[c]) if isinstance(t, MatchingTarget) else None
            mates[c] = match and (match, _matched(match))
            energies[c] = _energy_of_color(n, adjs[c], t, bud, match)
        total = sum(energies)
        if best_energy is None or total < best_energy:
            best_energy = total
        for step in range(steps):
            if total == 0:
                break
            stats.proposals += 1
            i = getrandbits(width)  # randrange(m)
            while i >= m:
                i = getrandbits(width)
            u, v = edges[i]
            old = assignment[i]
            to, count, bits = moves[old]
            new = getrandbits(bits)  # choice(to)
            while new >= count:
                new = getrandbits(bits)
            new = to[new]
            bu, bv = 1 << u, 1 << v
            a_old, a_new = adjs[old], adjs[new]
            a_old[u] ^= bv
            a_old[v] ^= bu
            a_new[u] ^= bv
            a_new[v] ^= bu
            # triangles through (u,v), scored inline: common neighbours of u, v
            keep_old = keep_new = None
            if ell[old] == 3:
                e_old = energies[old] - 3 * (a_old[u] & a_old[v]).bit_count()
            else:
                e_old, keep_old = score(old, -1, u, v)
            if ell[new] == 3:
                e_new = energies[new] + 3 * (a_new[u] & a_new[v]).bit_count()
            else:
                e_new, keep_new = score(new, 1, u, v)
            delta = e_old + e_new - energies[old] - energies[new]
            if delta <= 0 or random_() < pow(
                2.718281828459045,
                -delta / max(T_START * ratio ** (step / span), 1e-9),
            ):
                assignment[i] = new
                energies[old], energies[new] = e_old, e_new
                mates[old], mates[new] = keep_old, keep_new  # None but for M
                if not old or not new:
                    deleted_used += 1 if not new else -1
                    moves = delete if deleted_used < budget else recolor
                total += delta
                if total < best_energy:
                    best_energy = total
            else:
                a_old[u] ^= bv
                a_old[v] ^= bu
                a_new[u] ^= bv
                a_new[v] ^= bu
        if total == 0:
            cand = _witness_coloring(inst, edges, assignment, adjs)
            if len(cand.deleted) > inst.deleted_budget or not coloring_avoids_all(
                cand, targets
            ):
                raise AssertionError("internal: zero-energy coloring fails re-check")
            stats.best_energy = 0
            stats.elapsed = time.perf_counter() - t0
            return ArrowVerdict(False, cand, stats, header)
    stats.best_energy = best_energy
    stats.elapsed = time.perf_counter() - t0
    return ArrowVerdict(None, None, stats, header)

