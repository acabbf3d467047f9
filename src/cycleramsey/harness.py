"""Property harness for the asymptotic matching lemmas at desk scale.

Each harness run generates random instances meeting a lemma's hypotheses
(random hole placement, random deletions within budget, uniform and
adversarial-local-search colorings), evaluates the lemma's conclusion
exactly, and reports failures with witnesses. The statements are
asymptotic ("for every n > n0"), so desk-scale failures are possible in
principle; every failure is recorded together with a structural
hypothesis re-check of the offending instance.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate
from typing import Callable

from . import __version__
from .bounds import (
    HoleParams, _host_size, lemma_dwa_host_size, lemma_trzy_host_size, rational
)
from .errors import HypothesisViolation
from .graphs import (
    EdgeColoring,
    Graph,
    HoleSpec,
    _component_masks,
    _toggle_edge,
    _two_color,
    _uniform_colors,
    apply_holes_and_deletions,
    coloring_to_dict,
    complete_graph,
    graph_to_dict,
)
from .matchings import _best_matched, _matched, _mates, _repair_matching, _saturation


@dataclass
class FailureRecord:
    sample: int
    mode: str
    description: str
    witness: dict
    hypothesis_recheck: dict


@dataclass
class HarnessReport:
    lemma: str
    params: dict
    samples: int
    passes: int
    failures: list[FailureRecord]
    hypothesis_warnings: list[str]
    header: dict

    def clean_failures(self) -> list[FailureRecord]:
        """Failures whose instances pass the structural hypothesis re-check."""
        return [f for f in self.failures if f.hypothesis_recheck.get("ok")]

    def to_dict(self) -> dict:
        return {**asdict(self), "params": {k: str(v) for k, v in self.params.items()}}


class _EdgeView(Sequence):
    """``Graph.edges()`` of the rows ``adj`` without the list: ``view[i]`` is
    found through per-row prefix counts of upper neighbours and a bisect.

    ``random.sample`` and ``randrange`` read only the length, so drawing from
    the view draws the same edges from the same random stream as drawing
    from the list. A small population ``random.sample`` copies by iterating
    until ``IndexError``, which the view raises past its end.
    """

    def __init__(self, adj: tuple[int, ...]):
        self._adj = adj
        upper = ((row >> (u + 1)).bit_count() for u, row in enumerate(adj))
        self._ends = list(accumulate(upper))  # edges in rows 0..u

    def __len__(self) -> int:
        return self._ends[-1]

    def __getitem__(self, i: int) -> tuple[int, int]:
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("edge index out of range")
        u = bisect_right(self._ends, i)
        m = self._adj[u] >> (u + 1) << (u + 1)
        for _ in range(i - (self._ends[u - 1] if u else 0)):
            m &= m - 1  # drop the lowest neighbour
        return u, (m & -m).bit_length() - 1


def _sample_deletions(rng: random.Random, host: Graph, budget: int) -> list:
    if budget <= 0:
        return []
    count = rng.randint(0, budget)
    if count == 0:
        return []
    edges = _EdgeView(host._adj)
    return rng.sample(edges, min(count, len(edges)))


def _sampled_host(rng: random.Random, host: Graph, budget: int) -> tuple[Graph, list]:
    """``host`` minus ``_sample_deletions``: (the sampled graph, the deletions)."""
    deletions = _sample_deletions(rng, host, budget)
    return apply_holes_and_deletions(host, HoleSpec(), deletions), deletions


_SECOND_COLOR_BIT = bytes.maketrans(b"\x01\x02", b"01")


def _second_color_rows(adj: tuple[int, ...], colors: bytes) -> list[int]:
    """Adjacency masks of the edges colored 2, where ``colors`` holds one color
    (1 or 2) per edge of ``adj`` in ``Graph.edges()`` order.

    Each row's upper triangle becomes n binary digits, bit v at digit n-1-v,
    and the rows are stacked from n-1 down to 0. Read flat, that string lists
    the edges in reverse ``edges()`` order, so the reversed colors fill it
    row by row: a row whose upper neighbours form one run takes one slice,
    and a row with gaps (a hole row) takes its slice through one ``%`` on its
    digit pattern, so the cost is per row, not per edge. Digits n-1-u, n-1-u
    + n, ... then spell row u's lower triangle: one transpose.
    """
    n = len(adj)
    bits = colors[::-1].translate(_SECOND_COLOR_BIT).decode()
    rows, at = [], 0
    for u in range(n - 1, -1, -1):
        m = adj[u] >> (u + 1) << (u + 1)
        d = m.bit_count()
        if m & (m + (m & -m)):  # more than one run
            pattern = format(m, f"0{n}b").replace("1", "%c")
            rows.append(pattern % tuple(bits[at : at + d]))
        else:
            low = (m & -m).bit_length() - 1 if m else 0
            rows.append("0" * (n - low - d) + bits[at : at + d] + "0" * low)
        at += d
    flat = "".join(rows)
    return [
        int(flat[(n - 1 - u) * n : (n - u) * n], 2) | int(flat[n - 1 - u :: n], 2)
        for u in range(n)
    ]


def _two_color_margin(classes, matched, thresholds, nonbip2: bool) -> Fraction:
    """max(s1 - t1, s2 - t2), s_i the best component saturation of class i
    under a maximum matching whose matched mask is ``matched[i]``; the
    conclusion holds iff >= 0."""
    s1 = _best_matched(classes[0], matched[0])[0]
    s2 = _best_matched(classes[1], matched[1], nonbip2)[0]
    return max(s1 - thresholds[0], s2 - thresholds[1])


def _adversarial_two_coloring(
    rng: random.Random, edges: Sequence, classes: list[list[int]],
    thresholds: tuple[Fraction, Fraction], nonbip2: bool, steps: int,
) -> bool:
    """Greedy local search lowering the conclusion margin (tries to falsify).

    A move toggles an edge of ``edges`` in classes 1 and 2, swapping its color.
    The margin reads the matched masks of both classes' maximum matchings,
    which each move repairs (``_repair_matching``: Berge's lemma); returns
    the final conclusion.
    With no move to make, the conclusion ``margin >= 0`` is ``s1 >= t1 or
    s2 >= t2``, and class 2 is matched only when class 1 falls short."""
    if not (steps and edges):
        if _saturation(classes[0]) >= thresholds[0]:
            return True
        return _saturation(classes[1], nonbip2) >= thresholds[1]
    mates = [_mates(adj) for adj in classes[:2]]
    matched = [_matched(match) for match in mates]
    cur = _two_color_margin(classes, matched, thresholds, nonbip2)
    for _ in range(steps):
        u, v = edges[rng.randrange(len(edges))]
        _toggle_edge(u, v, classes[0], classes[1])
        trial = [match[:] for match in mates]
        marks = [_repair_matching(adj, match, held, u, v)
                 for adj, match, held in zip(classes, trial, matched)]
        new = _two_color_margin(classes, marks, thresholds, nonbip2)
        if new <= cur:
            cur, mates, matched = new, trial, marks
        else:
            _toggle_edge(u, v, classes[0], classes[1])
    return cur >= 0


# ---------------------------------------------------------------------------
# Lemmas.
# ---------------------------------------------------------------------------

_Sample = tuple[bool, Callable[[], dict]]  # a sample's (ok, record)
_Draw = Callable[[random.Random, int], _Sample]  # sample(rng, steps)


def _l2(p: dict, guards: list[str]) -> _Draw:
    n1, n2, eps = p["n1"], p["n2"], p["eps"]
    if n1 < n2 or n2 < 1:
        raise HypothesisViolation("need |V1| >= |V2| >= 1")
    if not 0 < eps < Fraction(1, 100):
        raise HypothesisViolation("need 0 < eps < 0.01")
    n = n1 + n2
    left = (1 << n1) - 1
    host = Graph._from_masks(n, [left ^ ((1 << n) - 1)] * n1 + [left] * n2)
    budget = int(eps * n1 * n2)
    size_thresh, card_thresh = (1 - 3 * eps) * n, (1 - 3 * eps) * n2
    min_edges = (1 - eps) * n1 * n2

    def sample(rng: random.Random, steps: int) -> _Sample:
        # nothing is colored, so ``steps`` is unused: only deletions vary
        g, deletions = _sampled_host(rng, host, budget)
        # a maximum matching of g is maximum on each component: a component
        # saturates its matched vertices
        matched = _matched(_mates(g._adj))
        ok = any(
            comp.bit_count() >= size_thresh
            and (comp & matched).bit_count() >= 2 * card_thresh
            for comp in _component_masks(g._adj, g.vertices_mask())
        )

        def record() -> dict:
            witness = {"graph": graph_to_dict(g), "deletions": sorted(deletions)}
            dense = g.num_edges >= min_edges
            why = [] if dense else ["edge count below (1-eps)|V1||V2|"]
            return {"witness": witness, "recheck": {"ok": dense, "violations": why}}

        return ok, record

    return sample


def _double(p: dict, guards: list[str]) -> _Draw:
    N, nu1, nu2, eps = p["N"], p["nu1"], p["nu2"], p["eps"]
    if not 0 <= nu1 <= nu2 <= 1:
        raise HypothesisViolation("need 0 <= nu1 <= nu2 <= 1")
    if eps <= 0:  # no guard relaxes this one: N >= 4/eps would have no meaning
        raise HypothesisViolation("need eps > 0")
    if not eps < Fraction(1, 100) * nu1:
        guards.append("eps outside (0, 0.01*nu1)")
    if N < 4 / eps:
        guards.append("N below 4/eps")
    sizes = int(nu1 * N), int(nu2 * N)
    budget = int(eps**3 * Fraction(N * (N - 1), 2))
    if 2 * sizes[1] <= N:
        thresh, branch = (1 - 5 * eps) * N, "small-hole"
    else:
        thresh, branch = (2 - 7 * eps) * N - 2 * sizes[1], "large-hole"
    complete = complete_graph(N)

    def sample(rng: random.Random, steps: int) -> _Sample:
        # nothing is colored, so ``steps`` is unused: holes and deletions vary
        u1, u2 = (frozenset(rng.sample(range(N), size)) for size in sizes)
        host = apply_holes_and_deletions(complete, HoleSpec((u1, u2)))
        g, deletions = _sampled_host(rng, host, budget)
        ok = _saturation(g._adj) >= thresh

        def record() -> dict:
            witness = {
                "graph": graph_to_dict(g),
                "U1": sorted(u1),
                "U2": sorted(u2),
                "branch": branch,
                "threshold": str(thresh),
            }
            recheck = {"ok": len(deletions) <= budget, "violations": []}
            return {"witness": witness, "recheck": recheck}

        return ok, record

    return sample


def _hole_lemma(p: dict, guards: list[str], nonbip2: bool) -> _Draw:
    hp = HoleParams(p["alpha"], p["beta"], p["nu"], p["eps"])
    n = p["n"]
    N = (lemma_trzy_host_size if nonbip2 else lemma_dwa_host_size)(hp, n)
    hole_size = int(hp.nu * n)
    budget = int(hp.epsilon**3 * n * n)
    thresholds = ((hp.alpha + hp.epsilon) * n, (hp.beta + hp.epsilon) * n)
    complete = complete_graph(N)

    def sample(rng: random.Random, steps: int) -> _Sample:
        w = frozenset(rng.sample(range(N), hole_size))
        host = apply_holes_and_deletions(complete, HoleSpec((w,)))
        g, deletions = _sampled_host(rng, host, budget)
        second = _second_color_rows(g._adj, _uniform_colors(rng, g.num_edges, 2))
        classes = [[a ^ b for a, b in zip(g._adj, second)], second]
        moves = _EdgeView(g._adj)  # the adversary draws a few edges by index
        ok = _adversarial_two_coloring(rng, moves, classes, thresholds, nonbip2, steps)

        def record() -> dict:
            coloring = EdgeColoring._from_masks(N, classes, HoleSpec((w,)), deletions)
            witness = {
                "coloring": coloring_to_dict(coloring),
                "hole": sorted(w),
                "thresholds": [str(t) for t in thresholds],
            }
            kept = len(w) == hole_size and len(deletions) <= budget
            return {"witness": witness, "recheck": {"ok": kept, "violations": []}}

        return ok, record

    return sample


def _f1(p: dict, guards: list[str]) -> _Draw:
    a1, a2, eps, n = p["alpha1"], p["alpha2"], p["eps"], p["n"]
    if not a1 >= a2 > 0:
        raise HypothesisViolation("need alpha1 >= alpha2 > 0")
    if not 0 < eps < Fraction(1, 100) * a2:
        raise HypothesisViolation("need 0 < eps < 0.01*alpha2")
    if n < 1:
        raise HypothesisViolation("need n >= 1")
    nverts = _host_size(2 * a1 + a2, 9, eps, n)
    t3 = _host_size(Fraction(3, 2) * a1 + Fraction(1, 2) * a2, 8, eps, n)
    budget = int(eps**4 * n * n)
    thresholds = ((a1 + eps) * n, (a2 + eps) * n)
    complete = complete_graph(nverts)

    def sample(rng: random.Random, steps: int) -> _Sample:
        b = rng.randint(min(t3, nverts), nverts)
        y = rng.randint(1, b // 2)
        x = b - y
        perm = rng.sample(range(nverts), nverts)
        xs, ys = set(perm[:x]), set(perm[x : x + y])
        g, deletions = _sampled_host(rng, complete, budget)
        classes = [[0] * nverts for _ in range(3)]
        third_mutable = []
        xys = xs | ys
        for u, v in g.edges():
            if (u in xs and v in ys) or (u in ys and v in xs):
                c = 3
            elif u not in xys and v not in xys:
                c = rng.randint(1, 3)
            else:
                c = rng.randint(1, 2)
                third_mutable.append((u, v))
            classes[c - 1][u] |= 1 << v
            classes[c - 1][v] |= 1 << u
        ok = _adversarial_two_coloring(rng, third_mutable, classes, thresholds, False, steps)

        def record() -> dict:
            coloring = EdgeColoring._from_masks(nverts, classes, HoleSpec(), deletions)
            adj3 = coloring.color_class(3)._adj
            gprime = sum(
                c.bit_count() for c in _component_masks(adj3, g.vertices_mask())
                if _two_color(adj3, c)[0] is not None
            )
            witness = {
                "coloring": coloring_to_dict(coloring), "bipartite_third_union": gprime
            }
            big = gprime >= t3
            why = [] if big else ["bipartite third-color union too small"]
            kept = big and len(deletions) <= budget
            return {"witness": witness, "recheck": {"ok": kept, "violations": why}}

        return ok, record

    return sample


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

_HOLE = {"alpha": Fraction, "beta": Fraction, "nu": Fraction, "eps": Fraction, "n": int}

# lemma id -> (lemma(params, guards), parameters). ``parameters`` maps each
# parameter to its kind; ``lemma_harness`` reads the rationals by it, and the
# CLI builds its ``lemma`` flags from it (rationals first). A lemma checks its
# hypotheses, appends each asymptotic guard it relaxes to ``guards``, derives
# what no sample changes and returns ``sample(rng, steps)``: one draw with
# ``steps`` adversary moves (0: uniform) as (ok, record), where ``record()``
# builds the failure record, {"witness": ..., "recheck": ...}.
LEMMAS = {
    "l2": (_l2, {"eps": Fraction, "n1": int, "n2": int}),
    "double": (_double, {"eps": Fraction, "nu1": Fraction, "nu2": Fraction, "N": int}),
    "dwa": (partial(_hole_lemma, nonbip2=False), _HOLE),
    "trzy": (partial(_hole_lemma, nonbip2=True), _HOLE),
    "f1": (_f1, {"eps": Fraction, "alpha1": Fraction, "alpha2": Fraction, "n": int}),
}
LEMMA_IDS = tuple(LEMMAS)
ADVERSARIAL_FRACTION = 0.15  # share of samples whose coloring the adversary tunes
_ADVERSARY_STEPS = 20  # default moves of the adversary per tuned sample


def lemma_harness(
    lemma: str,
    params: dict,
    samples: int,
    seed: int,
    strict: bool = False,
    adversary_steps: int = _ADVERSARY_STEPS,
) -> HarnessReport:
    """Sample instances meeting the lemma's hypotheses and test its conclusion.

    ``params`` must hold exactly the parameters that ``LEMMAS`` names for the
    lemma; each rational is read here once (``bounds.rational``), and the
    report echoes the values read. The lemma derives its constants once per
    run; under ``strict`` a guard it relaxes raises ``HypothesisViolation``.
    Each sample draws from its own ``random.Random(seed * 1_000_003 + i)``,
    and its ``record()`` runs only when it fails. ``l2`` and ``double`` color
    nothing, so they take ``adversary_steps`` only at its default, and only
    ``double`` has asymptotic guards for ``strict``."""
    if lemma not in LEMMAS:
        raise ValueError(f"unknown lemma id {lemma!r}; choose from {LEMMA_IDS}")
    lemma_sampler, parameters = LEMMAS[lemma]
    if params.keys() != parameters.keys():
        got = ", ".join(sorted(params)) or "none"
        raise ValueError(f"lemma {lemma!r} takes {', '.join(parameters)}; got {got}")
    if samples < 1:
        raise ValueError("need at least one sample")
    if adversary_steps < 0:
        raise ValueError(f"need adversary_steps >= 0, got {adversary_steps}")
    if lemma in ("l2", "double") and adversary_steps != _ADVERSARY_STEPS:
        raise ValueError(f"lemma {lemma!r} colors nothing; adversary_steps is unused")
    if strict and lemma != "double":
        raise ValueError(f"lemma {lemma!r} has no asymptotic guards; strict is unused")
    params = {k: rational(v, k) if parameters[k] is Fraction else v
              for k, v in params.items()}
    guards: list[str] = []
    sample = lemma_sampler(params, guards)
    if guards and strict:
        raise HypothesisViolation("; ".join(guards))

    n_adv = round(samples * ADVERSARIAL_FRACTION)
    failures: list[FailureRecord] = []
    passes = 0
    for i in range(samples):
        adversarial = i < n_adv
        ok, record = sample(random.Random(seed * 1_000_003 + i),
                            adversary_steps if adversarial else 0)
        if ok:
            passes += 1
            continue
        info = record()
        failures.append(FailureRecord(
            sample=i, mode="adversarial" if adversarial else "uniform",
            description="conclusion failed on this instance",
            witness=info["witness"], hypothesis_recheck=info["recheck"],
        ))
    header = {
        "lemma": lemma,
        "seed": seed,
        "version": __version__,
        "adversarial_samples": n_adv,
        "finite_instantiation": (
            "asymptotic statement instantiated at a fixed finite size; "
            "conclusions evaluated exactly per sample, failures below the "
            "statement's n0 threshold are possible and carry witnesses"
        ),
    }
    return HarnessReport(
        lemma=lemma,
        params=params,
        samples=samples,
        passes=passes,
        failures=failures,
        hypothesis_warnings=[f"asymptotic guard relaxed: {g}" for g in guards],
        header=header,
    )
