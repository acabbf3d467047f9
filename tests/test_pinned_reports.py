"""Seeded reports pinned by digest.

Each case builds a canonical report (``json.dumps(x.to_dict(),
sort_keys=True)``, or the plain data a lemma's sample returns) and compares
its sha256 with a recorded value, so any refactor that changes a
construction, harness or search report byte-wise fails here. The ``sample``
digests were recorded while the drivers built their failure record for
every sample; the cases now call the ``record()`` a sample returns, so they
pin the same bytes. The l2 deletion sampler was pinned at eps = 1/101,
inside l2's hypothesis, while each lemma still had a separate sample
driver. The report digests were recorded before the duplicate
matching, reachability and host-size code was merged; the barrier-partition
digest was recorded before the single-pass Gallai-Edmonds set; the
fixed-length cycle certificates and the cycle-target witnesses were recorded
before colorings were stored as one class graph per color and before
``has_cycle_of_length`` moved onto the shared simple-path kernel. The
at-least cycle-target anneal reports were recorded when those targets moved
from ``longest_cycle`` to the component presence score, which changed them
by design (the K24 run hit the table cap before). The total charge of
the at-least cycle score was recorded before its anchor loop moved into the
helper that also serves ``has_cycle_of_length``. The matching-target anneal
runs and the 100-step trzy adversary were recorded while every move still
recomputed both touched classes' maximum matchings. The construction grid
(every builder report of ``test_grid_all_builders_all_claims``, unverified)
and the exhaustive witnesses that need deleted pairs were recorded while
each builder colored its blocks through a rule closure and the exhaustive
search counted deletions apart from the color classes. The longest-cycle
lengths (no vertices) in every parity were recorded while ``longest_cycle``
still filled a 2^m reachability table; its certificates and charge pins
were re-recorded, by design, when it moved onto the anchored path search
over the 2-core relabelled by ascending degree, which finds other cycles
of the same lengths and charges one unit per kernel call. The fixed-length
cycle certificates and the Erdos-Gallai cycles were re-recorded, by design,
when ``has_cycle_of_length`` moved onto that degree-ordered 2-core and
``erdos_gallai_cycle`` replaced its path-rotation closure by one
degree-ordered anchored search on its dense core: each certificate is now
the first cycle in degree order, with the same presence for every length
and still at least m vertices. The uniform hole-lemma samples, the l2 and
double samples with nonzero deletion budgets and the deletions drawn on
holed hosts were recorded while the harness drew one ``randint`` per host
edge and sampled deletions from the host's edge list. The Erdos-Gallai
cycles on long clique chains were recorded while each reduction round took
a dense component, then split it at one articulation vertex at a time. The
anneals at the benchmark's schedules and the cycle-target anneals with
deletions were recorded while each proposal copied the mate arrays of all
classes and collected the touched classes' energies in a dict. None may be
edited to make a refactor pass.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from cycleramsey.cycles import (
    _Budget,
    _long_cycle_edges,
    erdos_gallai_cycle,
    has_cycle_of_length,
    longest_cycle,
)
from cycleramsey.constructions import (
    build_eeo_four_part,
    build_eeo_three_part,
    build_odd_triple,
    build_oee_four_part,
    verify_claims,
)
from cycleramsey.errors import (
    BudgetExceededError,
    NoQualifyingComponent,
    PreconditionViolated,
)
from cycleramsey.graphs import (
    Graph,
    HoleSpec,
    apply_holes_and_deletions,
    bipartition,
    complete_graph,
)
from cycleramsey.harness import LEMMAS, _sample_deletions, lemma_harness
from cycleramsey.matchings import (
    best_component_matching,
    bipartite_split,
    maximum_matching,
    tutte_partition,
)
from cycleramsey.search import (
    AnnealSchedule,
    ArrowInstance,
    CycleTarget,
    MatchingTarget,
    arrow_exhaustive,
    arrow_randomized,
)

EPS = Fraction(1, 256)

# (M4, M4n)@6 and (M6, M4, C3)@7: matching targets evaluate target_present
# (best component matching) at every search node.
M4_M4N = ArrowInstance(6, (MatchingTarget(4), MatchingTarget(4, nonbipartite=True)))
M6_M4_C3 = ArrowInstance(7, (MatchingTarget(6), MatchingTarget(4), CycleTarget(3)))
SHORT = AnnealSchedule(steps=300, restarts=2)
C5PLUS = (CycleTarget(5, exact=False),) * 2
ANNEAL = AnnealSchedule(steps=20, restarts=5)  # the benchmark's C5+ schedule
M6 = MatchingTarget(6)
HOLE = {"alpha": 1, "beta": 1, "nu": Fraction(1, 2), "eps": EPS, "n": 8}
F1 = {"alpha1": 1, "alpha2": 1, "eps": EPS, "n": 8}
L2 = {"n1": 30, "n2": 20, "eps": Fraction(1, 101)}  # deletion budget 5
# eps outside (0, 0.01*nu1) relaxes only a guard; deletion budget 6
DOUBLE = {"N": 30, "nu1": Fraction(3, 10), "nu2": Fraction(3, 5), "eps": Fraction(1, 4)}
EVEN, ODD = (4, 6, 8), (3, 5, 7, 9)


def _eager(sample):
    """A sample's ``(ok, record)`` with its record built."""
    ok, record = sample
    return ok, record()


def _sampler(lemma, params):
    """The lemma's ``sample(rng, steps)``, from its parameters read as the
    harness reads them."""
    lemma_sampler, kinds = LEMMAS[lemma]
    return lemma_sampler({k: kinds[k](v) for k, v in params.items()}, [])


def _holed_deletions():
    # 24 seeded complete hosts minus one random hole, each with a deletion
    # budget from 1 to past its edge count; the deletions in the order drawn,
    # then the rng's next draw, which pins the stream they consumed
    rng = random.Random(4008)
    out = []
    for _ in range(24):
        n = rng.randint(2, 40)
        hole = frozenset(rng.sample(range(n), rng.randint(0, n)))
        host = apply_holes_and_deletions(complete_graph(n), HoleSpec((hole,)))
        budget = rng.choice([1, 2, 7, host.num_edges, host.num_edges + 5])
        deletions = _sample_deletions(rng, host, budget)
        out.append([n, sorted(hole), budget, [list(e) for e in deletions],
                    rng.random()])
    return out


def _uniform_hole_samples(nonbip2):
    # uniform colorings (no adversary) at every hole fraction
    return [
        _eager(_sampler("trzy" if nonbip2 else "dwa", {**HOLE, "nu": nu, "n": 10})(
            random.Random(seed), 0))
        for seed, nu in enumerate((0, Fraction(1, 2), 1, Fraction(1, 2)), 16)
    ]


def _random_graph(rng, n, p):
    return Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                     if rng.random() < p])


def _petersen():
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def _longest_cycles(parity):
    # 36 seeded graphs with 4 <= n <= 16, then the Petersen graph
    rng = random.Random(4001)
    graphs = [_random_graph(rng, rng.randint(4, 16), rng.uniform(0.1, 0.6))
              for _ in range(36)]
    out = []
    for g in graphs + [_petersen()]:
        found = longest_cycle(g, parity)
        out.append(None if found is None else [found[0], list(found[1].vertices)])
    return out


def _longest_cycle_lengths():
    # the lengths alone (0 for none) of _longest_cycles in every parity
    return {parity: [0 if c is None else c[0] for c in _longest_cycles(parity)]
            for parity in ("any", "odd", "even")}


def _fixed_length_cycles():
    # 40 seeded graphs with 4 <= n <= 16, then the Petersen graph; the
    # certificate (or None) for every length 3..n
    rng = random.Random(4004)
    graphs = [_random_graph(rng, rng.randint(4, 16), rng.uniform(0.1, 0.6))
              for _ in range(40)]
    out = []
    for g in graphs + [_petersen()]:
        certs = [has_cycle_of_length(g, ell) for ell in range(3, g.n + 1)]
        out.append([None if c is None else list(c.vertices) for c in certs])
    return out


def _tutte_partitions():
    # 32 sparse seeded graphs with n <= 60 (mean degree 0.5-3), then one
    # graph with 300 vertices and 180 edges; targets 2*nu + 1 .. 2*nu + 4
    rng = random.Random(4002)
    graphs = []
    for _ in range(32):
        n = rng.randint(2, 60)
        graphs.append(_random_graph(rng, n, rng.uniform(0.5, 3.0) / n))
    pairs = list(itertools.combinations(range(300), 2))
    graphs.append(Graph(300, random.Random(4003).sample(pairs, 180)))
    out = []
    for g in graphs:
        nu = len(maximum_matching(g).edges)
        part = tutte_partition(g, 2 * nu + 1 + rng.randint(0, 3))
        out.append([sorted(part.S), sorted(part.T), sorted(part.U), part.n_target])
    return out


def _blocky_graph(rng, bipartite):
    # random blocks on disjoint vertex sets, some vertices isolated; with
    # ``bipartite`` every edge joins the two halves of a random split
    n = rng.randint(4, 40)
    blocks = rng.randint(1, 4)
    where = [rng.randint(0, blocks) for _ in range(n)]  # block ``blocks``: isolated
    half = [rng.randint(0, 1) for _ in range(n)]
    p = rng.uniform(0.15, 0.7)
    return Graph(n, [
        (u, v) for u, v in itertools.combinations(range(n), 2)
        if where[u] == where[v] < blocks
        and (not bipartite or half[u] != half[v])
        and rng.random() < p
    ])


def _blocky_graphs():
    # 40 seeded graphs with 4 <= n <= 40, every other one bipartite
    rng = random.Random(4005)
    return [_blocky_graph(rng, i % 2 == 0) for i in range(40)]


def _bipartitions():
    out = []
    for g in _blocky_graphs():
        sides = bipartition(g)
        out.append(None if sides is None else [sorted(sides[0]), sorted(sides[1])])
    return out


def _best_component_matchings(require_nonbipartite):
    out = []
    for g in _blocky_graphs():
        try:
            comp, match = best_component_matching(g, require_nonbipartite)
        except NoQualifyingComponent:
            out.append(None)
            continue
        out.append([sorted(comp), [list(e) for e in match.edges]])
    return out


def _bipartite_splits():
    # a bound no component reaches, and a bound of 6 that some exceed
    out = []
    for g in _blocky_graphs():
        for alpha in (g.n + 1, 6):
            try:
                split = bipartite_split(g, alpha, 1)
            except PreconditionViolated as exc:
                comp, match = exc.witness
                out.append(["violated", sorted(comp), [list(e) for e in match.edges]])
                continue
            out.append([sorted(split.Vprime), sorted(split.Vdoubleprime),
                        str(split.alpha_bound)])
    return out


def _restricted_matchings():
    # two random vertex subsets per graph, one given as a list, one as a set
    rng = random.Random(4006)
    out = []
    for g in _blocky_graphs():
        for as_set in (False, True):
            within = rng.sample(range(g.n), rng.randint(0, g.n))
            if as_set:
                within = set(within)
            out.append([list(e) for e in maximum_matching(g, within=within).edges])
    return out


def _erdos_gallai_cycles():
    # 24 seeded threshold graphs with 3 <= n <= 60, then 16 chains of cliques
    # sharing cut vertices, topped up with random chords to the threshold
    rng = random.Random(4007)
    cases = []
    for _ in range(24):
        n = rng.randint(3, 60)
        m = rng.randint(3, n)
        need = ((m - 1) * (n - 1) + 3) // 2
        pairs = list(itertools.combinations(range(n), 2))
        count = min(len(pairs), need + rng.randint(0, 3))
        cases.append((Graph(n, rng.sample(pairs, count)), m))
    while len(cases) < 40:
        m = rng.randrange(3, 12)
        n = 1 + rng.randint(2, 5) * (m - 2)
        if n > 60:
            continue
        edges = set()
        for at in range(0, n - 1, m - 2):
            edges.update(itertools.combinations(range(at, at + m - 1), 2))
        pairs = [e for e in itertools.combinations(range(n), 2) if e not in edges]
        rng.shuffle(pairs)
        while 2 * len(edges) < (m - 1) * (n - 1) + 2:
            edges.add(pairs.pop())
        cases.append((Graph(n, edges), m))
    return [[g.n, m, list(erdos_gallai_cycle(g, m).vertices)] for g, m in cases]


def _erdos_gallai_long_chains():
    # chains of K_{m-1} blocks sharing cut vertices with n near 400, each
    # topped up with random chords to the threshold: one dense block spans
    # the chords, and the reduction must cut away up to ~100 blocks around it
    rng = random.Random(4009)
    out = []
    for m, blocks in ((6, 99), (6, 99), (11, 44), (11, 44), (4, 199), (8, 66)):
        n = 1 + blocks * (m - 2)
        edges = set()
        for at in range(0, n - 1, m - 2):
            edges.update(itertools.combinations(range(at, at + m - 1), 2))
        while 2 * len(edges) < (m - 1) * (n - 1) + 2:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        cert = erdos_gallai_cycle(Graph(n, edges), m, budget=n)
        out.append([n, m, list(cert.vertices)])
    return out


CASES = {
    "odd_triple 3": lambda: verify_claims(build_odd_triple(3)),
    "odd_triple 5": lambda: verify_claims(build_odd_triple(5)),
    "eeo_four_part 4,4": lambda: verify_claims(build_eeo_four_part(4, 4)),
    "eeo_four_part 6,4": lambda: verify_claims(build_eeo_four_part(6, 4)),
    "eeo_three_part 4,4,3": lambda: verify_claims(build_eeo_three_part(4, 4, 3)),
    "eeo_three_part 6,4,5": lambda: verify_claims(build_eeo_three_part(6, 4, 5)),
    "oee_four_part 4,3": lambda: verify_claims(build_oee_four_part(4, 3)),
    "oee_four_part 6,5": lambda: verify_claims(build_oee_four_part(6, 5)),
    # 7 samples each: round(7 * 0.15) = 1 sample runs the adversary
    # the parameter grid of test_grid_all_builders_all_claims, unverified
    "grid odd_triple": lambda: [build_odd_triple(m1).to_dict() for m1 in ODD],
    "grid eeo_four_part": lambda: [
        build_eeo_four_part(m1, m2).to_dict()
        for m1, m2 in itertools.product(EVEN, EVEN) if m1 >= m2
    ],
    "grid eeo_three_part": lambda: [
        build_eeo_three_part(*ms).to_dict()
        for ms in itertools.product(EVEN, EVEN, ODD)
    ],
    "grid oee_four_part": lambda: [
        build_oee_four_part(*ms).to_dict() for ms in itertools.product(EVEN, ODD)
    ],
    "harness l2": lambda: lemma_harness(
        "l2", {"n1": 12, "n2": 10, "eps": Fraction(1, 200)}, samples=7, seed=3
    ),
    "harness double": lambda: lemma_harness(
        "double",
        {"N": 24, "nu1": Fraction(3, 10), "nu2": Fraction(3, 5), "eps": Fraction(1, 50)},
        samples=7,
        seed=3,
    ),
    "harness dwa": lambda: lemma_harness(
        "dwa", {"alpha": 1, "beta": 1, "nu": Fraction(1, 2), "eps": EPS, "n": 10},
        samples=7, seed=3,
    ),
    "harness trzy": lambda: lemma_harness(
        "trzy", {"alpha": 1, "beta": 1, "nu": 1, "eps": EPS, "n": 8},
        samples=7, seed=3,
    ),
    "harness f1": lambda: lemma_harness(
        "f1", {"alpha1": 1, "alpha2": 1, "eps": EPS, "n": 8}, samples=7, seed=3
    ),
    # Harness reports only show the witnesses of failed samples; the sample
    # samples' (ok, record()) pairs also pin the colorings the adversary leaves.
    "sample dwa adversarial": lambda: _eager(
        _sampler("dwa", HOLE)(random.Random(11), 20)
    ),
    "sample trzy adversarial": lambda: _eager(
        _sampler("trzy", HOLE)(random.Random(12), 20)
    ),
    "sample trzy adversarial 100 steps": lambda: _eager(
        _sampler("trzy", HOLE)(random.Random(15), 100)
    ),
    "sample f1 adversarial": lambda: _eager(_sampler("f1", F1)(random.Random(13), 20)),
    "sample f1 uniform": lambda: _eager(_sampler("f1", F1)(random.Random(14), 0)),
    "sample dwa uniform": lambda: _uniform_hole_samples(False),
    "sample trzy uniform": lambda: _uniform_hole_samples(True),
    # nonzero deletion budgets: passing reports do not show their deletions
    "sample l2 deleting eps=1/101": lambda: [
        _eager(_sampler("l2", L2)(random.Random(seed), 0)) for seed in range(16, 20)
    ],
    "sample double deleting": lambda: [
        _eager(_sampler("double", DOUBLE)(random.Random(seed), 0))
        for seed in range(16, 20)
    ],
    "sample_deletions holed": _holed_deletions,
    "exhaustive M4,M4@5": lambda: arrow_exhaustive(
        ArrowInstance(5, (MatchingTarget(4), MatchingTarget(4)))
    ),
    "exhaustive M4,M4n@7": lambda: arrow_exhaustive(
        ArrowInstance(7, (MatchingTarget(4), MatchingTarget(4, nonbipartite=True)))
    ),
    "exhaustive M4,M4n@6": lambda: arrow_exhaustive(M4_M4N),
    "exhaustive M6,M4,C3@7": lambda: arrow_exhaustive(M6_M4_C3),
    # witnesses that need their deletions: K6 minus (0,1) avoids C3 twice
    # (318 nodes); K7 minus the hole {0,1,2} needs two deleted pairs (71 nodes)
    "exhaustive C3,C3@6 deleting 1": lambda: arrow_exhaustive(
        ArrowInstance(6, (CycleTarget(3),) * 2, deleted_budget=1)
    ),
    "exhaustive C4,M6@7 hole 012 deleting 2": lambda: arrow_exhaustive(
        ArrowInstance(
            7,
            (CycleTarget(4), M6),
            holes=HoleSpec((frozenset({0, 1, 2}),)),
            deleted_budget=2,
        )
    ),
    "randomized M4,M4n@6": lambda: arrow_randomized(M4_M4N, schedule=SHORT, seed=5),
    "randomized M6,M4,C3@7": lambda: arrow_randomized(M6_M4_C3, schedule=SHORT, seed=5),
    # matching-target anneals: a witness, an unknown on K16, and deletion
    # moves that flip an edge of one matching class only
    "randomized M6,M6@7": lambda: arrow_randomized(
        ArrowInstance(7, (M6, M6)), schedule=SHORT, seed=5
    ),
    "randomized M8,M8@16": lambda: arrow_randomized(
        ArrowInstance(16, (MatchingTarget(8),) * 2),
        schedule=AnnealSchedule(steps=200, restarts=1),
        seed=1,
    ),
    "randomized M6,M6@8 deleting 4": lambda: arrow_randomized(
        ArrowInstance(8, (M6, M6), deleted_budget=4), schedule=SHORT, seed=5
    ),
    # cycle-target witnesses: the coloring a search returns, byte for byte
    "witness exhaustive C5,C5@8": lambda: arrow_exhaustive(
        ArrowInstance(8, (CycleTarget(5), CycleTarget(5)))
    ),
    "witness exhaustive C4,C4,C4@10": lambda: arrow_exhaustive(
        ArrowInstance(10, (CycleTarget(4),) * 3)
    ),
    "witness randomized C5,C5@8": lambda: arrow_randomized(
        ArrowInstance(8, (CycleTarget(5), CycleTarget(5))), schedule=SHORT, seed=5
    ),
    "witness randomized C4,C4,C4@8 from odd_triple 3": lambda: arrow_randomized(
        ArrowInstance(8, (CycleTarget(4),) * 3),
        schedule=SHORT,
        seed=5,
        initial=build_odd_triple(3).coloring,
    ),
    "randomized C5+,C5+@6": lambda: arrow_randomized(
        ArrowInstance(6, C5PLUS), schedule=ANNEAL, seed=1
    ),
    "randomized C5+,C5+@10": lambda: arrow_randomized(
        ArrowInstance(10, C5PLUS), schedule=ANNEAL, seed=1
    ),
    "randomized C5+,C5+@24": lambda: arrow_randomized(
        ArrowInstance(24, C5PLUS), schedule=ANNEAL, seed=1
    ),
    # the benchmark's heaviest anneals at their own schedules, and cycle
    # targets of every kind with deletions, so that moves into and out of
    # class 0 meet exact, at-least and matching classes
    "randomized C3,C3,C3@16": lambda: arrow_randomized(
        ArrowInstance(16, (CycleTarget(3),) * 3), schedule=AnnealSchedule(), seed=1
    ),
    "randomized C7,C7@12": lambda: arrow_randomized(
        ArrowInstance(12, (CycleTarget(7),) * 2),
        schedule=AnnealSchedule(steps=200, restarts=1),
        seed=1,
    ),
    "randomized M8,M8@16 benchmark schedule": lambda: arrow_randomized(
        ArrowInstance(16, (MatchingTarget(8),) * 2),
        schedule=AnnealSchedule(steps=700, restarts=3),
        seed=1,
    ),
    "randomized C4,C4@8 deleting 3": lambda: arrow_randomized(
        ArrowInstance(8, (CycleTarget(4),) * 2, deleted_budget=3),
        schedule=SHORT,
        seed=5,
    ),
    "randomized C3,C5+,M4@8 deleting 2": lambda: arrow_randomized(
        ArrowInstance(
            8,
            (CycleTarget(3), CycleTarget(5, exact=False), MatchingTarget(4)),
            deleted_budget=2,
        ),
        schedule=SHORT,
        seed=5,
    ),
    "has_cycle_of_length": _fixed_length_cycles,
    "longest_cycle any": lambda: _longest_cycles("any"),
    "longest_cycle odd": lambda: _longest_cycles("odd"),
    "longest_cycle even": lambda: _longest_cycles("even"),
    "longest_cycle lengths": _longest_cycle_lengths,
    "tutte_partition": _tutte_partitions,
    "bipartition": _bipartitions,
    "best_component_matching": lambda: _best_component_matchings(False),
    "best_component_matching nonbipartite": lambda: _best_component_matchings(True),
    "bipartite_split": _bipartite_splits,
    "maximum_matching within": _restricted_matchings,
    "erdos_gallai_cycle": _erdos_gallai_cycles,
    "erdos_gallai_cycle long chains": _erdos_gallai_long_chains,
}

DIGESTS = {
    "best_component_matching": "079d993fed6f14b77121f036c37e050519105534e6b33a4bc20187d14ebc93fc",
    "best_component_matching nonbipartite": "087a97f37ded221a92c97bbce82213aad199acf2845db36af9d4d57dfe695f88",
    "bipartite_split": "5e9c9cbd45ee33e5c6a958c0c5fe0c6cbf1f4f4fff8d4f6f012b117adc530815",
    "bipartition": "990150cffa2fcdcec85c42d372649ee81ace28911b02c10779fff2ba45ff8681",
    "eeo_four_part 4,4": "29c4b7e308882cb14ee4ca090cb984c855dceb17cafdbc955266d349ef5d5a41",
    "eeo_four_part 6,4": "2ca0096fd2a961a940b8b8e931dfecd4d5a46bb59e2b18c0add004d0e5583501",
    "eeo_three_part 4,4,3": "19a3a99a8bd2c77e4b540f2c59cd1065ad01254f0f148d150fba7fa10fda0a1c",
    "eeo_three_part 6,4,5": "7bdb61f89c9e07c15d9e9a1381b99a55b94021d08ea20834c627743b54d25c0b",
    "erdos_gallai_cycle": "44aef9d9fea0eb03027b89de5ea93f06e2500dd35c5223c509d7207cce41cbba",
    "erdos_gallai_cycle long chains": "847f65277a32d62b6a4c7f478e567e1fa9d8a97444435433fe1e280b70d4ac85",
    "exhaustive C3,C3@6 deleting 1": "b89eaff5d5f870f72635544aaad12d586c050335f1e3a83f424dcb85465faee6",
    "exhaustive C4,M6@7 hole 012 deleting 2": "5bd6a533fc0c85e8cafbc80a75f2b49bd98aa562a11ee44a31bc6513f6f7e582",
    "exhaustive M4,M4@5": "2513125a64194ce1b7d7f9aee8defdfe0d147530932569460a63a1e4439f39bd",
    "exhaustive M4,M4n@6": "15e036df184da46195c0671ec6d625347d59e62f6566c44ec6f393edcba8da6b",
    "exhaustive M4,M4n@7": "1a8c62c30185e4ad83f3be81eda6b00ae0f82f93a167d80e3693c31e8bc88564",
    "exhaustive M6,M4,C3@7": "a1b8ae4f6a8008be88b176e3355c9a8b38e844e622a4511e65a898b1ec7c48b7",
    "grid eeo_four_part": "e9d28bf29e1223c197f4185018cd9d32dbd4bdb22bbe16635e527bf6a67c5ddc",
    "grid eeo_three_part": "abb60ad5ef8c0d9d9be08fa30aca1c7c451cc1b67fbae49a8bb262c62ba1cd88",
    "grid odd_triple": "ffd794ce359fceb31c1997883b843e89ea5563a94c79de26936cdb7d9d8fe359",
    "grid oee_four_part": "23ba279646a08cbeb6226260ee6980088e540dea04009b94107be82c59b8b9cb",
    "harness double": "36a2ef86150e7151f91a5940b3e3b3dd2ec878175e766fef2a43ae55ae1482c2",
    "harness dwa": "47c5f9bddc31d307e4c09134050e8c2d863ddc01d9a80a70c24b7d6cb2eddf6e",
    "harness f1": "177f7dae35a1b66032ec254cca38f6f828a9928e9d9edfdf532c87388d9df5c1",
    "harness l2": "584f4d7fb95963d1197e705e67fef35e8d926522b211dfa845751490bbc14092",
    "harness trzy": "791474bbac5be0d067bef4be5529330851f616ac7d9050e944eb0e6e17cd1710",
    "has_cycle_of_length": "7b9e64731af1dd81d402621d2db43ecb3c46eb6248a46cfc9b5a44c89a137bc3",
    "longest_cycle any": "d3941e331980b3deb1ce3e9336c9771e7f8fb7260065b263cb7a3249f1807534",
    "longest_cycle even": "974c76ba3b61591aebba5d6baeae64a9aaaafe02aa35109f88cf4abf9e5704f6",
    "longest_cycle lengths": "b885af543478f6c8e4c86cabcaca7c6730afef384d34d17ff065e91806fbcdb4",
    "longest_cycle odd": "845c65e488be67d35769cd630936d37eb676e5e5ec9f2ffc59728acf33d03f84",
    "maximum_matching within": "9950996bf10660f022146a380449a63a5f5ee569f137c2e7e92f3685837447ed",
    "odd_triple 3": "d366897753e5d37138f5db797254b689598cd2a140d78632425599127f87eb90",
    "odd_triple 5": "f6b1ee8fefe8f8900c66746503ec33c6b8ed6d6b9b9adc42603b684c0700e040",
    "oee_four_part 4,3": "781b727f20c5efcda35b6eccdefb697095c5b768d3ec4a38d671727324533063",
    "oee_four_part 6,5": "9c735b820cd696070c2982b4896e09a4e31a26df500697bad2bab4936b5b120b",
    "randomized C3,C3,C3@16": "b05f11d5f39a71fcb1254acb6e667d96566b945f88356c939f2da05426978364",
    "randomized C3,C5+,M4@8 deleting 2": "8992a32318eed1a51c9b148eae348f1aced83ca98604fb60e2ff5ac63e00c2d5",
    "randomized C4,C4@8 deleting 3": "0fa05f64d01062273d1d86ed600ed46c0f04b51d1cd77cc31112af741d0ab065",
    "randomized C5+,C5+@10": "0ce62ee6051808e792b590889cfaad369980b2f0d6ff7786426a33492621a952",
    "randomized C5+,C5+@24": "6502c7613293a4683872a48de47141e57f6a6e4fd895b3ee217821ad2b53462b",
    "randomized C5+,C5+@6": "8f2293848423ffaa6e7f86f90ea4c6849145db10cb9d445882a4c0403a288307",
    "randomized C7,C7@12": "65c0381ade3a3b7cc7acbd92ca5fb49e9363688aca1f4e4b3cfc617611a025e4",
    "randomized M4,M4n@6": "0d6d339c3ad28070c10eb9e3c90c709fba91ed727aa72f2d3c511814cdd75524",
    "randomized M6,M4,C3@7": "bbddd99b3298e2af8021c7edeaa01a95a926b458982b728a721d6424ad71594c",
    "randomized M6,M6@7": "ea3cb023bf5bc846a0383d66d90c9494cd47b91c9a2a42624e02bdb356dc3104",
    "randomized M6,M6@8 deleting 4": "828c641110a4c8b037c4b831eedc228b2003175b1f98837f8079d6f49c8bbd29",
    "randomized M8,M8@16": "26af29a7454b59a6d691a4e054eee748cb13c3f09eb2d441e81de0d3830f81e0",
    "randomized M8,M8@16 benchmark schedule": "86ba6b01a1fdad157b369551fea73e50817301422c8e288bfbcbfc1bbcc36210",
    "sample double deleting": "e3d89070dad0eff4e72d8dc281fc3ee2329419231e2843c1c2307425675715c6",
    "sample dwa adversarial": "ac0d2a8611ec68bd3b4106a5f827633d1144f1c91c5f5b6649928e54e83c09b3",
    "sample dwa uniform": "40af7e960e2d2c90d2b8eeb59a7113104ded82908cae8278b062660299d0da11",
    "sample f1 adversarial": "6f4e9741bb83d2cc9301d9ad62ad1757f66e5ac5032108ad2f70b82223d38af5",
    "sample f1 uniform": "a144ed95d3f3508712d2d3033e53dd8d48a573cb91c46858d5fd209b3d295706",
    "sample l2 deleting eps=1/101": "5998bb17f087c2445beffd8c7581dac93911126bee76768eeebc545fecb1bc7b",
    "sample trzy adversarial 100 steps": "72a83b261248164410ba30924676a08c789318c442a1c4b43bee077a75aea125",
    "sample trzy adversarial": "a27b077554b511ca656b5ee81360fb9394939bdf53e0eb515f4bd7b30d5f23c8",
    "sample trzy uniform": "c8c08f7f8d6b80b9e098e2bb68b0b88cfa39c6a7703e3b35ba9750b172a79ae4",
    "sample_deletions holed": "6575f8d695ebc74f4c021a509dc24f33c33b4a178a89c2f4eb76afb0b2bdab53",
    "tutte_partition": "a090198df18686b2c63afd954843c4d3f862fd3369cceb8766306ffef77d79c6",
    "witness exhaustive C4,C4,C4@10": "4c8e13cf972c53b750aaa1291ec8b10fb4df4a19a393c7cb84cf034528930844",
    "witness exhaustive C5,C5@8": "fa2718e75c9e650348839caa386ec10709f8a42ec316ee60d25db841ec3928b7",
    "witness randomized C4,C4,C4@8 from odd_triple 3": "d666f4af38c8071f58885e46cd365cfa3c41d6ec48811bf7ad77488b1477f9f1",
    "witness randomized C5,C5@8": "0c3c77a41e24954393173b398989d1345a6a6387fb0ecbf434240566d3044fdd",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest_is_pinned(name):
    out = CASES[name]()
    data = out.to_dict() if hasattr(out, "to_dict") else out
    text = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]


def _clique_chain():
    # three copies of K6, consecutive ones sharing a vertex: 16 vertices
    return Graph(16, [(u, v) for b in (0, 5, 10)
                      for u, v in itertools.combinations(range(b, b + 6), 2)])


@pytest.mark.parametrize("budget", [0, 1, 2, 7, 100, 5000])
def test_longest_cycle_budget_exhaustion_is_pinned(budget):
    # running out reports one unit past the budget, whatever the budget
    with pytest.raises(BudgetExceededError) as err:
        longest_cycle(_clique_chain(), budget=budget)
    assert err.value.nodes == budget + 1


def test_longest_cycle_total_charge_is_pinned():
    # one unit per simple-path kernel call: K12's Hamiltonian cycle is the
    # first length tried, the Petersen graph refutes 10 before it finds 9,
    # and the clique chain refutes every length from 16 down to 7; the
    # seeded 22-vertex graph has a vertex of degree two, which the search
    # anchors at, so its Hamiltonian cycle costs 20
    hamiltonian = _random_graph(random.Random(22057), 22, 0.35)
    for g, length, charge in ((complete_graph(12), 12, 10), (_petersen(), 9, 161),
                              (_clique_chain(), 6, 7486), (hamiltonian, 22, 20)):
        assert longest_cycle(g, budget=charge)[0] == length
        with pytest.raises(BudgetExceededError) as err:
            longest_cycle(g, budget=charge - 1)
        assert err.value.nodes == charge


def test_long_cycle_edges_total_charge_is_pinned():
    # the seeded graphs of test_long_cycle_edges_match_longest_cycle and
    # every L in 3..n: one unit per simple-path kernel call, 5 139 in all
    rng = random.Random(31)
    spent = 0
    for _ in range(160):
        n = rng.randint(3, 16)
        g = _random_graph(rng, n, rng.uniform(0.5, 4.0) / n)
        for ell in range(3, n + 1):
            bud = _Budget(10**8)
            _long_cycle_edges(g._adj, ell, bud)
            spent += bud.spent
    assert spent == 5139
