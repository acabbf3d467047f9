"""Seeded reports pinned by digest.

Each case builds a canonical report (``json.dumps(x.to_dict(),
sort_keys=True)``, or the plain data a sample driver returns) and compares its sha256 with a recorded value, so any
refactor that changes a construction, harness or search report byte-wise
fails here. The report digests were recorded before the duplicate
matching, reachability and host-size code was merged; the longest-cycle and
barrier-partition digests and the budget pins were recorded before the
single-pass Gallai-Edmonds set and the per-mask longest-cycle table; the
fixed-length cycle certificates and the cycle-target witnesses were recorded
before colorings were stored as one class graph per color and before
``has_cycle_of_length`` moved onto the shared simple-path kernel. The
at-least cycle-target anneal reports were recorded when those targets moved
from ``longest_cycle`` to the component presence score, which changed them
by design (the K24 run raised TableCapExceeded before). The total charge of
the at-least cycle score was recorded before its anchor loop moved into the
helper that also serves ``has_cycle_of_length``. None may be edited to make
a refactor pass.
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
from cycleramsey.errors import BudgetExceededError
from cycleramsey.graphs import Graph, complete_graph
from cycleramsey.harness import _run_f1, _run_hole_lemma, lemma_harness
from cycleramsey.matchings import maximum_matching, tutte_partition
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
HOLE = {"alpha": 1, "beta": 1, "nu": Fraction(1, 2), "eps": EPS, "n": 8}
F1 = {"alpha1": 1, "alpha2": 1, "eps": EPS, "n": 8}


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
    # drivers' (ok, info) pairs also pin the colorings the adversary leaves.
    "sample dwa adversarial": lambda: _run_hole_lemma(
        HOLE, random.Random(11), True, False, 20
    ),
    "sample trzy adversarial": lambda: _run_hole_lemma(
        HOLE, random.Random(12), True, True, 20
    ),
    "sample f1 adversarial": lambda: _run_f1(F1, random.Random(13), True, 20),
    "sample f1 uniform": lambda: _run_f1(F1, random.Random(14), False, 20),
    "exhaustive M4,M4@5": lambda: arrow_exhaustive(
        ArrowInstance(5, (MatchingTarget(4), MatchingTarget(4)))
    ),
    "exhaustive M4,M4n@7": lambda: arrow_exhaustive(
        ArrowInstance(7, (MatchingTarget(4), MatchingTarget(4, nonbipartite=True)))
    ),
    "exhaustive M4,M4n@6": lambda: arrow_exhaustive(M4_M4N),
    "exhaustive M6,M4,C3@7": lambda: arrow_exhaustive(M6_M4_C3),
    "randomized M4,M4n@6": lambda: arrow_randomized(M4_M4N, schedule=SHORT, seed=5),
    "randomized M6,M4,C3@7": lambda: arrow_randomized(M6_M4_C3, schedule=SHORT, seed=5),
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
    "has_cycle_of_length": _fixed_length_cycles,
    "longest_cycle any": lambda: _longest_cycles("any"),
    "longest_cycle odd": lambda: _longest_cycles("odd"),
    "longest_cycle even": lambda: _longest_cycles("even"),
    "tutte_partition": _tutte_partitions,
}

DIGESTS = {
    "eeo_four_part 4,4": "29c4b7e308882cb14ee4ca090cb984c855dceb17cafdbc955266d349ef5d5a41",
    "eeo_four_part 6,4": "2ca0096fd2a961a940b8b8e931dfecd4d5a46bb59e2b18c0add004d0e5583501",
    "eeo_three_part 4,4,3": "19a3a99a8bd2c77e4b540f2c59cd1065ad01254f0f148d150fba7fa10fda0a1c",
    "eeo_three_part 6,4,5": "7bdb61f89c9e07c15d9e9a1381b99a55b94021d08ea20834c627743b54d25c0b",
    "exhaustive M4,M4@5": "3d6b3620fb241d4054daf73f1c2533b8e7e6fe1ed2226f75200945c6815ff13b",
    "exhaustive M4,M4n@6": "15e036df184da46195c0671ec6d625347d59e62f6566c44ec6f393edcba8da6b",
    "exhaustive M4,M4n@7": "1a8c62c30185e4ad83f3be81eda6b00ae0f82f93a167d80e3693c31e8bc88564",
    "exhaustive M6,M4,C3@7": "a1b8ae4f6a8008be88b176e3355c9a8b38e844e622a4511e65a898b1ec7c48b7",
    "has_cycle_of_length": "cab5c1c7568c8947423b592ec3ab5ed7d4376fcb1f50870785d40e8fc91f4719",
    "harness double": "36a2ef86150e7151f91a5940b3e3b3dd2ec878175e766fef2a43ae55ae1482c2",
    "harness dwa": "47c5f9bddc31d307e4c09134050e8c2d863ddc01d9a80a70c24b7d6cb2eddf6e",
    "harness f1": "177f7dae35a1b66032ec254cca38f6f828a9928e9d9edfdf532c87388d9df5c1",
    "harness l2": "584f4d7fb95963d1197e705e67fef35e8d926522b211dfa845751490bbc14092",
    "harness trzy": "791474bbac5be0d067bef4be5529330851f616ac7d9050e944eb0e6e17cd1710",
    "longest_cycle any": "3bbcabe8801601f62434a211c996546e27d41ff8a8d8bef5c24e7ae46505fe39",
    "longest_cycle even": "fa1b02752bd4eb89cb61ab59cb1c2a877946cf8c3902a384c27eb8514bb00dcd",
    "longest_cycle odd": "1d5beeadd660711a12664d1bb71622ea3c8121366788de3f42d881dbfcea31bc",
    "odd_triple 3": "d366897753e5d37138f5db797254b689598cd2a140d78632425599127f87eb90",
    "odd_triple 5": "f6b1ee8fefe8f8900c66746503ec33c6b8ed6d6b9b9adc42603b684c0700e040",
    "oee_four_part 4,3": "781b727f20c5efcda35b6eccdefb697095c5b768d3ec4a38d671727324533063",
    "oee_four_part 6,5": "a9e380f7e31a8fc13012dcb26be5d93908f74bddd7cc176be5f4e08d8e112abb",
    "randomized C5+,C5+@10": "0ce62ee6051808e792b590889cfaad369980b2f0d6ff7786426a33492621a952",
    "randomized C5+,C5+@24": "6502c7613293a4683872a48de47141e57f6a6e4fd895b3ee217821ad2b53462b",
    "randomized C5+,C5+@6": "8f2293848423ffaa6e7f86f90ea4c6849145db10cb9d445882a4c0403a288307",
    "randomized M4,M4n@6": "0d6d339c3ad28070c10eb9e3c90c709fba91ed727aa72f2d3c511814cdd75524",
    "randomized M6,M4,C3@7": "bbddd99b3298e2af8021c7edeaa01a95a926b458982b728a721d6424ad71594c",
    "sample dwa adversarial": "ac0d2a8611ec68bd3b4106a5f827633d1144f1c91c5f5b6649928e54e83c09b3",
    "sample f1 adversarial": "6f4e9741bb83d2cc9301d9ad62ad1757f66e5ac5032108ad2f70b82223d38af5",
    "sample f1 uniform": "a144ed95d3f3508712d2d3033e53dd8d48a573cb91c46858d5fd209b3d295706",
    "sample trzy adversarial": "a27b077554b511ca656b5ee81360fb9394939bdf53e0eb515f4bd7b30d5f23c8",
    "tutte_partition": "a090198df18686b2c63afd954843c4d3f862fd3369cceb8766306ffef77d79c6",
    "witness exhaustive C4,C4,C4@10": "ed73e204d9805a8d4b65424e3358a8fea19ad8f60db3ba7225f15fe33e6b4cf6",
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


@pytest.mark.parametrize("budget", [0, 1, 2, 7, 100, 5000])
def test_longest_cycle_budget_exhaustion_is_pinned(budget):
    # running out reports one unit past the budget, whatever the budget
    with pytest.raises(BudgetExceededError) as err:
        longest_cycle(complete_graph(12), budget=budget)
    assert err.value.nodes == budget + 1


def test_longest_cycle_total_charge_is_pinned():
    # the Petersen graph's table costs exactly 238 (subset, endpoint) entries
    assert longest_cycle(_petersen(), budget=238)[0] == 9
    with pytest.raises(BudgetExceededError) as err:
        longest_cycle(_petersen(), budget=237)
    assert err.value.nodes == 238


def test_long_cycle_edges_total_charge_is_pinned():
    # the seeded graphs of test_long_cycle_edges_match_longest_cycle and
    # every L in 3..n: one unit per simple-path kernel call, 26 155 in all
    rng = random.Random(31)
    spent = 0
    for _ in range(160):
        n = rng.randint(3, 16)
        g = _random_graph(rng, n, rng.uniform(0.5, 4.0) / n)
        for ell in range(3, n + 1):
            bud = _Budget(10**8)
            _long_cycle_edges(g._adj, ell, bud)
            spent += bud.spent
    assert spent == 26155
