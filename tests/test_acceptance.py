"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Sample counts and tolerances are fixed here, not configurable.
"""

import json
import random
from fractions import Fraction

from conftest import (
    all_verified,
    oracle_longest_cycle,
    oracle_matching_size,
    random_graph,
    subgraph_on,
)

from cycleramsey.bounds import (
    HoleParams,
    TargetTriple,
    lemma_dwa_host_size,
    theorem_coefficient,
    xi,
)
from cycleramsey.constructions import (
    build_eeo_four_part,
    build_eeo_three_part,
    build_odd_triple,
    build_oee_four_part,
    verify_claims,
)
from cycleramsey.cycles import erdos_gallai_cycle, longest_cycle, verify_cycle
from cycleramsey.graphs import Graph, bipartition, components
from cycleramsey.harness import lemma_harness
from cycleramsey.matchings import (
    MatchingCertificate,
    bipartite_split,
    closed_walk_through_matching,
    maximum_matching,
    tutte_partition,
)
from cycleramsey.search import (
    ArrowInstance,
    CycleTarget,
    arrow_exhaustive,
    arrow_randomized,
    ramsey_number_exact,
)

SEED = 20250809


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_01_construction_grids():
    reports = []
    for m1 in (3, 5, 7, 9):
        reports.append(build_odd_triple(m1))
    evens = (4, 6, 8)
    odds = (3, 5, 7, 9)
    for m1 in evens:
        for m2 in evens:
            if m1 >= m2:
                reports.append(build_eeo_four_part(m1, m2))
            for m3 in odds:
                reports.append(build_eeo_three_part(m1, m2, m3))
        for m2 in odds:
            reports.append(build_oee_four_part(m1, m2))
    failures = []
    for rep in reports:
        checked = verify_claims(rep)
        if not all_verified(checked):
            failures.append((rep.name, rep.params))
    _report(
        "1 construction-grids",
        not failures,
        f"{len(reports)} builds, failures={failures}",
    )


def test_criterion_02_small_ramsey_numbers():
    lines = []
    for length in (3, 4):
        targets = (CycleTarget(length), CycleTarget(length))
        refuted = arrow_exhaustive(ArrowInstance(5, targets))
        assert refuted.arrows is False and refuted.witness is not None
        forced = arrow_exhaustive(ArrowInstance(6, targets))
        assert forced.arrows is True
        result = ramsey_number_exact(targets, range(3, 8))
        assert result.value == 6
        # cross-check against pruning-disabled runs at N <= 6
        for n in range(3, 7):
            inst = ArrowInstance(n, targets)
            with_sym = arrow_exhaustive(inst, symmetry=True)
            without = arrow_exhaustive(inst, symmetry=False)
            assert with_sym.arrows == without.arrows is not None
        lines.append(f"R(C{length},C{length})=6")
    _report("2 small-ramsey", True, ", ".join(lines))


def test_criterion_03_oracle_equivalence():
    rng = random.Random(SEED)
    matching_mismatch = 0
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.05, 0.95))
        if len(maximum_matching(g).edges) != oracle_matching_size(g):
            matching_mismatch += 1
    cycle_mismatch = 0
    for _ in range(500):
        g = random_graph(rng, rng.randint(3, 10), rng.uniform(0.15, 0.85))
        found = longest_cycle(g, "any")
        if (0 if found is None else found[0]) != oracle_longest_cycle(g):
            cycle_mismatch += 1
    _report(
        "3 oracle-equivalence",
        matching_mismatch == 0 and cycle_mismatch == 0,
        f"matching mismatches={matching_mismatch}, cycle mismatches={cycle_mismatch}",
    )


def test_criterion_04_tutte_partition_suite():
    rng = random.Random(SEED + 1)
    violations = 0
    for _ in range(1000):
        g = random_graph(rng, rng.randint(2, 24), rng.uniform(0.03, 0.55))
        nu = len(maximum_matching(g).edges)
        n_target = 2 * nu + 1 + rng.randint(0, 4)
        part = tutte_partition(g, n_target)
        if not part.verify(g):
            violations += 1
    _report("4 tutte-partitions", violations == 0, f"violations={violations}")


def test_criterion_05_dense_cycle_suite():
    rng = random.Random(SEED + 2)
    violations = 0
    for _ in range(300):
        n = rng.randint(4, 16)
        m = rng.randint(3, n)
        need = ((m - 1) * (n - 1) + 2 + 1) // 2
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        g = Graph(n, pairs[: min(len(pairs), need + rng.randint(0, 4))])
        cert = erdos_gallai_cycle(g, m)
        if not (verify_cycle(g, cert) and cert.length >= m):
            violations += 1
    _report("5 dense-cycles", violations == 0, f"violations={violations}")


def test_criterion_06_bipartite_split_suite():
    rng = random.Random(SEED + 3)
    violations = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(3, 20), rng.uniform(0.05, 0.5))
        worst = 0
        for comp in components(g):
            if bipartition(subgraph_on(g, comp)) is None:
                worst = max(worst, maximum_matching(g, within=comp).saturation)
        # hypothesis: no non-bipartite component matching saturating alpha*n
        alpha_n = Fraction(worst) + Fraction(rng.randint(1, 4), 2)
        split = bipartite_split(g, alpha_n, 1)
        if not split.verify(g):
            violations += 1
    _report("6 bipartite-splits", violations == 0, f"violations={violations}")


def test_criterion_07_lemma_harness():
    eps = Fraction(1, 256)  # sqrt(eps) = 1/16 exactly; < 0.01 * min(alpha, beta)
    runs = [
        ("l2", {"n1": 40, "n2": 40, "eps": Fraction(1, 200)}, 200),
        (
            "double",
            {"N": 60, "nu1": Fraction(3, 10), "nu2": Fraction(3, 10),
             "eps": Fraction(1, 50)},
            200,
        ),
    ]
    for nu in (0, Fraction(1, 2), 1):
        runs.append(("dwa", {"alpha": 1, "beta": 1, "nu": nu, "eps": eps, "n": 40}, 67))
        runs.append(("trzy", {"alpha": 1, "beta": 1, "nu": nu, "eps": eps, "n": 40}, 67))
    details = []
    bad = 0
    for lemma, params, samples in runs:
        report = lemma_harness(lemma, params, samples=samples, seed=SEED + 4)
        clean = report.clean_failures()
        bad += len(clean)
        details.append(f"{lemma}:{report.passes}/{report.samples}")
    _report("7 lemma-harness", bad == 0, ", ".join(details))


def test_criterion_08_walk_constructions():
    rng = random.Random(SEED + 5)
    violations = 0
    done = 0
    while done < 300:
        g = random_graph(rng, rng.randint(3, 14), rng.uniform(0.2, 0.7))
        comps = [c for c in components(g) if len(c) >= 2]
        if not comps:
            continue
        comp = comps[rng.randrange(len(comps))]
        base = maximum_matching(g, within=comp)
        if not base.edges:
            continue
        keep = rng.randint(1, len(base.edges))
        matching = MatchingCertificate(tuple(rng.sample(list(base.edges), keep)))
        nonbip = bipartition(subgraph_on(g, comp)) is None
        parity = rng.choice(("odd", "even")) if nonbip else "even"
        walk = closed_walk_through_matching(g, matching, parity)
        if not walk.check(g, matching, parity, comp):
            violations += 1
        done += 1
    _report("8 matching-walks", violations == 0, f"violations={violations}")


def test_criterion_09_formula_calculator():
    assert theorem_coefficient(TargetTriple((1, 1, 1), ("odd",) * 3, 10)) == 4
    assert theorem_coefficient(
        TargetTriple((1, 1, 1), ("even", "even", "odd"), 10)
    ) == 3
    assert theorem_coefficient(
        TargetTriple((1, 2, 2), ("even", "odd", "odd"), 10)
    ) == 5
    assert xi(1, 1, 0) == 2
    assert xi(1, 1, 1) == Fraction(5, 2)
    assert xi(2, 1, 0) == 4
    eps = Fraction(1, 10000)
    assert lemma_dwa_host_size(HoleParams(1, 1, 0, eps), 100) == 153
    assert lemma_dwa_host_size(HoleParams(1, 1, 1, eps), 100) == 203
    assert lemma_dwa_host_size(HoleParams(1, Fraction(1, 2), 1, eps), 100) == 178

    rng = random.Random(SEED + 6)
    half = Fraction(1, 2)
    checks = 0
    for _ in range(10000):
        a = Fraction(rng.randint(4, 60), rng.randint(1, 8))
        b = Fraction(rng.randint(4, 60), rng.randint(1, 8))
        c = Fraction(rng.randint(4, 60), rng.randint(1, 8))
        nu = Fraction(rng.randint(0, 60), rng.randint(1, 8))
        case = rng.randrange(4)
        if case == 0:  # all odd: full permutation symmetry
            t = TargetTriple((a, b, c), ("odd",) * 3, 100)
            p = TargetTriple((c, a, b), ("odd",) * 3, 100)
        elif case == 1:  # even/even/odd: swap the evens
            t = TargetTriple((a, b, c), ("even", "even", "odd"), 100)
            p = TargetTriple((b, a, c), ("even", "even", "odd"), 100)
        elif case == 2:  # even/odd/odd: swap the odds
            t = TargetTriple((a, b, c), ("even", "odd", "odd"), 100)
            p = TargetTriple((a, c, b), ("even", "odd", "odd"), 100)
        else:
            t = TargetTriple((a, b, c), ("even",) * 3, 100)
            p = TargetTriple((c, b, a), ("even",) * 3, 100)
        assert theorem_coefficient(t) == theorem_coefficient(p)
        assert theorem_coefficient(t) >= max(t.alphas)
        assert xi(a, b, nu) >= half * a + half * b + max(half * a, half * b, nu)
        checks += 1
    _report("9 formula-calculator", checks == 10000, f"{checks} random triples")


def test_criterion_10_seeded_determinism():
    inst = ArrowInstance(5, (CycleTarget(3), CycleTarget(3)))
    randomized = [
        json.dumps(arrow_randomized(inst, seed=SEED).to_dict(), sort_keys=True)
        for _ in range(4)
    ]
    harness_params = {"alpha": 1, "beta": 1, "nu": 0, "eps": Fraction(1, 256),
                      "n": 16}
    harness = [
        json.dumps(
            lemma_harness("dwa", harness_params, samples=6, seed=SEED).to_dict(),
            sort_keys=True,
        )
        for _ in range(2)
    ]
    exhaustive = [
        json.dumps(arrow_exhaustive(inst).to_dict(), sort_keys=True)
        for _ in range(2)
    ]
    ok = (
        len(set(randomized)) == 1
        and len(set(harness)) == 1
        and len(set(exhaustive)) == 1
    )
    _report("10 determinism", ok, "randomized, harness and exhaustive reports")
