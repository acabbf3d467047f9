import itertools
import json
import random
from collections import namedtuple

import pytest

from conftest import (
    has_cycle_brute,
    oracle_circumference,
    random_graph,
    reference_anneal,
)
from cycleramsey.constructions import build_odd_triple
from cycleramsey.cycles import _Budget
from cycleramsey.errors import BudgetExceededError
from cycleramsey.graphs import MAX_VERTICES, EdgeColoring, HoleSpec
from cycleramsey.search import (
    AnnealSchedule,
    ArrowInstance,
    CycleTarget,
    MatchingTarget,
    _Carry,
    _color_predecessors,
    _energy_of_color,
    _prefix_is_canonical,
    _refined_twins,
    _twin_row_falls,
    arrow_exhaustive,
    arrow_randomized,
    coloring_avoids_all,
    instance_from_dict,
    ramsey_number_exact,
    target_present,
)

C3C3 = (CycleTarget(3), CycleTarget(3))


def test_arrow_exhaustive_c3c3():
    v5 = arrow_exhaustive(ArrowInstance(5, C3C3))
    assert v5.arrows is False
    assert v5.witness is not None
    assert coloring_avoids_all(v5.witness, C3C3)
    v6 = arrow_exhaustive(ArrowInstance(6, C3C3))
    assert v6.arrows is True and v6.witness is None


def test_arrow_exhaustive_c4c4():
    targets = (CycleTarget(4), CycleTarget(4))
    assert arrow_exhaustive(ArrowInstance(5, targets)).arrows is False
    assert arrow_exhaustive(ArrowInstance(6, targets)).arrows is True


def test_ramsey_number_exact():
    result = ramsey_number_exact(C3C3, range(3, 8))
    assert result.value == 6
    assert result.verdicts[5].arrows is False
    result = ramsey_number_exact((CycleTarget(4), CycleTarget(4)), range(3, 8))
    assert result.value == 6


def test_ramsey_bracket_with_unknowns():
    targets = (CycleTarget(3), CycleTarget(3), CycleTarget(3))
    result = ramsey_number_exact(targets, range(3, 12), budget=3000)
    assert result.value is None
    assert result.unknowns  # the budget gives out before the scan decides
    assert all(result.verdicts[n].arrows is None for n in result.unknowns)


def test_symmetry_pruning_is_sound():
    cases = [
        ArrowInstance(5, C3C3),
        ArrowInstance(6, C3C3),
        ArrowInstance(6, (CycleTarget(4), CycleTarget(4))),
        ArrowInstance(7, C3C3),
        ArrowInstance(5, (CycleTarget(3), CycleTarget(4))),
        ArrowInstance(4, (MatchingTarget(4), MatchingTarget(4))),
    ]
    for inst in cases:
        with_sym = arrow_exhaustive(inst, symmetry=True)
        without = arrow_exhaustive(inst, symmetry=False)
        assert with_sym.arrows == without.arrows
        assert with_sym.stats.nodes <= without.stats.nodes


def test_monotone_in_host_size():
    # once an instance arrows, every larger hole-free host arrows too
    decided = {}
    for n in range(3, 8):
        decided[n] = arrow_exhaustive(ArrowInstance(n, C3C3)).arrows
    for n in range(3, 7):
        if decided[n] is True:
            assert decided[n + 1] is True


def test_exhaustive_search_is_bounded_only_by_its_budget():
    # no host is refused for its size: K14 is searched at default arguments
    verdict = arrow_exhaustive(ArrowInstance(14, C3C3))
    assert verdict.arrows is True and verdict.witness is None


def test_budget_gives_unknown():
    inst = ArrowInstance(9, (CycleTarget(5), CycleTarget(5), CycleTarget(5)))
    verdict = arrow_exhaustive(inst, budget=50)
    assert verdict.arrows is None and verdict.witness is None


def test_matching_target_examples():
    # K4, both colors demand a component matching saturating 4: refuted by a
    # triangle/star split (ground truth via the pruning-free exhaustive run)
    inst = ArrowInstance(4, (MatchingTarget(4), MatchingTarget(4)))
    verdict = arrow_exhaustive(inst)
    free = arrow_exhaustive(inst, symmetry=False)
    assert verdict.arrows == free.arrows is False
    assert coloring_avoids_all(verdict.witness, inst.targets)

    # K2 colored entirely with color 2 avoids a color-1 demand
    inst = ArrowInstance(2, (MatchingTarget(2), MatchingTarget(4)))
    verdict = arrow_exhaustive(inst)
    assert verdict.arrows is False

    # unmeetable saturations refute trivially on a holey host
    inst = ArrowInstance(
        4,
        (MatchingTarget(4, nonbipartite=True), MatchingTarget(6)),
        holes=HoleSpec(({0, 1},)),
    )
    assert arrow_exhaustive(inst).arrows is False


def test_cycle_arrow_implies_derived_matching_arrow():
    # a cycle of length m inside a color class yields a matching saturating
    # 2*floor(m/2) vertices in that component (non-bipartite for odd m)
    for targets, n in [(C3C3, 6), ((CycleTarget(4), CycleTarget(4)), 6)]:
        cycle_verdict = arrow_exhaustive(ArrowInstance(n, targets))
        derived = tuple(
            MatchingTarget(2 * (t.length // 2), nonbipartite=t.length % 2 == 1)
            for t in targets
        )
        matching_verdict = arrow_exhaustive(ArrowInstance(n, derived))
        if cycle_verdict.arrows is True:
            assert matching_verdict.arrows is True


def test_randomized_finds_witness_and_agrees_with_exhaustive():
    inst = ArrowInstance(5, C3C3)
    verdict = arrow_randomized(inst, seed=7)
    assert verdict.arrows is False
    assert coloring_avoids_all(verdict.witness, C3C3)
    # at an arrowing size the randomized search must stay unknown
    true_inst = ArrowInstance(6, C3C3)
    assert arrow_exhaustive(true_inst).arrows is True
    verdict = arrow_randomized(
        true_inst, seed=7, schedule=AnnealSchedule(steps=1500, restarts=2)
    )
    assert verdict.arrows is None


def test_randomized_accepts_provided_coloring():
    report = build_odd_triple(5)
    inst = ArrowInstance(
        16, (CycleTarget(5), CycleTarget(5), CycleTarget(5))
    )
    verdict = arrow_randomized(inst, seed=1, initial=report.coloring)
    assert verdict.arrows is False
    assert verdict.stats.proposals == 0  # zero violations on arrival


def test_randomized_checks_the_initial_coloring():
    # color 1 is the triangle 0,1,2 and color 2 the star at vertex 3
    k4 = EdgeColoring._from_masks(
        4, [[0b0110, 0b0101, 0b0011, 0], [0b1000, 0b1000, 0b1000, 0b0111]]
    )
    with pytest.raises(ValueError, match="n=4, k=2"):
        arrow_randomized(ArrowInstance(6, C3C3), initial=k4)
    three = build_odd_triple(3).coloring  # n=8, three colors
    with pytest.raises(ValueError, match="k=3"):
        arrow_randomized(ArrowInstance(8, C3C3), initial=three)
    holed = ArrowInstance(
        8, (CycleTarget(4),) * 3, holes=HoleSpec((frozenset({0, 1}),))
    )
    with pytest.raises(ValueError, match="holes"):
        arrow_randomized(holed, initial=three)
    # deleting a pair of K4 needs a deletion budget of at least one
    masks = [list(g._adj) for g in k4.classes]
    masks[1][2] ^= 1 << 3
    masks[1][3] ^= 1 << 2
    sparse = EdgeColoring._from_masks(4, masks, deleted=[(2, 3)])
    with pytest.raises(ValueError, match="deletes 1 pairs"):
        arrow_randomized(ArrowInstance(4, C3C3), initial=sparse)
    verdict = arrow_randomized(ArrowInstance(4, C3C3, deleted_budget=1), initial=sparse)
    assert verdict.arrows is False and len(verdict.witness.deleted) <= 1


def test_at_least_energy_is_zero_iff_target_absent():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(4, 12)
        g = random_graph(rng, n, rng.uniform(0.1, 0.6))
        best = oracle_circumference(g)["any"]
        for ell in range(3, n + 1):
            target = CycleTarget(ell, exact=False)
            energy = _energy_of_color(n, list(g._adj), target, _Budget(10**8))
            assert (energy == 0) == (best < ell) == (not target_present(g, target))


def test_at_least_targets_beyond_the_table_cap():
    c5plus = (CycleTarget(5, exact=False),) * 2
    # each class of a 2-coloring of K24 has >= 138 > 46 edges somewhere,
    # so no coloring avoids C5+ twice and the search stays unknown
    verdict = arrow_randomized(
        ArrowInstance(24, c5plus), schedule=AnnealSchedule(steps=20, restarts=1)
    )
    assert verdict.arrows is None and verdict.stats.best_energy > 0
    for seed in range(10):
        verdict = arrow_randomized(
            ArrowInstance(6, c5plus), schedule=AnnealSchedule(steps=200, restarts=2),
            seed=seed,
        )
        assert verdict.arrows is False, seed
        assert coloring_avoids_all(verdict.witness, c5plus)
    verdict = arrow_exhaustive(ArrowInstance(7, c5plus))
    assert verdict.arrows is True and verdict.stats.nodes == 497


def test_randomized_reaches_zero_on_construction_size():
    # small construction-size instance reachable from a random start
    inst = ArrowInstance(8, (CycleTarget(3), CycleTarget(3), CycleTarget(3)))
    verdict = arrow_randomized(inst, seed=11)
    assert verdict.arrows is False
    assert coloring_avoids_all(verdict.witness, inst.targets)


def test_seeded_determinism_across_runs():
    inst = ArrowInstance(5, C3C3)
    reports = {
        json.dumps(arrow_randomized(inst, seed=42).to_dict(), sort_keys=True)
        for _ in range(3)
    }
    assert len(reports) == 1


def _random_initial(rng, inst):
    # a uniform coloring of the present pairs with up to the budget deleted
    edges = inst.present_edges()
    deleted = rng.sample(edges, rng.randint(0, inst.deleted_budget))
    masks = [[0] * inst.n for _ in range(inst.k)]
    for u, v in edges:
        if (u, v) not in deleted:
            c = rng.randrange(inst.k)
            masks[c][u] |= 1 << v
            masks[c][v] |= 1 << u
    return EdgeColoring._from_masks(inst.n, masks, inst.holes, deleted)


def test_randomized_matches_from_scratch_rescoring():
    # 40 seeded instances on at most 8 vertices: exact and at-least cycles,
    # matchings with and without the non-bipartite demand, two and three
    # colors, deletion budgets 0..3, with and without an initial coloring
    pool = [CycleTarget(3), CycleTarget(4), CycleTarget(5), CycleTarget(3, False),
            CycleTarget(4, False), CycleTarget(5, False), MatchingTarget(4),
            MatchingTarget(6), MatchingTarget(4, nonbipartite=True)]
    rng = random.Random(2207)
    kinds = set()
    for case in range(40):
        k = 2 + case % 2
        targets = tuple(rng.choice(pool) for _ in range(k))
        inst = ArrowInstance(rng.randint(6, 8), targets, deleted_budget=case % 4)
        initial = _random_initial(rng, inst) if case % 3 == 0 else None
        schedule = AnnealSchedule(rng.randint(40, 160), rng.randint(1, 3))
        seed = rng.randrange(10**6)
        got = arrow_randomized(inst, schedule=schedule, seed=seed, initial=initial)
        assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(
            reference_anneal(inst, schedule, seed, initial), sort_keys=True
        ), (case, inst, schedule, seed)
        kinds.update(map(repr, targets))
    assert kinds == set(map(repr, pool))


def test_randomized_matches_rescoring_on_long_cycles_and_split_matchings(monkeypatch):
    # exact C6 and C7 on 9..12 vertices, whose moves count paths of 5 and 6
    # edges down to the closed-form last three; then matching targets on
    # hosts with holes and deletions, where a class's matched vertices lie
    # in one component (the readout's flood stops early) or in several (it
    # walks the components): both must happen, and augmentations with them
    import cycleramsey.matchings as matchings
    import cycleramsey.search as search

    counts = {"joined": 0, "split": 0, "walks": 0, "augmented": 0}
    readout, walk, repair = (search._best_matched, matchings._component_masks,
                             search._repair_matching)

    def counted_readout(adj, matched, nonbip=False, whole=True):
        walks = counts["walks"]
        saturation, comp = readout(adj, matched, nonbip, whole)
        if saturation and not nonbip:  # the flood ran; did it reach them all?
            counts["split" if counts["walks"] > walks else "joined"] += 1
        return saturation, comp

    def counted_walk(*args):
        counts["walks"] += 1
        return walk(*args)

    def counted_repair(adj, match, u, v):
        # an augmenting search: exposed vertices fall below the count before
        # the flip (plus u and v if it removed their matched pair), unless
        # the flip only matched its two exposed ends
        paired = adj[u] >> v & 1 and match[u] == -1 == match[v]
        before = match.count(-1) + 2 * (match[u] == v)
        changed = repair(adj, match, u, v)
        counts["augmented"] += not paired and match.count(-1) < before
        return changed

    monkeypatch.setattr(search, "_best_matched", counted_readout)
    monkeypatch.setattr(matchings, "_component_masks", counted_walk)
    monkeypatch.setattr(search, "_repair_matching", counted_repair)
    rng = random.Random(6411)
    cases = []
    for case in range(8):
        other = rng.choice((CycleTarget(6), CycleTarget(7), CycleTarget(4, False),
                            MatchingTarget(6)))
        inst = ArrowInstance(rng.randint(9, 12), (CycleTarget(6 + case % 2), other),
                             deleted_budget=case % 3)
        cases.append((inst, AnnealSchedule(rng.randint(8, 20), rng.randint(1, 2))))
    pool = [MatchingTarget(4), MatchingTarget(6), MatchingTarget(4, nonbipartite=True),
            CycleTarget(3), CycleTarget(4, False)]
    for case in range(12):
        n = rng.randint(7, 10)
        hole = frozenset(rng.sample(range(n), rng.randint(2, n // 2)))
        targets = (MatchingTarget(4),) + tuple(rng.choice(pool) for _ in range(case % 2 + 1))
        inst = ArrowInstance(n, targets, HoleSpec((hole,)) if case % 3 else HoleSpec(),
                             deleted_budget=rng.randint(0, 6))
        cases.append((inst, AnnealSchedule(rng.randint(60, 120), rng.randint(1, 2))))
    for inst, schedule in cases:
        seed = rng.randrange(10**6)
        got = arrow_randomized(inst, schedule=schedule, seed=seed)
        assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(
            reference_anneal(inst, schedule, seed), sort_keys=True
        ), (inst, schedule, seed)
    assert counts["joined"] > counts["split"] > 0 and counts["augmented"] > 0


def test_deletion_budget_counterexamples():
    # K2 always has a monochromatic edge, but one deletion kills the host
    targets = (MatchingTarget(2), MatchingTarget(2))
    assert arrow_exhaustive(ArrowInstance(2, targets)).arrows is True
    verdict = arrow_exhaustive(ArrowInstance(2, targets, deleted_budget=1))
    assert verdict.arrows is False
    assert len(verdict.witness.deleted) == 1


def test_instance_vertex_count_is_validated():
    for n in (0, -3, 513):
        with pytest.raises(ValueError, match=f"vertex count {n} outside 1..512"):
            ArrowInstance(n, C3C3)
    assert ArrowInstance(1, C3C3).present_edges() == []


def test_instance_roundtrip():
    inst = ArrowInstance(
        6,
        (CycleTarget(4, exact=False), MatchingTarget(4, nonbipartite=True)),
        holes=HoleSpec(({0, 1, 2},)),
        deleted_budget=2,
    )
    assert instance_from_dict(inst.to_dict()) == inst


def test_witnesses_are_reverified():
    # arrows=False verdicts carry a witness; re-verify through the public path
    verdict = arrow_exhaustive(ArrowInstance(5, C3C3))
    assert coloring_avoids_all(verdict.witness, C3C3)
    atleast = (CycleTarget(4, exact=False), CycleTarget(4, exact=False))
    verdict = arrow_exhaustive(ArrowInstance(5, atleast))
    if verdict.arrows is False:
        assert coloring_avoids_all(verdict.witness, atleast)


def _oracle_arrows(inst):
    """Full enumeration over deletion patterns and colorings."""
    import itertools

    from cycleramsey.graphs import EdgeColoring, Graph

    edges = inst.present_edges()
    k = inst.k
    lowest = 0 if inst.deleted_budget else 1
    for assignment in itertools.product(range(lowest, k + 1), repeat=len(edges)):
        if assignment.count(0) > inst.deleted_budget:
            continue
        classes = tuple(
            Graph(inst.n, (e for e, c in zip(edges, assignment) if c == i))
            for i in range(1, k + 1)
        )
        deleted = frozenset(e for e, c in zip(edges, assignment) if c == 0)
        col = EdgeColoring(inst.n, k, classes, inst.holes, deleted)
        if coloring_avoids_all(col, inst.targets):
            return False
    return True


def test_exhaustive_matches_enumeration_oracle():
    import random

    rng = random.Random(2024)
    pool = [
        lambda: CycleTarget(rng.randint(3, 5), exact=True),
        lambda: CycleTarget(rng.randint(3, 5), exact=False),
        lambda: MatchingTarget(2 * rng.randint(1, 2), nonbipartite=rng.random() < 0.5),
    ]
    for _ in range(40):
        n = rng.randint(3, 5)
        k = rng.choice((2, 2, 3))
        if k == 3 and n > 4:
            n = 4  # keep the oracle affordable
        targets = tuple(pool[rng.randrange(3)]() for _ in range(k))
        holes = (
            HoleSpec((frozenset(rng.sample(range(n), rng.randint(0, n))),))
            if rng.random() < 0.4
            else HoleSpec()
        )
        inst = ArrowInstance(n, targets, holes, rng.randint(0, 1))
        got = arrow_exhaustive(inst)
        assert got.arrows == _oracle_arrows(inst), inst
        if got.arrows is False:
            assert coloring_avoids_all(got.witness, inst.targets)


def _enumerate_path_lengths(adj, u, v, avoid):
    """Edge counts of all simple u->v paths with inner vertices outside avoid."""
    lengths = []

    def walk(cur, seen, edges):
        for w in range(len(adj)):
            if not adj[cur] >> w & 1:
                continue
            if w == v:
                lengths.append(edges + 1)
            elif not (seen | avoid) >> w & 1:
                walk(w, seen | 1 << w, edges + 1)

    walk(u, 1 << u, 0)
    return lengths


def _is_simple_path(adj, walk):
    return len(set(walk)) == len(walk) and all(
        adj[a] >> b & 1 for a, b in zip(walk, walk[1:])
    )


def test_path_kernel_matches_enumeration():
    import itertools
    import random

    from cycleramsey.cycles import _Budget, _count_paths, _simple_paths

    rng = random.Random(77)
    for _ in range(120):
        n = rng.randint(3, 9)
        p = rng.choice((0.3, 0.5, 0.8))
        adj = [0] * n
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < p:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
        u, v = rng.sample(range(n), 2)
        avoid = 1 << u | 1 << v
        for w in rng.sample(range(n), rng.randint(0, n // 3)):
            avoid |= 1 << w
        lengths = _enumerate_path_lengths(adj, u, v, avoid)
        # no simple path of n or more edges fits on n vertices
        for steps in range(1, n + 3):
            assert _count_paths(adj, u, v, steps, avoid) == lengths.count(steps)
        for steps in range(1, n):
            bud = _Budget(10**9)
            exact = lengths.count(steps)
            # the presence check asks for no path; at four and five edges
            # the bare answer is closed form and costs one unit
            bare = _Budget(10**9)
            assert _simple_paths(adj, u, v, steps, avoid, bare) == (exact > 0)
            assert steps not in (4, 5) or bare.spent == 1
            inner = []
            assert _simple_paths(adj, u, v, steps, avoid, bud, out=inner) == (exact > 0)
            if exact:
                # inner vertices, last first: the path reads u, inner reversed, v
                walk = [u, *reversed(inner), v]
                assert len(walk) == steps + 1 and _is_simple_path(adj, walk)
                assert not any(avoid >> w & 1 for w in inner)
            else:
                assert inner == []
            # at least ``steps`` edges: the same answer and charge with or
            # without the path, which is simple, long enough and avoids avoid
            bare, full = _Budget(10**9), _Budget(10**9)
            found = _simple_paths(adj, u, v, steps, avoid, bare, atleast=True)
            assert found == any(ell >= steps for ell in lengths)
            inner = []
            assert _simple_paths(
                adj, u, v, steps, avoid, full, atleast=True, out=inner
            ) == found
            assert full.spent == bare.spent
            walk = [u, *reversed(inner), v]
            if found:
                assert len(walk) >= steps + 1 and _is_simple_path(adj, walk)
                assert not any(avoid >> w & 1 for w in inner)
            else:
                assert inner == []
        # u == v: closed paths are the cycles through u on vertices outside
        # avoid, each counted once per direction; none has more than n edges
        u = rng.randrange(n)
        avoid = (2 << u) - 1
        for steps in range(3, n + 3):
            cycles = [
                rest
                for rest in itertools.permutations(
                    [w for w in range(n) if not avoid >> w & 1], steps - 1
                )
                if _is_simple_path(adj, [u, *rest]) and adj[rest[-1]] >> u & 1
            ]
            assert _count_paths(adj, u, u, steps, avoid) == len(cycles)
            if steps > n:
                continue
            inner = []
            found = _simple_paths(adj, u, u, steps, avoid, _Budget(10**9), out=inner)
            assert found == (len(cycles) > 0)
            assert inner[::-1] == (list(min(cycles)) if cycles else [])
            assert _simple_paths(adj, u, u, steps, avoid, _Budget(10**9)) == found


def test_path_kernel_parity_refutation_matches_enumeration():
    # random bipartite hosts, some with one or two edges inside a side: in
    # a bipartite host every u->v path has the parity of u and v's sides,
    # and one kernel call refutes an exact length of the other parity
    from cycleramsey.cycles import _simple_paths

    rng = random.Random(2718)
    refuted = 0
    for trial in range(240):
        n = rng.randint(4, 10)
        side = [rng.random() < 0.5 for _ in range(n)]
        p = rng.choice((0.4, 0.6, 0.9))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if side[a] != side[b] and rng.random() < p]
        same = [(a, b) for a in range(n) for b in range(a + 1, n) if side[a] == side[b]]
        extra = rng.sample(same, min(len(same), rng.choice((0, 0, 1, 2))))
        adj = [0] * n
        for a, b in pairs + extra:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        u, v = rng.sample(range(n), 2)
        for end in (v, u):  # an open path, then the cycles through u
            avoid = 1 << u | 1 << end
            for w in rng.sample(range(n), rng.randint(0, n // 4)):
                avoid |= 1 << w
            lengths = _enumerate_path_lengths(adj, u, end, avoid)
            for steps in range(3 if end == u else 1, n + 1):
                bud = _Budget(10**9)
                inner = []
                found = _simple_paths(adj, u, end, steps, avoid, bud, out=inner)
                assert found == (steps in lengths), (trial, end == u, steps)
                if found:
                    walk = [u, *reversed(inner), end]
                    assert len(walk) == steps + 1 and adj[walk[-2]] >> end & 1
                    assert _is_simple_path(adj, walk[:-1] if end == u else walk)
                    assert not any(avoid >> w & 1 for w in inner)
                else:
                    assert inner == []
                if not extra and steps % 2 != (side[u] != side[end]):
                    assert bud.spent == 1, (trial, end == u, steps)
                    refuted += steps >= 4
    assert refuted > 200


def test_count_paths_matches_enumeration_at_the_annealing_size():
    # the C7,C7@12 anneal counts 6-edge paths on 12 vertices: 5 to 7 steps
    # on 10 to 12 vertices, open paths and cycles through u, with and
    # without more vertices to avoid, so the closed-form last three edges
    # meet starts that are also ends
    from cycleramsey.cycles import _count_paths

    rng = random.Random(1212)
    for trial in range(10):
        n = rng.randint(10, 12)
        adj = list(random_graph(rng, n, rng.choice((0.45, 0.6)))._adj)
        u, v = rng.sample(range(n), 2)
        if trial % 2:
            v = u
        avoid = 1 << u | 1 << v
        for w in rng.sample(range(n), rng.randint(0, 2)):
            avoid |= 1 << w
        lengths = _enumerate_path_lengths(adj, u, v, avoid)
        for steps in (5, 6, 7):
            assert _count_paths(adj, u, v, steps, avoid) == lengths.count(steps), (
                trial, steps)


def test_bare_path_kernel_matches_enumeration_at_the_search_size():
    # the presence check's question at n = 10 to 12: is there a u->v path
    # of 4 to 6 edges, or a cycle through u, with no path asked for? Sparse
    # and dense hosts, with up to four more vertices to avoid, so that the
    # four- and five-edge closed forms meet middle vertices or edges whose
    # only first and last steps are one vertex, and answers of both kinds
    from cycleramsey.cycles import _simple_paths

    rng = random.Random(1011)
    answers = set()
    for trial in range(40):
        n = rng.randint(10, 12)
        adj = list(random_graph(rng, n, rng.choice((0.15, 0.25, 0.4)))._adj)
        u, v = rng.sample(range(n), 2)
        if trial % 2:
            v = u
        avoid = 1 << u | 1 << v
        for w in rng.sample(range(n), rng.randint(0, 4)):
            avoid |= 1 << w
        lengths = _enumerate_path_lengths(adj, u, v, avoid)
        for steps in (4, 5, 6):
            bud = _Budget(10**9)
            found = _simple_paths(adj, u, v, steps, avoid, bud)
            assert found == (steps in lengths), (trial, steps)
            assert steps == 6 or bud.spent == 1
            answers.add((steps, found))
    assert answers == {(s, f) for s in (4, 5, 6) for f in (0, 1)}


def test_draws_never_take_zero_bits(monkeypatch):
    # getrandbits(0) is always 0, so a draw below 0 would never end: a host
    # without present pairs must draw nothing, and a deletion budget that
    # runs out mid-run leaves at least one color to draw
    drawn = []

    class Checked(random.Random):
        def getrandbits(self, k):
            assert k > 0, "a draw of no bits"
            drawn.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(random, "Random", Checked)
    everything = HoleSpec((frozenset(range(5)),))
    for inst in (ArrowInstance(1, C3C3), ArrowInstance(5, C3C3, everything),
                 ArrowInstance(5, (MatchingTarget(2),) * 3, everything, 2)):
        verdict = arrow_randomized(inst, AnnealSchedule(500, 3), seed=4)
        assert verdict.arrows is False and verdict.stats.proposals == 0
        assert drawn == []
    # with two colors, a color is drawn in 2 bits while deletion is offered
    # and in 1 bit (one other color) once the budget of one deletion is
    # used; the run must see both and agree with the rescoring replay
    inst = ArrowInstance(6, C3C3, deleted_budget=1)
    schedule = AnnealSchedule(300, 2)
    got = arrow_randomized(inst, schedule, seed=11)
    assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(
        reference_anneal(inst, schedule, 11), sort_keys=True)
    assert {1, 2} <= set(drawn)


def test_count_paths_guard_refuses_targets_longer_than_the_host(monkeypatch):
    from cycleramsey import cycles

    kernel = cycles._count_paths
    walks = []
    walk = cycles._count_walk

    def counted(adj, free, last, steps, avoid):
        walks.append(steps)
        return walk(adj, free, last, steps, avoid)

    monkeypatch.setattr(cycles, "_count_walk", counted)
    # on K16, at most 14 inner vertices fit outside {0, 1}, so the guard
    # refuses a 0-1 path of 16 or more edges before any walk
    full = (1 << 16) - 1
    adj = [full & ~(1 << w) for w in range(16)]
    for steps in (16, 17, 19, 40):
        assert kernel(adj, 0, 1, steps, 0b11) == 0
    assert walks == []
    # paths of 5 edges fit: one walk from 0, one through its 14 neighbours,
    # and one from each of those, which closes the last three edges inline
    assert kernel(adj, 0, 1, 5, 0b11) == 14 * 13 * 12 * 11
    assert walks == [5, 4, *[3] * 14]

    # exact targets longer than the host: every coloring avoids them, and
    # no energy walks a single path
    walks.clear()
    inst = ArrowInstance(16, (CycleTarget(17), CycleTarget(20)))
    verdict = arrow_randomized(inst, schedule=AnnealSchedule(50, 1), seed=1)
    assert verdict.arrows is False and walks == []
    assert coloring_avoids_all(verdict.witness, inst.targets)


@pytest.mark.parametrize(
    "targets, n, nodes, presence_prunes",
    [
        ((CycleTarget(5), CycleTarget(5)), 9, 807, 267),
        ((CycleTarget(6), CycleTarget(6)), 8, 1939, 588),
        ((CycleTarget(4), CycleTarget(4), CycleTarget(4)), 10, 5946, 3937),
        ((CycleTarget(7), CycleTarget(5)), 12, 675, 255),
        ((CycleTarget(5, exact=False), CycleTarget(5, exact=False)), 7, 497, 155),
    ],
    ids=["C5,C5@9", "C6,C6@8", "C4,C4,C4@10", "C7,C5@12", "C5+,C5+@7"],
)
def test_search_tree_is_pinned(targets, n, nodes, presence_prunes):
    # the kernel's pruning must never change a presence answer, so the
    # search tree keeps exactly these counters
    stats = arrow_exhaustive(ArrowInstance(n, targets)).stats
    assert (stats.nodes, stats.presence_prunes) == (nodes, presence_prunes)


def test_budget_bounds_path_kernel_work(monkeypatch):
    from cycleramsey import cycles, search

    kernel = cycles._simple_paths
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return kernel(*args, **kwargs)

    # recursive calls resolve in cycles, the search's own calls in search
    monkeypatch.setattr(cycles, "_simple_paths", counted)
    monkeypatch.setattr(search, "_simple_paths", counted)
    budget = 1500
    inst = ArrowInstance(11, (CycleTarget(8), CycleTarget(8)))
    verdict = arrow_exhaustive(inst, budget=budget)
    assert verdict.arrows is None and verdict.witness is None
    assert calls[0] > 0
    assert verdict.stats.nodes + calls[0] <= budget + 1


@pytest.mark.parametrize(
    "targets, n, nodes, presence_prunes, symmetry_prunes",
    [
        ((CycleTarget(5), CycleTarget(4)), 7, 428, 143, 72),
        ((CycleTarget(7), CycleTarget(4)), 8, 2100, 665, 386),
        ((CycleTarget(5), CycleTarget(5)), 9, 807, 267, 137),
        ((CycleTarget(6), CycleTarget(6)), 8, 1939, 588, 382),
    ],
    ids=["C5,C4@7", "C7,C4@8", "C5,C5@9", "C6,C6@8"],
)
def test_symmetry_prunes_are_pinned(
    targets, n, nodes, presence_prunes, symmetry_prunes
):
    # the canonical-prefix check decides which branches die as non-canonical,
    # so any change to its answers moves these counters
    stats = arrow_exhaustive(ArrowInstance(n, targets)).stats
    assert (stats.nodes, stats.presence_prunes, stats.symmetry_prunes) == (
        nodes,
        presence_prunes,
        symmetry_prunes,
    )


@pytest.mark.parametrize(
    "inst, pinned",
    [
        (ArrowInstance(8, (CycleTarget(4),) * 3, deleted_budget=1),
         (False, 526, 332, 24)),
        (ArrowInstance(9, (CycleTarget(4),) * 3, HoleSpec((frozenset({0, 1, 2}),))),
         (False, 116, 66, 0)),
        (ArrowInstance(6, (MatchingTarget(4),) * 3), (True, 253, 131, 37)),
        (ArrowInstance(8, (CycleTarget(5), CycleTarget(5), CycleTarget(4)),
                       deleted_budget=2),
         (False, 46, 18, 0)),
    ],
    ids=["C4,C4,C4@8 deleting 1", "C4,C4,C4@9 hole 012", "M4,M4,M4@6",
         "C5,C5,C4@8 deleting 2"],
)
def test_same_target_colors_with_holes_and_deletions_are_pinned(inst, pinned):
    # three same-target colors (the first-use rule) together with deletions,
    # the present pairs under a hole, and the matching presence check
    v = arrow_exhaustive(inst)
    stats = v.stats
    assert (v.arrows, stats.nodes, stats.presence_prunes, stats.symmetry_prunes) == pinned


@pytest.mark.parametrize(
    "inst, units, arrows",
    [
        (ArrowInstance(8, (CycleTarget(6), CycleTarget(6))), 10232, True),
        (ArrowInstance(8, (CycleTarget(7), CycleTarget(4))), 9026, True),
        (ArrowInstance(9, (CycleTarget(5), CycleTarget(5))), 3132, True),
        (ArrowInstance(6, (MatchingTarget(4),) * 3), 774, True),
        (ArrowInstance(10, (CycleTarget(4),) * 3), 16847, False),
        (ArrowInstance(11, (CycleTarget(6),) * 3), 3045, False),
    ],
    ids=["C6,C6@8", "C7,C4@8", "C5,C5@9", "M4,M4,M4@6", "C4,C4,C4@10",
         "C6,C6,C6@11"],
)
def test_budget_units_of_proofs_are_pinned(inst, units, arrows):
    # every node, kernel call and canonical-check visit costs one unit, so
    # the total pins the order in which each of them visits; a proof or a
    # witness needs the whole budget, one unit less leaves it unknown
    assert arrow_exhaustive(inst, budget=units).arrows is arrows
    assert arrow_exhaustive(inst, budget=units - 1).arrows is None


@pytest.mark.parametrize(
    "targets, nodes",
    [
        ((CycleTarget(4), CycleTarget(4), CycleTarget(3)), 133296),
        ((CycleTarget(6),) * 3, 439),
    ],
    ids=["C4,C4,C3@11", "C6,C6,C6@11"],
)
def test_three_color_witnesses_at_eleven_are_pinned(targets, nodes):
    # both triples have R >= 12: the search finds a coloring of K11 that
    # avoids each, in this many nodes; the kernel's five-edge closed form
    # answers each C6 presence check in one unit
    inst = ArrowInstance(11, targets)
    v = arrow_exhaustive(inst)
    assert (v.arrows, v.stats.nodes) == (False, nodes)
    assert coloring_avoids_all(v.witness, inst.targets)


def _relabelings(v_top):
    """One itemgetter per permutation of 0..v_top, mapping a (max, min)-ordered
    clique vector to its relabeled vector."""
    import itertools
    import operator

    def idx(a, b):
        a, b = min(a, b), max(a, b)
        return b * (b - 1) // 2 + a

    pairs = [(a, b) for b in range(v_top + 1) for a in range(b)]
    return [
        operator.itemgetter(*[idx(p[a], p[b]) for a, b in pairs])
        for p in itertools.permutations(range(v_top + 1))
    ]


def _canonical(vec, v_top, bud, prev=None):
    """``_prefix_is_canonical`` on a clique vector, with the class masks the
    search keeps at a block end and a carry both built from its first
    C(v_top + 1, 2) entries."""
    size = v_top * (v_top + 1) // 2
    carry = _Carry(prev or [0] * 4, vec[:size])
    return _prefix_is_canonical(vec, _prefix_masks(vec, v_top + 1), v_top, bud, carry)


# one target per kind of color: colors of one kind share their target
KIND_TARGETS = {"a": CycleTarget(4), "b": CycleTarget(5), "c": MatchingTarget(4)}


def _group(kinds):
    """The search's color groups for colors 1..k of these kinds, as the
    predecessor links that the canonical check takes."""
    return _color_predecessors(tuple(KIND_TARGETS[x] for x in kinds))


def _color_perms(kinds):
    """The permutations of the colors 0..k, as tuples indexed by color, that
    fix 0 and map each color to one of its kind (``kinds[c - 1]``)."""
    import itertools

    return [
        (0, *p) for p in itertools.permutations(range(1, len(kinds) + 1))
        if all(kinds[d - 1] == kinds[c - 1] for c, d in enumerate(p, 1))
    ]


def _prefix_masks(vec, m, classes=4):
    """adjs[c][x]: x's neighbours among 0..m-1 by color c in the clique
    vector's first C(m, 2) entries."""
    adjs = [[0] * m for _ in range(classes)]
    for j in range(m):
        for a, c in enumerate(vec[j * (j - 1) // 2 : j * (j + 1) // 2]):
            adjs[c][a] |= 1 << j
            adjs[c][j] |= 1 << a
    return adjs


# the arguments of one canonical check, by name
_Check = namedtuple("_Check", "assignment adjs v_top bud carry")


def _watch_checks(monkeypatch, watch):
    """Route every canonical check of the search through ``watch(check,
    call)``: ``call`` is a ``_Check`` of its arguments, ``check(*call)``
    runs the real check, and ``watch`` returns the answer."""
    from cycleramsey import search

    check = search._prefix_is_canonical
    monkeypatch.setattr(search, "_prefix_is_canonical",
                        lambda *args: watch(check, _Check(*args)))


def _afresh(call, inst):
    """``call`` with a fresh budget and a carry built from its prefix
    alone, for the color groups of ``inst``."""
    size = call.v_top * (call.v_top + 1) // 2
    carry = _Carry(_color_predecessors(inst.targets), call.assignment[:size])
    return call._replace(bud=_Budget(10**9), carry=carry)


@pytest.mark.parametrize(
    "inst",
    [
        ArrowInstance(8, (CycleTarget(4),) * 3, deleted_budget=1),
        ArrowInstance(9, (CycleTarget(5), CycleTarget(5))),
    ],
    ids=["C4,C4,C4@8 deleting 1", "C5,C5@9"],
)
def test_class_masks_hold_the_prefix_clique_at_each_check(monkeypatch, inst):
    # the canonical check reads the search's class masks in place of the
    # assignment: at every block end they must hold the prefix pairs and
    # nothing else
    calls = []

    def watch(check, call):
        m = call.v_top + 1
        rebuilt = _prefix_masks(call.assignment, m, len(call.adjs))
        for c, rows in enumerate(call.adjs):
            assert rows[:m] == rebuilt[c], (c, call.v_top)
            assert not any(row >> m for row in rows), (c, call.v_top)
        calls.append(call.v_top)
        return check(*call)

    _watch_checks(monkeypatch, watch)
    verdict = arrow_exhaustive(inst)
    assert verdict.arrows is not None
    # 30 and 103 checks, on prefixes of up to 8 vertices
    assert len(calls) >= 30 and max(calls) == 7


def _twin_classes(adjs, m):
    """classes[y]: the mask of the vertices with y's color to every third
    vertex of the clique on 0..m-1, straight from the twin lemma."""
    return [
        sum(1 << w for w in range(m)
            if not any((a[y] ^ a[w]) & ~(1 << y | 1 << w) & ((1 << m) - 1)
                       for a in adjs))
        for y in range(m)
    ]


@pytest.mark.parametrize(
    "inst, checks",
    [
        (ArrowInstance(8, (CycleTarget(4),) * 3, deleted_budget=1), 30),
        (ArrowInstance(9, (CycleTarget(5), CycleTarget(5))), 103),
        (ArrowInstance(8, (CycleTarget(5), CycleTarget(5), CycleTarget(4)),
                       deleted_budget=2), 6),
    ],
    ids=["C4,C4,C4@8 deleting 1", "C5,C5@9", "C5,C5,C4@8 deleting 2"],
)
def test_twin_classes_handed_down_equal_rebuilt_ones(monkeypatch, inst, checks):
    # at every block end the classes that earlier checks handed down, with
    # the entry this check adds, equal the ones folded from vertex 1 and the
    # twin lemma's classes on each prefix; answer and charge agree too
    calls = []

    def watch(check, call):
        fresh = _afresh(call, inst)
        answer = check(*fresh)
        spent = call.bud.spent
        assert check(*call) == answer
        assert call.bud.spent - spent == fresh.bud.spent
        v_top, classes = call.v_top, call.carry.classes
        assert classes == fresh.carry.classes, v_top
        for z in range(v_top + 1):
            assert classes[z] == _twin_classes(call.adjs, z + 1), (v_top, z)
        calls.append(v_top)
        return answer

    _watch_checks(monkeypatch, watch)
    assert arrow_exhaustive(inst).arrows is not None
    # prefixes of up to 8 vertices
    assert len(calls) == checks and max(calls) == 7


@pytest.mark.parametrize(
    "inst",
    [
        ArrowInstance(9, (CycleTarget(5), CycleTarget(5))),
        ArrowInstance(8, (CycleTarget(7), CycleTarget(4))),
        ArrowInstance(6, (MatchingTarget(4),) * 3),
        ArrowInstance(8, (CycleTarget(4),) * 3, deleted_budget=1),
    ],
    ids=["C5,C5@9", "C7,C4@8", "M4,M4,M4@6", "C4,C4,C4@8 deleting 1"],
)
def test_carried_state_equals_fresh_state_at_each_check(monkeypatch, inst):
    # the search hands each check the rows, twin classes, used colors and
    # their first entries, renamings and views of the checks before it: at
    # every block end the rows, classes, used mask and first entries are
    # the prefix's, and the check answers and charges exactly as with state
    # built afresh from the assignment
    answers = []

    def watch(check, call):
        fresh = _afresh(call, inst)
        answer = check(*fresh)
        spent = call.bud.spent
        assert check(*call) == answer
        v_top, carry, assignment = call.v_top, call.carry, call.assignment
        assert call.bud.spent - spent == fresh.bud.spent, v_top
        size = v_top * (v_top + 1) // 2
        assert carry.used == sum(1 << c for c in set(assignment[:size])), v_top
        for c in range(len(carry.first)):
            if carry.used >> c & 1:
                assert carry.first[c] == assignment.index(c, 0, size), (v_top, c)
        assert carry.rows == [assignment[j * (j - 1) // 2 : j * (j + 1) // 2]
                              for j in range(v_top + 1)], v_top
        assert carry.classes[: v_top + 1] == [
            _twin_classes(call.adjs, z + 1) for z in range(v_top + 1)], v_top
        answers.append(answer)
        return answer

    _watch_checks(monkeypatch, watch)
    assert arrow_exhaustive(inst).arrows is not None
    assert len(answers) >= 30 and len(set(answers)) == 2


def _twin_rich_vector(rng, v_top, palette):
    """A clique vector on 0..v_top over ``palette``: uniform, or one color
    inside random parts and another across them, with a few entries
    redrawn, so that many vertices are twins."""
    pairs = [(a, b) for b in range(v_top + 1) for a in range(b)]
    if rng.random() < 0.3:
        return [rng.choice(palette) for _ in pairs]
    part = [rng.randrange(rng.randint(1, v_top + 1)) for _ in range(v_top + 1)]
    inside, across = rng.choice(palette), rng.choice(palette)
    noise = rng.choice((0, 0.05, 0.15))
    return [
        rng.choice(palette) if rng.random() < noise
        else inside if part[a] == part[b] else across
        for a, b in pairs
    ]


def test_carried_and_folded_twin_classes_agree_on_random_prefixes():
    # a search hands one carry's rows and class list from check to check,
    # and backtracking leaves entries of deeper, abandoned prefixes in them;
    # the check must answer and charge exactly as if it had folded them
    # from vertex 1
    rng = random.Random(2238)

    def check(vec, z, adjs, bud, held):
        # the check on vec's clique 0..z, on a fresh carry that takes the
        # rows and classes ``held`` from the checks before it
        carry = _Carry([0] * 4, vec[: z * (z + 1) // 2])
        carry.rows, carry.classes = held.rows, held.classes
        return _prefix_is_canonical(vec, adjs, z, bud, carry)

    canonical = 0
    for _ in range(2000):
        v_top = rng.randint(2, 9)
        colors = rng.randint(1, 3)
        palette = list(range(1, colors + 1))
        if colors == 1 or rng.random() < 0.5:
            palette.append(0)  # deletions
        vec = _twin_rich_vector(rng, v_top, palette)
        # an abandoned branch shares vertices 0..keep-1 and went deeper
        keep = rng.randint(1, v_top)
        other_top = rng.randint(max(2, keep), 9)
        other = _twin_rich_vector(rng, other_top, palette)
        other[: keep * (keep - 1) // 2] = vec[: keep * (keep - 1) // 2]
        held = _Carry([0] * 4)
        for z in range(2, other_top + 1):
            check(other, z, _prefix_masks(other, z + 1), _Budget(10**9), held)
        for z in range(max(2, keep), v_top):
            check(vec, z, _prefix_masks(vec, z + 1), _Budget(10**9), held)
        adjs = _prefix_masks(vec, v_top + 1)
        carried, folded = _Budget(10**9), _Budget(10**9)
        answer = check(vec, v_top, adjs, carried, held)
        assert answer == check(vec, v_top, adjs, folded, _Carry([0] * 4)), vec
        assert carried.spent == folded.spent, vec
        assert held.classes[v_top] == _twin_classes(adjs, v_top + 1), vec
        canonical += answer
    assert 200 < canonical < 1800


def test_prefix_canonical_matches_relabelling_oracle():
    import random

    rng = random.Random(5040)
    getters = {v_top: _relabelings(v_top) for v_top in range(2, 7)}

    def kinds_of(colors):
        # colors 1..colors, each of kind a or b: any grouping, contiguous or not
        return "".join(rng.choice("ab") for _ in range(colors))

    def check(vec, v_top, kinds, lexmin):
        # the check reads only the prefix, so trailing entries must not matter
        tail = [rng.randint(0, len(kinds)) for _ in range(rng.randint(0, 3))]
        bud = _Budget(10**6)
        assert _canonical(vec + tail, v_top, bud, _group(kinds)) == (vec == lexmin), (
            v_top,
            kinds,
            vec,
        )

    def check_orbit(vec, v_top, kinds, members):
        # vec, the minimum of its orbit under relabelings and the color
        # permutations, and random members of the orbit
        perms = _color_perms(kinds)

        def image(g, q):
            return [q[c] for c in g(vec)]

        lexmin = list(min(
            min(g(recolored) for g in getters[v_top])
            for recolored in ([q[c] for c in vec] for q in perms)
        ))
        for member in [vec, lexmin] + [
            image(rng.choice(getters[v_top]), rng.choice(perms)) for _ in range(members)
        ]:
            check(member, v_top, kinds, lexmin)
        return vec == lexmin

    canonical = 0
    for trial in range(2000):
        v_top = 2 + trial % 5
        colors = rng.randint(1, 3)
        # one color without deletions is a monochromatic clique, checked below
        deletion = colors == 1 or rng.random() < 0.5
        vec = [
            0 if deletion and rng.random() < 0.2 else rng.randint(1, colors)
            for _ in range(v_top * (v_top + 1) // 2)
        ]
        canonical += check_orbit(vec, v_top, kinds_of(colors), 1)
    assert canonical > 100

    for v_top in range(2, 7):
        # monochromatic cliques: every relabeling ties
        for c in range(4):
            check_orbit([c] * (v_top * (v_top + 1) // 2), v_top, kinds_of(3), 0)
    # K_{3,4} split: one color inside the parts, another across
    for inside, across in ((1, 2), (2, 1), (0, 1)):
        split = [
            inside if (a < 3) == (b < 3) else across
            for b in range(7)
            for a in range(b)
        ]
        for kinds in ("ab", "aa"):
            check_orbit(split, 6, kinds, 40)
    # twin-rich prefixes: one color class a disjoint union of cliques, the
    # next complete multipartite; with a third color, parts are grouped and
    # pairs across groups take that color
    for trial in range(300):
        v_top = 2 + trial % 5
        part = [rng.randrange(rng.randint(1, v_top + 1)) for _ in range(v_top + 1)]
        side = [rng.randrange(2) for _ in range(v_top + 1)]
        inside, across, far = rng.sample(range(4), 3)
        three = rng.random() < 0.5
        vec = [
            inside
            if part[a] == part[b]
            else far
            if three and side[part[a]] != side[part[b]]
            else across
            for b in range(v_top + 1)
            for a in range(b)
        ]
        check_orbit(vec, v_top, kinds_of(3), 3)


def _orbit_count(m, kinds):
    """Colorings of K_m with the colors 1..len(kinds) up to relabeling
    combined with the permutations of same-kind colors, by Burnside: the
    mean, over all pairs of a vertex and a color permutation (p, q), of the
    colorings they fix. A coloring is fixed when each cycle of p on the
    pairs, of length L, has one color x with q^L(x) == x."""
    import itertools

    pairs = [(a, b) for b in range(m) for a in range(b)]
    perms = list(itertools.permutations(range(m)))
    colors = _color_perms(kinds)
    fixed = 0
    for p in perms:
        seen = set()
        lengths = []
        for start in pairs:
            if start in seen:
                continue
            pair, length = start, 0
            while pair not in seen:
                seen.add(pair)
                length += 1
                a, b = p[pair[0]], p[pair[1]]
                pair = (min(a, b), max(a, b))
            lengths.append(length)
        for q in colors:
            count = 1
            for length in lengths:
                stay = 0
                for x in range(1, len(kinds) + 1):
                    y = x
                    for _ in range(length):
                        y = q[y]
                    stay += y == x
                count *= stay
            fixed += count
    return fixed // (len(perms) * len(colors))


@pytest.mark.parametrize(
    "m, colors, orbits",
    [(1, 2, 1), (2, 2, 2), (3, 2, 4), (4, 2, 11), (5, 2, 34), (6, 2, 156), (4, 3, 66),
     # two interchangeable colors: graphs up to complement
     (1, "aa", 1), (2, "aa", 1), (3, "aa", 2), (4, "aa", 6), (5, "aa", 18),
     (6, "aa", 78),
     # three interchangeable colors, and colors 1 and 2 interchangeable with
     # color 3 apart
     (4, "aaa", 15), (4, "aab", 36)],
)
def test_prefix_canonical_picks_one_per_orbit(m, colors, orbits):
    # ``colors``: how many colors, no two interchangeable, or their kinds
    import itertools

    kinds = "abc"[:colors] if isinstance(colors, int) else colors
    assert _orbit_count(m, kinds) == orbits
    group = _group(kinds)
    # the predecessor links join exactly the colors of one kind
    first = list(range(len(group)))
    for c, p in enumerate(group):
        first[c] = first[p] if p else c
    assert all((first[c] == first[d]) == (kinds[c - 1] == kinds[d - 1])
               for c in range(1, len(group)) for d in range(1, len(group)))
    bud = _Budget(10**9)
    accepted = sum(
        _canonical(list(vec), m - 1, bud, group)
        for vec in itertools.product(range(1, len(kinds) + 1), repeat=m * (m - 1) // 2)
    )
    assert accepted == orbits


def test_prefix_canonical_charges_its_visits():
    # every vertex of a monochromatic clique is a twin of every other, so
    # one image per depth is tried
    bud = _Budget(100)
    assert _canonical([1] * 21, 6, bud)
    assert 0 < bud.spent <= 8
    # the check charges one unit per visit: a budget one short raises
    with pytest.raises(BudgetExceededError):
        _canonical([1] * 21, 6, _Budget(bud.spent - 1))


def test_prefix_canonical_stops_mid_check():
    # the 5-cycle/complement coloring of K5 has no twins; its check answers
    # at the third visit, where mapping 0, 1, 2 to 0, 1, 4 gives (0, 2) the
    # lower color 1, and a budget short of that stops it at the first visit
    # past it
    pentagon = [1 if b - a in (1, 4) else 2 for b in range(5) for a in range(b)]
    for budget in range(3):
        bud = _Budget(budget)
        with pytest.raises(BudgetExceededError):
            _canonical(pentagon, 4, bud)
        assert bud.spent == budget + 1
    bud = _Budget(3)
    assert not _canonical(pentagon, 4, bud)
    assert bud.spent == 3


def test_prefix_canonical_on_the_largest_host():
    # all vertices of a one-color K512 are twins: one image per depth, so the
    # check goes 512 levels deep in 513 visits
    n = MAX_VERTICES
    bud = _Budget(10**6)
    assert _canonical([1] * (n * (n - 1) // 2), n - 1, bud)
    assert bud.spent == n + 1


def test_negative_budget_is_rejected():
    inst = ArrowInstance(5, C3C3)
    with pytest.raises(ValueError, match="budget"):
        arrow_exhaustive(inst, budget=-5)
    with pytest.raises(ValueError, match="budget"):
        ramsey_number_exact(C3C3, range(3, 7), budget=-1)
    with pytest.raises(ValueError, match="budget"):
        ramsey_number_exact(C3C3, range(0), budget=-1)
    # a budget of zero is legal and leaves the decision unknown
    verdict = arrow_exhaustive(inst, budget=0)
    assert verdict.arrows is None and verdict.stats.nodes == 1


def test_anneal_schedule_is_validated():
    for steps, restarts in ((-1, 3), (100, 0), (100, -2)):
        with pytest.raises(ValueError, match="restarts >= 1"):
            AnnealSchedule(steps=steps, restarts=restarts)
    # zero steps is legal: each restart only scores its random start
    verdict = arrow_randomized(
        ArrowInstance(6, C3C3), schedule=AnnealSchedule(steps=0, restarts=1)
    )
    assert verdict.arrows is None and verdict.stats.best_energy > 0


# R(C_n, C_m) by Rosta (1973) and Faudree-Schelp (1974)
CYCLE_RAMSEY_TABLE = [
    (3, 3, 6), (4, 3, 7), (5, 3, 9), (6, 3, 11), (4, 4, 6), (5, 4, 7),
    (6, 4, 7), (7, 4, 8), (5, 5, 9), (6, 5, 11), (6, 6, 8), (7, 6, 11),
    (7, 3, 13), (7, 5, 13), (7, 7, 13),
]


@pytest.mark.parametrize("n, m, r", CYCLE_RAMSEY_TABLE)
def test_cycle_ramsey_table(n, m, r):
    from cycleramsey.graphs import coloring_to_dict

    targets = (CycleTarget(n), CycleTarget(m))
    assert arrow_exhaustive(ArrowInstance(r, targets)).arrows is True
    below = r - 1
    verdict = arrow_exhaustive(ArrowInstance(below, targets))
    assert verdict.arrows is False
    data = coloring_to_dict(verdict.witness)
    pairs = sorted((u, v) for u, v, _ in data["edges"])
    assert pairs == [(u, v) for u in range(below) for v in range(u + 1, below)]
    for color, length in enumerate((n, m), 1):
        edges = [(u, v) for u, v, c in data["edges"] if c == color]
        assert not has_cycle_brute(below, edges, length), (color, length)


def test_color_groups_separate_targets_that_differ_in_any_field():
    # equal targets share a group; C5+ differs from C5 only in ``exact``,
    # M4n from M4 only in ``nonbipartite``
    c5, m4 = CycleTarget(5), MatchingTarget(4)
    for same, other in ((c5, CycleTarget(5, exact=False)),
                        (m4, MatchingTarget(4, nonbipartite=True))):
        assert _color_predecessors((same, other, same)) == [0, 0, 0, 1]
    # a cycle and a matching target with the same number are not equal
    assert _color_predecessors((CycleTarget(4), MatchingTarget(4))) == [0, 0, 0]


def _clique_vector(coloring):
    """A hole-free coloring's colors in (max, min) pair order, 0 for a
    deleted pair."""
    return [coloring.color_of(a, b) or 0 for b in range(coloring.n) for a in range(b)]


def test_color_symmetry_keeps_every_verdict_and_witness():
    # seeded instances on 4..7 vertices with two or three colors, most of
    # them sharing a target, with deletions and holes. Every verdict equals
    # the symmetry-free one. A hole-free witness passed the check on its
    # whole clique, so it is lex-min under relabelings combined with the
    # color group; without deletions the search runs in lex order, and the
    # witness is the symmetry-free one, byte for byte
    from cycleramsey.graphs import coloring_to_dict

    pool = [CycleTarget(3), CycleTarget(4), CycleTarget(5), CycleTarget(4, exact=False),
            MatchingTarget(4)]
    rng = random.Random(3003)
    getters = {}
    instances, verdicts, shapes = set(), set(), set()
    for case in range(240):
        k = 2 + case % 2
        targets = [rng.choice(pool)] * k
        if rng.random() < 0.3:
            targets[rng.randrange(k)] = rng.choice(pool)
        n = rng.randint(4, 7 if k == 2 else 6)
        holes = HoleSpec(
            (frozenset(rng.sample(range(n), rng.randint(2, 3))),) if case % 5 == 4 else ()
        )
        # deletions where the symmetry-free search stays small
        inst = ArrowInstance(n, tuple(targets), holes, rng.randint(0, max(0, min(2, 9 - n - k))))
        if inst in instances:
            continue
        instances.add(inst)
        got = arrow_exhaustive(inst)
        free = arrow_exhaustive(inst, symmetry=False)
        assert got.arrows == free.arrows, inst
        verdicts.add((got.arrows, k))
        shapes.add((k, bool(holes.holes), inst.deleted_budget > 0))
        if got.witness is None or holes.holes:
            continue
        vec = _clique_vector(got.witness)
        if n not in getters:
            getters[n] = _relabelings(n - 1)
        lexmin = min(
            min(g(recolored) for g in getters[n])
            for recolored in ([q[c] for c in vec] for q in _color_perms(targets))
        )
        assert vec == list(lexmin), inst
        if not inst.deleted_budget:
            assert json.dumps(coloring_to_dict(got.witness)) == json.dumps(
                coloring_to_dict(free.witness)
            ), inst
    # both verdicts with two and three colors; holes and deletions with each
    assert len(instances) > 140 and len(verdicts) == 4 and len(shapes) == 8


@pytest.mark.parametrize(
    "kinds, deletions", [("aa", False), ("aa", True), ("aaa", False), ("aab", True)]
)
def test_twin_row_test_fires_only_where_the_block_end_check_rejects(kinds, deletions):
    # wherever the search's twin-row test fires at (z, w) on a canonical
    # clique 0..w-1, no completion of row w passes the check at block end w
    rng = random.Random(len(kinds) * 2 + deletions)
    prev = _group(kinds)
    palette = list(range(1, len(kinds) + 1)) + [0] * deletions
    bud, fired = _Budget(10**9), 0
    while fired < 40:
        w = rng.randint(2, 5)
        clique = [rng.choice(palette) for _ in range(w * (w - 1) // 2)]
        if not _canonical(clique, w - 1, bud, prev):
            continue
        z = rng.randrange(1, w)
        head = clique + [rng.choice(palette) for _ in range(z + 1)]
        adjs = _prefix_masks(head + [0] * (w - 1 - z), w + 1)
        for a in range(z + 1, w):  # only the entries of row w up to (z, w)
            adjs[0][a] ^= 1 << w
            adjs[0][w] ^= 1 << a
        classes = [[1]]
        for v in range(1, w):
            row = head[v * (v - 1) // 2 : v * (v + 1) // 2]
            classes.append(_refined_twins(classes[-1], row, adjs, v))
        twins = classes[w - 1][z] & ((1 << z) - 1)
        if not twins or not _twin_row_falls(twins, adjs, w, head[-1]):
            continue
        fired += 1
        for tail in itertools.product(palette, repeat=w - 1 - z):
            vec = head + list(tail)
            assert not _canonical(vec, w, bud, prev), (vec, z)
