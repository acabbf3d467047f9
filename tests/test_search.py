import json
import random

import pytest

from conftest import random_graph
from cycleramsey.constructions import build_odd_triple
from cycleramsey.cycles import _Budget, longest_cycle
from cycleramsey.graphs import EdgeColoring, HoleSpec
from cycleramsey.search import (
    AnnealSchedule,
    ArrowInstance,
    CycleTarget,
    MatchingTarget,
    _energy_of_color,
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


def test_exact_cap_guard():
    with pytest.raises(ValueError):
        arrow_exhaustive(ArrowInstance(14, C3C3))
    # explicit override allowed
    arrow_exhaustive(ArrowInstance(5, C3C3), exact_cap=20)


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
        found = longest_cycle(g, "any")
        best = 0 if found is None else found[0]
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
    assert verdict.arrows is True and verdict.stats.nodes == 1089


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


def test_deletion_budget_counterexamples():
    # K2 always has a monochromatic edge, but one deletion kills the host
    targets = (MatchingTarget(2), MatchingTarget(2))
    assert arrow_exhaustive(ArrowInstance(2, targets)).arrows is True
    verdict = arrow_exhaustive(ArrowInstance(2, targets, deleted_budget=1))
    assert verdict.arrows is False
    assert len(verdict.witness.deleted) == 1


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
        got = arrow_exhaustive(inst, exact_cap=20)
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

    from cycleramsey.cycles import _Budget, _simple_paths

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
        for steps in range(1, n):
            bud = _Budget(10**9)
            exact = lengths.count(steps)
            assert _simple_paths(adj, u, v, steps, avoid, bud, count=True) == exact
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
        # avoid, each counted once per direction
        u = rng.randrange(n)
        avoid = (2 << u) - 1
        for steps in range(3, n + 1):
            cycles = [
                rest
                for rest in itertools.permutations(
                    [w for w in range(n) if not avoid >> w & 1], steps - 1
                )
                if _is_simple_path(adj, [u, *rest]) and adj[rest[-1]] >> u & 1
            ]
            bud = _Budget(10**9)
            count = _simple_paths(adj, u, u, steps, avoid, bud, count=True)
            assert count == len(cycles)
            inner = []
            found = _simple_paths(adj, u, u, steps, avoid, bud, out=inner)
            assert found == (len(cycles) > 0)
            assert inner[::-1] == (list(min(cycles)) if cycles else [])


@pytest.mark.parametrize(
    "targets, n, nodes, presence_prunes",
    [
        ((CycleTarget(5), CycleTarget(5)), 9, 2007, 792),
        ((CycleTarget(6), CycleTarget(6)), 8, 4855, 1604),
        ((CycleTarget(4), CycleTarget(4), CycleTarget(4)), 10, 8616, 5727),
        ((CycleTarget(7), CycleTarget(5)), 12, 1991, 980),
        ((CycleTarget(5, exact=False), CycleTarget(5, exact=False)), 7, 1089, 385),
    ],
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
        ((CycleTarget(5), CycleTarget(4)), 7, 498, 184, 66),
        ((CycleTarget(7), CycleTarget(4)), 8, 2648, 891, 434),
        ((CycleTarget(5), CycleTarget(5)), 9, 2007, 792, 212),
        ((CycleTarget(6), CycleTarget(6)), 8, 4855, 1604, 824),
    ],
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


def test_prefix_canonical_matches_relabelling_oracle():
    import random

    from cycleramsey.search import _prefix_is_canonical

    rng = random.Random(5040)
    getters = {v_top: _relabelings(v_top) for v_top in range(2, 7)}

    def check(vec, v_top, lexmin):
        # the check reads only the prefix, so trailing entries must not matter
        tail = [rng.randint(0, 3) for _ in range(rng.randint(0, 3))]
        assert _prefix_is_canonical(vec + tail, v_top) == (vec == lexmin), (
            v_top,
            vec,
        )

    def check_orbit(vec, v_top, members):
        # vec, the orbit's minimum and random members of the orbit
        lexmin = list(min(g(vec) for g in getters[v_top]))
        for member in [vec, lexmin] + [
            list(rng.choice(getters[v_top])(vec)) for _ in range(members)
        ]:
            check(member, v_top, lexmin)
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
        canonical += check_orbit(vec, v_top, 1)
    assert canonical > 100

    for v_top in range(2, 7):
        # monochromatic cliques: every relabeling ties
        for c in range(4):
            check_orbit([c] * (v_top * (v_top + 1) // 2), v_top, 0)
    # K_{3,4} split: one color inside the parts, another across
    for inside, across in ((1, 2), (2, 1), (0, 1)):
        split = [
            inside if (a < 3) == (b < 3) else across
            for b in range(7)
            for a in range(b)
        ]
        check_orbit(split, 6, 40)


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
