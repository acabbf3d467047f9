import random
from fractions import Fraction

import pytest

from cycleramsey.errors import HypothesisViolation
from cycleramsey.graphs import _toggle_edge
from cycleramsey.harness import _second_color_rows, lemma_harness

from conftest import random_graph

EPS = Fraction(1, 256)  # sqrt is exactly 1/16


def test_l2_small_run():
    report = lemma_harness(
        "l2", {"n1": 20, "n2": 20, "eps": Fraction(1, 200)}, samples=12, seed=2
    )
    assert report.passes == report.samples
    assert not report.failures
    assert not report.hypothesis_warnings


def test_l2_param_validation():
    with pytest.raises(HypothesisViolation):
        lemma_harness("l2", {"n1": 5, "n2": 9, "eps": EPS}, samples=2, seed=1)
    with pytest.raises(HypothesisViolation):
        lemma_harness(
            "l2", {"n1": 9, "n2": 5, "eps": Fraction(1, 50)}, samples=2, seed=1
        )


def test_double_small_run_records_guard_warnings():
    params = {"N": 40, "nu1": Fraction(3, 10), "nu2": Fraction(3, 10),
              "eps": Fraction(1, 50)}
    report = lemma_harness("double", params, samples=10, seed=2)
    assert report.passes == report.samples
    assert any("guard" in w for w in report.hypothesis_warnings)
    with pytest.raises(HypothesisViolation):
        lemma_harness("double", params, samples=2, seed=2, strict=True)


def test_double_structural_validation():
    with pytest.raises(HypothesisViolation):
        lemma_harness(
            "double",
            {"N": 30, "nu1": Fraction(1, 2), "nu2": Fraction(1, 4), "eps": EPS},
            samples=2,
            seed=1,
        )


def test_dwa_small_run():
    for nu in (0, Fraction(1, 2), 1):
        report = lemma_harness(
            "dwa",
            {"alpha": 1, "beta": 1, "nu": nu, "eps": EPS, "n": 16},
            samples=8,
            seed=4,
        )
        assert report.passes == report.samples, nu


def test_trzy_small_run():
    for nu in (0, 1):
        report = lemma_harness(
            "trzy",
            {"alpha": 1, "beta": 1, "nu": nu, "eps": EPS, "n": 16},
            samples=6,
            seed=4,
        )
        assert report.passes == report.samples, nu


def test_hole_param_validation_routes_through_bounds():
    with pytest.raises(ValueError):
        lemma_harness(
            "dwa",
            {"alpha": Fraction(1, 2), "beta": Fraction(1, 2), "nu": Fraction(1, 2),
             "eps": EPS, "n": 10},
            samples=2,
            seed=1,
        )


def test_f1_small_run():
    report = lemma_harness(
        "f1",
        {"alpha1": 1, "alpha2": 1, "eps": EPS, "n": 12},
        samples=8,
        seed=6,
    )
    assert report.passes == report.samples


def test_f1_param_validation():
    with pytest.raises(HypothesisViolation):
        lemma_harness(
            "f1",
            {"alpha1": 1, "alpha2": 2, "eps": EPS, "n": 10},
            samples=2,
            seed=1,
        )


def test_report_shape_and_determinism():
    params = {"alpha": 1, "beta": 1, "nu": 0, "eps": EPS, "n": 12}
    a = lemma_harness("dwa", params, samples=5, seed=9).to_dict()
    b = lemma_harness("dwa", params, samples=5, seed=9).to_dict()
    assert a == b
    assert a["header"]["seed"] == 9
    assert "finite_instantiation" in a["header"]
    assert a["samples"] == 5


def test_unknown_lemma_id():
    with pytest.raises(ValueError):
        lemma_harness("nope", {}, samples=1, seed=1)


def test_lemma_parameters_must_match(capsys):
    # the harness table names each lemma's parameters; a missing or a
    # foreign one is refused before any sample, from the library and the CLI
    from cycleramsey.cli import run

    l2 = {"n1": 10, "n2": 10, "eps": Fraction(1, 200)}
    for params in ({"n1": 10, "n2": 10}, {**l2, "alpha": Fraction(7)}):
        with pytest.raises(ValueError, match="lemma 'l2' takes eps, n1, n2"):
            lemma_harness("l2", params, samples=1, seed=1)
    argv = ["lemma", "--id", "l2", "--n1", "10", "--n2", "10", "--eps", "1/200"]
    assert run(argv + ["--alpha", "7"]) == 1
    captured = capsys.readouterr()
    assert "takes eps, n1, n2; got alpha, eps, n1, n2" in captured.err
    assert captured.out == ""
    assert run(["lemma", "--id", "l2"]) == 1
    assert "got none" in capsys.readouterr().err
    assert run(argv + ["--format", "json"]) == 0


def test_negative_adversary_steps_are_refused(monkeypatch):
    import cycleramsey.harness as harness

    def no_lemma(*args):
        raise AssertionError("the lemma was read")

    monkeypatch.setitem(harness.LEMMAS, "dwa", (no_lemma, harness.LEMMAS["dwa"][1]))
    with pytest.raises(ValueError, match="adversary_steps"):
        lemma_harness(
            "dwa", {"alpha": 1, "beta": 1, "nu": 0, "eps": EPS, "n": 10},
            samples=3, seed=1, adversary_steps=-5,
        )


def test_adversary_steps_are_refused_where_nothing_is_colored():
    l2 = {"n1": 10, "n2": 10, "eps": Fraction(1, 200)}
    for steps in (0, 3):
        with pytest.raises(ValueError, match="colors nothing"):
            lemma_harness("l2", l2, samples=2, seed=1, adversary_steps=steps)
    assert lemma_harness("l2", l2, samples=2, seed=1, adversary_steps=20).passes == 2


def test_strict_is_refused_where_no_guard_exists():
    # only double has asymptotic guards, so strict elsewhere would be ignored
    for lemma, params in TIER1_PARAMS.items():
        if lemma != "double":
            with pytest.raises(ValueError, match="strict is unused"):
                lemma_harness(lemma, params, samples=2, seed=1, strict=True)


def test_a_rejected_adversary_move_is_undone(monkeypatch):
    import cycleramsey.harness as harness
    from cycleramsey.graphs import _uniform_colors, complete_graph
    from cycleramsey.matchings import _mates

    rng = random.Random(3)
    g = complete_graph(9)
    second = _second_color_rows(g._adj, _uniform_colors(rng, g.num_edges, 2))
    classes = [[a ^ b for a, b in zip(g._adj, second)], second]
    before = [row[:] for row in classes]
    kept = [_mates(a) for a in classes]
    # a margin that rises on every call, so that every move is rejected
    margins = iter(range(100))
    monkeypatch.setattr(harness, "_two_color_margin", lambda *args: next(margins))
    repaired_from = []
    real_repair = harness._repair_matching

    def repair(adj, match, matched, u, v):
        repaired_from.append(match[:])
        return real_repair(adj, match, matched, u, v)

    monkeypatch.setattr(harness, "_repair_matching", repair)
    edges = harness._EdgeView(g._adj)
    assert harness._adversarial_two_coloring(rng, edges, classes, (9, 9), False, 20)
    assert next(margins) == 21  # the start and 20 trial moves were scored
    assert classes == before
    # each move was repaired from the mates kept before it, never from a trial
    assert repaired_from == [kept[0], kept[1]] * 20


def test_evaluator_catches_genuine_counterexample():
    # below the statement's n0 the conclusion can genuinely fail: on K7 the
    # split "two dominating vertices" vs "K5 on the rest" keeps every
    # monochromatic component matching below (1+eps)*4 saturation
    from cycleramsey.graphs import complete_graph
    from cycleramsey.harness import _two_color_margin
    from cycleramsey.matchings import _matched, _mates

    g = complete_graph(7)
    # class masks: color 1 on every pair meeting {5, 6}, color 2 on the K5
    dominating = 0b1100000
    one = [dominating if v < 5 else g._adj[v] for v in range(7)]
    two = [g._adj[v] & ~dominating if v < 5 else 0 for v in range(7)]
    thresh = (1 + EPS) * 4
    matched = [_matched(_mates(one)), _matched(_mates(two))]
    assert _two_color_margin([one, two], matched, (thresh, thresh), False) < 0
    # flipping the demand to something the coloring does satisfy
    assert _two_color_margin([one, two], matched, (Fraction(4),) * 2, False) >= 0


def test_failure_records_and_clean_filter():
    from cycleramsey.harness import FailureRecord, HarnessReport

    good = FailureRecord(0, "uniform", "conclusion failed", {},
                         {"ok": True, "violations": []})
    tainted = FailureRecord(1, "adversarial", "conclusion failed", {},
                            {"ok": False, "violations": ["hole too big"]})
    report = HarnessReport(
        lemma="dwa", params={}, samples=2, passes=0,
        failures=[good, tainted], hypothesis_warnings=[], header={},
    )
    assert report.clean_failures() == [good]
    payload = report.to_dict()
    assert payload["failures"][1]["hypothesis_recheck"]["ok"] is False


# Tier-1 sizes of the five lemmas; 7 samples give round(7 * 0.15) = 1
# adversarial sample each.
TIER1_PARAMS = {
    "l2": {"n1": 20, "n2": 20, "eps": Fraction(1, 200)},
    "double": {"N": 40, "nu1": Fraction(3, 10), "nu2": Fraction(3, 10),
               "eps": Fraction(1, 50)},
    "dwa": {"alpha": 1, "beta": 1, "nu": Fraction(1, 2), "eps": EPS, "n": 16},
    "trzy": {"alpha": 1, "beta": 1, "nu": 1, "eps": EPS, "n": 16},
    "f1": {"alpha1": 1, "alpha2": 1, "eps": EPS, "n": 12},
}


@pytest.mark.parametrize("lemma, name, calls", [
    ("dwa", "lemma_dwa_host_size", 1),
    ("trzy", "lemma_trzy_host_size", 1),
    ("f1", "_host_size", 2),  # the host and the third-color union, once each
])
def test_a_run_derives_its_host_size_once(monkeypatch, lemma, name, calls):
    import cycleramsey.harness as harness

    real, seen = getattr(harness, name), []

    def counted(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(harness, name, counted)
    report = lemma_harness(lemma, TIER1_PARAMS[lemma], samples=7, seed=3)
    assert report.samples == 7 and len(seen) == calls


def test_passing_samples_build_no_record(monkeypatch):
    import cycleramsey.harness as harness

    def no_record(*args, **kwargs):
        raise AssertionError("a passing sample built its failure record")

    monkeypatch.setattr(harness, "coloring_to_dict", no_record)
    monkeypatch.setattr(harness, "graph_to_dict", no_record)
    monkeypatch.setattr(harness.EdgeColoring, "_from_masks", no_record)
    for lemma, params in TIER1_PARAMS.items():
        report = lemma_harness(lemma, params, samples=7, seed=2)
        assert report.header["adversarial_samples"] >= 1, lemma
        assert report.passes == report.samples and not report.failures, lemma


@pytest.mark.parametrize("lemma", ["dwa", "f1"])
def test_forced_failure_records_match_the_driver(monkeypatch, lemma):
    import random

    import cycleramsey.harness as harness
    from cycleramsey.graphs import coloring_from_dict, coloring_to_dict

    real = harness._adversarial_two_coloring

    def failing(*args):
        real(*args)  # draws the same random numbers as the real adversary
        return False

    monkeypatch.setattr(harness, "_adversarial_two_coloring", failing)
    params, seed, samples = TIER1_PARAMS[lemma], 5, 7
    report = lemma_harness(lemma, params, samples=samples, seed=seed)
    assert report.passes == 0 and len(report.failures) == samples
    lemma_sampler, _ = harness.LEMMAS[lemma]
    sample = lemma_sampler(params, [])
    n_adv = report.header["adversarial_samples"]
    for i, failure in enumerate(report.failures):
        assert failure.sample == i
        rng = random.Random(seed * 1_000_003 + i)
        steps = harness._ADVERSARY_STEPS if i < n_adv else 0
        ok, record = sample(rng, steps)
        info = record()
        assert ok is False
        assert failure.witness == info["witness"]
        assert failure.hypothesis_recheck == info["recheck"]
        stored = failure.witness["coloring"]
        assert coloring_to_dict(coloring_from_dict(stored)) == stored


def test_mask_rows_match_edge_by_edge_coloring():
    # the uniform 2-coloring as class-2 mask rows, against toggling each edge
    # of the host in edges() order; random hosts give rows of many runs
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 40), rng.uniform(0, 1))
        colors = bytes(rng.randint(1, 2) for _ in range(g.num_edges))
        ref = [0] * g.n
        for (u, v), c in zip(g.edges(), colors):
            if c == 2:
                _toggle_edge(u, v, ref)
        assert _second_color_rows(g._adj, colors) == ref



def _hole_host(rng, n, hole):
    """A complete graph on n vertices less the pairs inside a random hole."""
    from cycleramsey.graphs import HoleSpec, apply_holes_and_deletions, complete_graph

    return apply_holes_and_deletions(
        complete_graph(n), HoleSpec((rng.sample(range(n), hole),))
    )


def _bipartite_host(n1, n2):
    from cycleramsey.graphs import Graph

    return Graph(n1 + n2, [(u, n1 + v) for u in range(n1) for v in range(n2)])


def test_edge_view_reads_the_edge_list_by_index():
    from cycleramsey.graphs import Graph
    from cycleramsey.harness import _EdgeView

    rng = random.Random(31)
    sizes = ((1, 0), (9, 4), (40, 20), (113, 40))
    hosts = [_hole_host(rng, n, hole) for n, hole in sizes]
    hosts += [_bipartite_host(n1, n2) for n1, n2 in ((1, 1), (3, 5), (40, 40))]
    hosts += [Graph(1), Graph(7), random_graph(rng, 30, 0.2)]
    for g in hosts:
        edges, view = g.edges(), _EdgeView(g._adj)
        assert len(view) == len(edges) == g.num_edges
        assert [view[i] for i in range(len(view))] == edges
        for past in (len(edges), len(edges) + 1, -len(edges) - 1):
            with pytest.raises(IndexError):
                view[past]
        assert list(view) == edges and (not view) == (not edges)
        if edges:
            assert view[-1] == edges[-1] and view[-len(edges)] == edges[0]


def test_sampling_the_edge_view_draws_what_the_list_draws():
    # random.sample copies a small population through iteration and draws
    # a large one by index; both read the same random stream
    from cycleramsey.harness import _EdgeView

    rng = random.Random(5)
    for g, k in ((_hole_host(rng, 9, 3), 8), (_hole_host(rng, 12, 0), 66),
                 (_bipartite_host(3, 4), 12), (_bipartite_host(40, 40), 8),
                 (_hole_host(rng, 113, 40), 20), (_hole_host(rng, 60, 18), 1)):
        for seed in range(5):
            want = random.Random(seed).sample(g.edges(), k)
            a, b = random.Random(seed), random.Random(seed)
            assert a.sample(_EdgeView(g._adj), k) == want
            b.sample(g.edges(), k)
            assert a.getstate() == b.getstate()


@pytest.mark.parametrize("lemma", ["dwa", "trzy", "f1"])
def test_uniform_shortcut_agrees_with_the_margin(monkeypatch, lemma):
    # with no move to make, the adversary stops at class 1 when it meets its
    # threshold; the answer must be the full margin's, for the real
    # thresholds and for ones around each class's best saturation
    import cycleramsey.harness as harness
    from cycleramsey.harness import (
        _adversarial_two_coloring,
        _best_matched,
        _matched,
        _mates,
        _two_color_margin,
    )

    seen = []

    def keep(rng, edges, classes, thresholds, nonbip2, steps):
        seen.append(([row[:] for row in classes], thresholds, nonbip2))
        return _adversarial_two_coloring(
            rng, edges, classes, thresholds, nonbip2, steps
        )

    monkeypatch.setattr(harness, "_adversarial_two_coloring", keep)
    lemma_harness(lemma, TIER1_PARAMS[lemma], samples=7, seed=3, adversary_steps=0)
    assert len(seen) == 7
    for classes, thresholds, nonbip2 in seen:
        matched = [_matched(_mates(adj)) for adj in classes[:2]]
        s1 = _best_matched(classes[0], matched[0])[0]
        s2 = _best_matched(classes[1], matched[1], nonbip2)[0]
        for t in [thresholds] + [(a, b) for a in (s1, s1 + 1) for b in (s2, s2 + 1)]:
            want = _two_color_margin(classes, matched, t, nonbip2) >= 0
            for steps, edges in ((0, [(0, 1)]), (5, ())):
                got = _adversarial_two_coloring(
                    random.Random(0), edges, [r[:] for r in classes], t, nonbip2, steps
                )
                assert got is want, (t, steps)
