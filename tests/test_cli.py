import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import cycleramsey
from cycleramsey.cli import _config_hash, build_parser, run
from cycleramsey.graphs import dump_graph, load_coloring
from cycleramsey.graphs import Graph, complete_graph


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.json"
    path.write_text(dump_graph(Graph(6, [(i, (i + 1) % 6) for i in range(6)])))
    return str(path)


def test_construct_verify_roundtrip(tmp_path, capsys):
    coloring = tmp_path / "c.json"
    report = tmp_path / "r.json"
    code = run([
        "construct", "--odd-triple", "5", "--coloring-out", str(coloring),
        "--format", "json", "--out", str(report),
    ])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["construction"]["n"] == 16
    assert all(c["verified"] for c in data["construction"]["claims"])
    loaded = load_coloring(coloring.read_text())
    assert loaded.n == 16

    code = run([
        "verify", "--coloring", str(coloring), "--report", str(report),
        "--format", "json",
    ])
    captured = capsys.readouterr()
    assert code == 0
    redone = json.loads(captured.out)
    assert all(c["verified"] for c in redone["construction"]["claims"])


def test_bound_prints_coefficient(capsys):
    assert run(["bound", "--parities", "eeo", "--alphas", "1,1,1"]) == 0
    out = capsys.readouterr().out
    assert "exact: 3" in out


def test_bound_usage_error(capsys):
    assert run(["bound"]) == 1


def test_search_exit_codes(capsys):
    assert run(["search", "--targets", "C3:1,C3:2", "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert "arrows: True" in out
    # unknown (budget exhausted) exits 2
    code = run([
        "search", "--targets", "C3:1,C3:2,C3:3", "--n", "11",
        "--node-budget", "50",
    ])
    assert code == 2


def test_search_decides_hosts_beyond_13_vertices(capsys):
    # the budget is the only limit on an exhaustive search
    assert run(["search", "--targets", "C3:1,C3:2", "--n", "14"]) == 0
    assert "arrows: True" in capsys.readouterr().out


def test_search_depth_is_not_bounded_by_the_recursion_limit(capsys):
    # no C50 fits in K46, so color 1 is accepted at each of its 1035 edges:
    # the search goes deeper than Python's default recursion limit
    assert run(["search", "--targets", "C50:1,C50:2", "--n", "46"]) == 0
    assert "arrows: False" in capsys.readouterr().out


def test_search_rejects_vertex_count_zero(capsys):
    code = run(["search", "--targets", "C3:1,C3:2", "--n", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert "vertex count 0 outside 1..512" in err and "--instance" not in err


def test_search_instance_file(tmp_path, capsys):
    inst = {
        "n": 5,
        "holes": [],
        "deleted_budget": 0,
        "targets": [
            {"kind": "cycle", "length": 3, "exact": True},
            {"kind": "cycle", "length": 3, "exact": True},
        ],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code = run(["search", "--instance", str(path), "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"]["arrows"] is False
    witness = data["verdict"]["witness"]
    assert witness["n"] == 5 and len(witness["edges"]) == 10


def test_search_range(capsys):
    code = run([
        "search", "--targets", "C3:1,C3:2", "--range", "3..7", "--format", "json",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ramsey"]["value"] == 6


def test_search_range_is_validated(capsys):
    for bad in ("9..5", "9", "3..x", "..7", "3...7", "3..5..7"):
        code = run(["search", "--targets", "C3:1,C3:2", "--range", bad])
        assert code == 1, bad
        err = capsys.readouterr().err
        assert "lo..hi" in err and repr(bad) in err
    # a one-value range is legal; alone it cannot pin the value (exit 2)
    code = run([
        "search", "--targets", "C3:1,C3:2", "--range", "6..6", "--format", "json",
    ])
    assert code == 2
    data = json.loads(capsys.readouterr().out)
    assert data["ramsey"]["bracket"] == [None, 6]


def test_search_rejects_an_empty_target_spec(capsys):
    # refused as a usage error, not an escaped IndexError
    for extra in (["--n", "5"], ["--range", "3..7"]):
        assert run(["search", "--targets", ":1,C3:2", *extra]) == 1
        assert "error: unknown target kind '' in ':1'" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["C3++:1", "C+3:1", "C1_0:1", "M4nn:1", "C 3:1",
                                  "C3:+1"])
def test_search_rejects_a_malformed_target_spec(capsys, spec):
    # sizes and colors are plain digits, with at most the kind's one flag
    assert run(["search", "--targets", f"{spec},C3:2", "--n", "5"]) == 1
    assert f"error: target {spec!r} is not" in capsys.readouterr().err


def test_search_rejects_a_repeated_target_color(capsys):
    assert run(["search", "--targets", "C3:1,C3:2,C3:1", "--n", "5"]) == 1
    assert "color 1" in capsys.readouterr().err


def test_search_rejects_a_target_without_a_color(capsys):
    assert run(["search", "--targets", "C3", "--n", "5"]) == 1
    assert "error: target 'C3' needs a ':color' suffix" in capsys.readouterr().err


def test_search_rejects_targets_that_skip_a_color(capsys):
    assert run(["search", "--targets", "C3:1,C3:3", "--n", "5"]) == 1
    err = capsys.readouterr().err
    assert "error: targets must cover colors 1..k exactly once each" in err


def test_search_rejects_negative_budgets_and_schedules(capsys):
    for extra in (
        ["--n", "6", "--node-budget", "-5"],
        ["--range", "3..7", "--node-budget", "-1"],
        ["--n", "6", "--mode", "randomized", "--restarts", "0"],
        ["--n", "6", "--mode", "randomized", "--steps", "-1"],
    ):
        assert run(["search", "--targets", "C3:1,C3:2"] + extra) == 1, extra
        assert capsys.readouterr().err.startswith("error: ")
    # a zero budget is legal: the verdict is unknown
    code = run(["search", "--targets", "C3:1,C3:2", "--n", "6", "--node-budget", "0"])
    assert code == 2


def test_cycle_commands_reject_negative_budgets(tmp_path, c6_file, capsys):
    coloring, report = tmp_path / "c.json", tmp_path / "r.json"
    assert run(["construct", "--odd-triple", "5", "--coloring-out", str(coloring),
                "--format", "json", "--out", str(report)]) == 0
    capsys.readouterr()
    for argv in (
        ["cycles", "--graph", c6_file, "--length", "6"],
        ["cycles", "--graph", c6_file, "--parity", "any"],
        ["construct", "--odd-triple", "5"],
        ["verify", "--coloring", str(coloring), "--report", str(report)],
    ):
        assert run(argv + ["--node-budget", "-5"]) == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: budget must be nonnegative"), argv
        assert captured.out == ""
        # a zero budget is legal
        assert run(argv + ["--node-budget", "0"]) in (0, 2), argv
        capsys.readouterr()


def test_lemma_rejects_negative_adversary_steps(capsys):
    argv = ["lemma", "--id", "dwa", "--alpha", "1", "--beta", "1", "--nu", "1/2",
            "--eps", "1/256", "--n", "10", "--samples", "7"]
    assert run(argv + ["--adversary-steps", "-5"]) == 1
    captured = capsys.readouterr()
    assert "adversary_steps" in captured.err and captured.out == ""


def test_unbudgeted_commands_reject_negative_budgets(tmp_path, capsys):
    # --node-budget is checked once after parsing, whether or not the
    # subcommand does budgeted work
    coloring = tmp_path / "c.json"
    assert run(["construct", "--odd-triple", "3", "--coloring-out", str(coloring)]) == 0
    capsys.readouterr()
    for argv in (
        ["lemma", "--id", "dwa", "--alpha", "1", "--beta", "1", "--nu", "0",
         "--eps", "1/256", "--n", "10", "--samples", "1"],
        ["verify", "--coloring", str(coloring)],
        ["search", "--targets", "C3:1,C3:2", "--n", "6", "--mode", "randomized",
         "--steps", "10", "--restarts", "1"],
    ):
        assert run(argv + ["--node-budget", "-5"]) == 1, argv
        captured = capsys.readouterr()
        assert captured.err == "error: budget must be nonnegative, got -5\n", argv
        assert captured.out == ""


def test_cycles_and_matching_commands(c6_file, capsys):
    assert run(["cycles", "--graph", c6_file, "--length", "6"]) == 0
    assert "found: True" in capsys.readouterr().out
    assert run(["cycles", "--graph", c6_file, "--length", "5"]) == 0
    assert "found: False" in capsys.readouterr().out
    assert run(["matching", "--graph", c6_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["saturation"] == 6


def test_each_construction_family_and_a_best_component(tmp_path, capsys):
    for flags, name in ((["--eeo-four", "6", "4"], "eeo_four_part"),
                        (["--eeo-three", "6", "4", "7"], "eeo_three_part"),
                        (["--oee-four", "6", "7"], "oee_four_part")):
        assert run(["construct", *flags, "--format", "json"]) == 0, flags
        data = json.loads(capsys.readouterr().out)["construction"]
        assert data["name"] == name and all(c["verified"] for c in data["claims"])
    # a triangle beside an edge: the triangle's component saturates 2 of 3
    graph = tmp_path / "g.json"
    graph.write_text(dump_graph(Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])))
    assert run(["matching", "--graph", str(graph), "--best-component",
                "--require-nonbipartite", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["component"], data["saturation"]) == ([0, 1, 2], 2)


def test_verify_reports_a_claim_left_undecided_by_the_budget(tmp_path, capsys):
    # K5 minus (3,4) in color 1 is Hamiltonian; no bound refutes a 5-cycle, so
    # the exact search decides, and a zero budget leaves the claim undecided
    coloring = tmp_path / "c.json"
    edges = [[u, v, 2 if (u, v) == (3, 4) else 1] for v in range(5) for u in range(v)]
    coloring.write_text(json.dumps({"n": 5, "k": 2, "edges": edges}))
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"construction": {
        "name": "k5", "params": {}, "parts": [],
        "claims": [{"color": 1, "kind": "no-cycle-length-geq", "bound": 5}]}}))
    argv = ["verify", "--coloring", str(coloring), "--report", str(report),
            "--format", "json"]
    assert run(argv + ["--node-budget", "0"]) == 2
    claim = json.loads(capsys.readouterr().out)["construction"]["claims"][0]
    assert claim["verified"] is None and claim["method"] == "budget-exceeded"
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["construction"]["claims"][0][
        "verified"] is False


@pytest.mark.parametrize(
    "command, flag, data",
    [
        ("matching", "--graph", {"n": 3, "edges": [[0, 1.5]]}),
        ("matching", "--graph", {"n": 3, "edges": 5}),
        ("matching", "--graph", [1, 2]),
        ("matching", "--graph", {"n": 3, "edges": [["a", 1]]}),
        ("verify", "--coloring",
         {"n": 3, "k": 2, "edges": [[0, 1, "x"], [0, 2, 1], [1, 2, 2]]}),
        ("search", "--instance",
         {"n": 4, "holes": [["a"]], "targets": [{"kind": "cycle", "length": 3}] * 2}),
        # a report is read beside a valid K5 coloring
        ("verify", "--report", {"construction": {
            "name": "k5", "params": {}, "parts": [],
            "claims": [{"color": 1, "kind": "no-cycle-length-geq", "bound": "x"}]}}),
        ("verify", "--report", {"construction": {"name": "k5", "params": {},
                                                  "parts": []}}),
        ("verify", "--report", {"construction": {
            "name": "k5", "params": {}, "parts": [],
            "claims": [{"color": 1, "kind": "no-cycle-length-geq", "bound": None}]}}),
        ("verify", "--report", {"construction": {
            "name": "oee_four_part", "params": {"m1": "x"}, "parts": [], "claims": []}}),
        ("verify", "--report", {"construction": {
            "name": "k5", "params": {}, "parts": [[0, "a"]], "claims": []}}),
        ("matching", "--graph", {"n": "3", "edges": [[0, 1]]}),
        # an instance field is read as written, never coerced
        ("search", "--instance", {"n": 5, "targets": [
            {"kind": "cycle", "length": 3, "exact": "false"}] * 2}),
        ("search", "--instance", {"n": 5, "targets": [
            {"kind": "cycle", "length": 3.7}] * 2}),
        ("search", "--instance", {"n": 5, "deleted_budget": 1.9, "targets": [
            {"kind": "cycle", "length": 3}] * 2}),
        ("search", "--instance", {"n": "5", "targets": [
            {"kind": "cycle", "length": 3}] * 2}),
        ("search", "--instance", {"n": 5, "holes": [[0, 0]], "targets": [
            {"kind": "cycle", "length": 3}] * 2}),
    ],
    ids=["float vertex", "edges not a list", "list not an object", "string vertex",
         "string color", "string hole vertex", "string claim bound",
         "report without claims", "null length bound", "string oee m1",
         "string part vertex", "string graph n", "string exact", "float length",
         "float deleted budget", "string n", "hole vertex twice"],
)
def test_malformed_files_exit_1_naming_the_file(tmp_path, capsys, command, flag, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    argv = [command, flag, str(path)]
    if flag == "--report":
        coloring = tmp_path / "k5.json"
        coloring.write_text(json.dumps({"n": 5, "k": 2, "edges": [
            [u, v, 2 if (u, v) == (3, 4) else 1] for v in range(5) for u in range(v)]}))
        argv += ["--coloring", str(coloring)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {path}: ")
    assert captured.err.count("\n") == 1


def test_bool_colors_and_vertices_exit_1_naming_the_field(tmp_path, capsys):
    # JSON true and false are no ints: neither color 1 nor vertex 0
    colored = [[0, 1, 1], [0, 2, 1], [1, 2, 2]]
    for command, flag, data, field in (
        ("verify", "--coloring", {"n": 3, "k": 2, "edges": [[0, 1, True], *colored[1:]]},
         "'edges'"),
        ("verify", "--coloring", {"n": 3, "k": 2, "edges": [[False, 1, 1], *colored[1:]]},
         "'edges'"),
        ("verify", "--coloring", {"n": 3, "k": 2, "edges": colored[1:],
                                  "deleted": [[0, True]]}, "'deleted'"),
        ("matching", "--graph", {"n": 3, "edges": [[True, 2]]}, "'edges'"),
        ("cycles", "--graph", {"n": 3, "edges": [[0, 1], [1, 2], [2, False]]}, "'edges'"),
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        argv = [command, flag, str(path)] + (["--length", "3"] if command == "cycles" else [])
        assert run(argv) == 1, data
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {path}: "), data
        assert captured.err.count("\n") == 1 and field in captured.err, data


def test_bound_names_the_parity_letters(capsys):
    for parities in ("eex", "eeoo", "eo"):
        assert run(["bound", "--parities", parities, "--alphas", "1,1,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, parities
        assert captured.err.startswith("error: --parities"), parities
        assert "e (even)" in captured.err and "o (odd)" in captured.err, parities
    assert run(["bound", "--parities", "EeO", "--alphas", "1,1,1"]) == 0


def test_cycles_certificate_check_survives_optimize(c6_file):
    # `python -O` strips assert statements; the CLI's check of the cycle it
    # reports must still refuse a non-cycle and never exit 0.
    script = (
        "import sys\n"
        "from cycleramsey import cli\n"
        "from cycleramsey.cycles import CycleCertificate\n"
        "cli.has_cycle_of_length = lambda g, length, budget: CycleCertificate((0, 2, 4))\n"
        "sys.exit(cli.run(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cycleramsey.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, "cycles", "--graph", c6_file,
         "--length", "3", "--format", "json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 3  # EXIT_INTERNAL, not the usage-error code 1
    assert "internal error: reported cycle fails its certificate check" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_large_hosts_are_decided(tmp_path, capsys):
    k23 = tmp_path / "k23.json"
    k23.write_text(dump_graph(complete_graph(23)))
    assert run(["cycles", "--graph", str(k23), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["found"], data["length"], len(data["cycle"])) == (True, 23, 23)
    # at-least targets never reach the table: annealing on a 24-vertex host
    # ends unknown, with the best energy in the report and no refusal
    code = run(["search", "--targets", "C5+:1,C5+:2", "--n", "24", "--mode",
                "randomized", "--steps", "20", "--restarts", "1",
                "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    verdict = json.loads(captured.out)["verdict"]
    assert verdict["arrows"] is None and verdict["stats"]["best_energy"] > 0
    assert "table cap" not in captured.err and "budget exceeded" not in captured.err


def test_decompose_commands(tmp_path, capsys):
    star = tmp_path / "star.json"
    star.write_text(dump_graph(Graph(6, [(0, i) for i in range(1, 6)])))
    assert run([
        "decompose", "--graph", str(star), "--n-target", "3", "--format", "json",
    ]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tutte_partition"]["S"] == [0]
    assert data["tutte_partition"]["verified"] is True

    tri = tmp_path / "tri.json"
    tri.write_text(dump_graph(Graph(3, [(0, 1), (1, 2), (0, 2)])))
    assert run([
        "decompose", "--graph", str(tri), "--alpha", "3", "--format", "json",
    ]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bipartite_split"]["Vdoubleprime"] == [0, 1, 2]
    # a triangle's matching saturates 2 > alpha = 1 in a non-bipartite
    # component, so no split exists: reported, with the usage exit code
    assert run([
        "decompose", "--graph", str(tri), "--alpha", "1", "--format", "json",
    ]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["error"] == "precondition-violated"
    assert "non-bipartite component" in data["detail"]


def test_lemma_command(capsys):
    code = run([
        "lemma", "--id", "dwa", "--alpha", "1", "--beta", "1", "--nu", "0",
        "--eps", "1/256", "--n", "10", "--samples", "4", "--format", "json",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["harness"]["passes"] == 4
    assert data["harness"]["failures"] == []


def test_cli_reports_are_deterministic(capsys):
    def grab():
        code = run([
            "search", "--targets", "C3:1,C3:2", "--n", "5", "--mode",
            "randomized", "--format", "json", "--seed", "99",
        ])
        assert code == 0
        return capsys.readouterr().out

    assert grab() == grab()


def test_usage_errors(capsys):
    assert run(["construct"]) == 1
    assert run(["cycles", "--graph", "/nonexistent.json"]) == 1
    assert run(["search"]) == 1
    assert run(["nonsense"]) == 1


def test_a_directory_named_as_a_file_exits_1(tmp_path, c6_file, capsys):
    # reading or writing a directory is an input error, as a missing file is
    for argv in (["cycles", "--graph", str(tmp_path)],
                 ["cycles", "--graph", c6_file, "--out", str(tmp_path)],
                 ["construct", "--odd-triple", "3", "--coloring-out", str(tmp_path)]):
        assert run(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err, argv


def test_contradictory_options_are_refused(tmp_path, capsys):
    # each of these asks two questions at once, so any one answer would mislead
    c4 = tmp_path / "c4.json"
    c4.write_text(dump_graph(Graph(4, [(i, (i + 1) % 4) for i in range(4)])))
    for argv in (
        ["construct", "--odd-triple", "5", "--eeo-four", "6", "4"],
        ["construct", "--eeo-three", "6", "4", "7", "--oee-four", "6", "7"],
        ["cycles", "--graph", str(c4), "--length", "4", "--parity", "odd"],
        ["cycles", "--graph", str(c4), "--length", "3", "--parity", "even"],
        ["matching", "--graph", str(c4), "--require-nonbipartite"],
    ):
        assert run(argv + ["--format", "json"]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err, argv
    # parity "any" is the default and contradicts no length
    assert run(["cycles", "--graph", str(c4), "--length", "4", "--parity", "any"]) == 0
    assert "found: True" in capsys.readouterr().out


def test_options_that_would_be_ignored_are_refused(tmp_path, capsys):
    # each of these used to exit 0 with the answer to another question
    star = tmp_path / "star.json"
    star.write_text(dump_graph(Graph(6, [(0, i) for i in range(1, 6)])))
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "n": 5, "holes": [], "deleted_budget": 0,
        "targets": [{"kind": "cycle", "length": 3, "exact": True}] * 2,
    }))
    for argv in (
        ["decompose", "--graph", str(star), "--n-target", "9", "--alpha", "1"],
        ["decompose", "--graph", str(star), "--n-target", "9", "--n-scale", "7"],
        ["search", "--targets", "C3:1,C3:2", "--range", "5..6", "--mode", "randomized"],
        ["search", "--targets", "C3:1,C3:2", "--range", "5..6", "--n", "6"],
        ["search", "--instance", str(inst), "--range", "3..9"],
        ["search", "--instance", str(inst), "--targets", "C4:1,C4:2", "--n", "9"],
        ["search", "--instance", str(inst), "--n", "9"],
        ["search", "--targets", "C3:1,C3:2", "--n", "5", "--mode", "randomized",
         "--no-symmetry"],
        ["bound", "--parities", "eeo", "--xi", "1,1,0"],
        ["bound", "--alphas", "1,1,1", "--xi", "1,1,0"],
    ):
        assert run(argv + ["--format", "json"]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err, argv
    # the defaults they are checked against ask nothing more
    for argv in (
        ["decompose", "--graph", str(star), "--n-target", "9", "--n-scale", "1"],
        ["search", "--targets", "C3:1,C3:2", "--range", "5..6", "--mode",
         "exhaustive"],
        ["search", "--instance", str(inst), "--no-symmetry"],
        ["bound", "--parities", "eeo", "--alphas", "1,1,1", "--xi", "1,1,0"],
    ):
        assert run(argv) == 0, argv
    capsys.readouterr()


def test_options_an_answer_never_reads_are_refused(tmp_path, capsys):
    # the annealing schedule in an exhaustive search, a node budget in a
    # randomized one, --n beside --xi alone, and adversary steps for lemmas
    # that color nothing
    l2 = ["lemma", "--id", "l2", "--n1", "10", "--n2", "10", "--eps", "1/200",
          "--samples", "2"]
    double = ["lemma", "--id", "double", "--host-n", "40", "--nu1", "3/10",
              "--nu2", "3/10", "--eps", "1/50", "--samples", "2"]
    search = ["search", "--targets", "C3:1,C3:2"]
    for argv in (
        search + ["--n", "5", "--steps", "7"],
        search + ["--n", "5", "--restarts", "9"],
        search + ["--n", "5", "--mode", "exhaustive", "--steps", "7",
                  "--restarts", "9"],
        search + ["--range", "5..6", "--steps", "7"],
        search + ["--n", "6", "--mode", "randomized", "--steps", "50",
                  "--node-budget", "5"],
        ["bound", "--xi", "1,1,0", "--n", "7"],
        l2 + ["--adversary-steps", "3"],
        double + ["--adversary-steps", "0"],
        l2 + ["--strict"],  # only double has asymptotic guards
        ["lemma", "--id", "f1", "--alpha1", "1", "--alpha2", "1", "--eps", "1/256",
         "--n", "12", "--samples", "2", "--strict"],
    ):
        assert run(argv + ["--format", "json"]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err, argv
    # a rational option with a zero denominator, or the wrong count, is
    # refused in one error line that names it
    star = tmp_path / "star.json"
    star.write_text(json.dumps({"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}))
    dwa = ["lemma", "--id", "dwa", "--alpha", "1", "--beta", "1", "--eps", "1/256",
           "--n", "10", "--samples", "2"]
    for argv, name in (
        (dwa + ["--nu", "1/0"], "nu"),
        (dwa + ["--nu", "half"], "nu"),
        (["lemma", "--id", "double", "--host-n", "40", "--nu1", "3/10", "--nu2",
          "3/10", "--eps", "0"], "eps"),
        (["bound", "--xi", "1,1/0,0"], "--xi"),
        (["bound", "--xi", "1,1"], "--xi"),
        (["bound", "--parities", "eeo", "--alphas", "1,1/0,1"], "--alphas"),
        (["bound", "--hole-params", "1,1,0,1/0"], "--hole-params"),
        (["decompose", "--graph", str(star), "--alpha", "1/0"], "--alpha"),
    ):
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv
        assert captured.err.count("\n") == 1 and name in captured.err, argv
    # at their defaults, and where the answer reads them, they are accepted
    for argv in (
        search + ["--n", "5", "--steps", "6000", "--restarts", "3"],
        search + ["--n", "5", "--mode", "randomized", "--steps", "7"],
        search + ["--n", "5", "--mode", "randomized", "--steps", "7",
                  "--node-budget", str(10**8)],
        ["bound", "--xi", "1,1,0", "--n", "100"],
        ["bound", "--xi", "1,1,0", "--hole-params", "1,1,1/2,1/256", "--n", "7"],
        ["bound", "--parities", "eeo", "--alphas", "1,1,1", "--n", "7"],
        l2 + ["--adversary-steps", "20"],
        ["lemma", "--id", "dwa", "--alpha", "1", "--beta", "1", "--nu", "0",
         "--eps", "1/256", "--n", "10", "--samples", "2", "--adversary-steps", "3"],
    ):
        assert run(argv) == 0, argv
    capsys.readouterr()


def test_matching_without_a_qualifying_component_answers_none(tmp_path, capsys):
    # C4 has no non-bipartite component: a valid input whose answer is "none"
    c4 = tmp_path / "c4.json"
    c4.write_text(dump_graph(Graph(4, [(i, (i + 1) % 4) for i in range(4)])))
    assert run(["matching", "--graph", str(c4), "--best-component",
                "--require-nonbipartite", "--format", "json"]) == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert (data["component"], data["matching"], data["saturation"]) == (None, [], 0)
    assert captured.err == ""


def test_search_matching_and_randomized_modes(capsys):
    # matching targets run through the exhaustive search like cycle targets
    code = run(["search", "--targets", "M4:1,M4:2", "--n", "4", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"]["arrows"] is False
    assert data["verdict"]["header"]["mode"] == "exhaustive"
    assert run(["search", "--targets", "M4:1,M4:2", "--n", "4", "--mode", "tau"]) == 1

    code = run(["search", "--targets", "C3:1,C3:2", "--n", "5", "--mode",
                "randomized", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"]["arrows"] is False

    # randomized search on an arrowing instance stays unknown: exit 2
    code = run(["search", "--targets", "C3:1,C3:2", "--n", "6", "--mode",
                "randomized", "--steps", "400", "--restarts", "1"])
    assert code == 2


def test_randomized_reports_restarts_run(capsys):
    base = ["search", "--targets", "C3:1,C3:2", "--mode", "randomized",
            "--steps", "400", "--restarts", "3", "--format", "json"]
    assert run(base + ["--n", "6"]) == 2
    stats = json.loads(capsys.readouterr().out)["verdict"]["stats"]
    assert stats["restarts"] == 3  # no restart succeeds
    assert run(base + ["--n", "5"]) == 0
    stats = json.loads(capsys.readouterr().out)["verdict"]["stats"]
    assert stats["restarts"] == 1  # the first restart succeeds


def test_out_file_and_csv(tmp_path, capsys):
    out = tmp_path / "bound.csv"
    code = run(["bound", "--xi", "1,1,0", "--format", "csv", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("key,value")
    assert "xi.exact,2" in text
    assert capsys.readouterr().out == ""


def test_csv_writes_a_list_as_one_json_value(tmp_path, capsys):
    tri = tmp_path / "tri.json"
    tri.write_text(dump_graph(Graph(3, [(0, 1), (1, 2), (0, 2)])))
    assert run(["cycles", "--graph", str(tri), "--length", "3", "--format", "csv"]) == 0
    rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines())
    assert rows["found"] == "True"
    assert json.loads(rows["cycle"]) == [0, 1, 2]


def test_verify_rejects_invalid_coloring(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "k": 2, "holes": [], "deleted": [], '
                   '"edges": [[0, 1, 1]]}')
    assert run(["verify", "--coloring", str(bad)]) == 1


def test_timings_flag_controls_volatile_fields(capsys):
    run(["search", "--targets", "C3:1,C3:2", "--n", "5", "--format", "json"])
    plain = json.loads(capsys.readouterr().out)
    assert "elapsed_seconds" not in plain["verdict"]["stats"]
    run(["search", "--targets", "C3:1,C3:2", "--n", "5", "--format", "json",
         "--timings"])
    timed = json.loads(capsys.readouterr().out)
    assert "elapsed_seconds" in timed["verdict"]["stats"]


def test_default_config_hashes_are_pinned():
    # the CLI takes its defaults (budget, annealing schedule, adversary
    # steps) from the library; a run on defaults keeps its hash
    for argv, want in [
        (["search", "--targets", "C5:1,C5:2", "--n", "8"], "256997cb88dd40b0"),
        (["lemma", "--id", "l2"], "cc53a533e1a4fb5e"),
        # rationals stay strings in the namespace; --host-n fills the key N
        (["lemma", "--id", "dwa", "--alpha", "1", "--beta", "1", "--nu", "0.5",
          "--eps", "1/256", "--n", "10"], "a41aa151d079c15c"),
        (["lemma", "--id", "double", "--host-n", "60", "--nu1", "3/10",
          "--nu2", "3/10", "--eps", "1/50"], "5aa35f66d92ea5e9"),
        (["cycles", "--graph", "g.json"], "893a87bb63eaa9cd"),
        (["construct", "--odd-triple", "5"], "10ae3672c79d86d7"),
        (["matching", "--graph", "g.json", "--best-component",
          "--require-nonbipartite"], "26a289b71d467009"),
    ]:
        assert _config_hash(build_parser().parse_args(argv)) == want
        # the parser shared by every run hashes as a freshly built one does
        assert _config_hash(build_parser.__wrapped__().parse_args(argv)) == want


def _help_text(parser, argv, capsys) -> str:
    with pytest.raises(SystemExit):
        parser.parse_args(argv)
    return capsys.readouterr().out


def test_the_parser_is_built_once_and_helps_as_a_fresh_one(capsys):
    assert build_parser() is build_parser()
    commands = build_parser()._subparsers._group_actions[0].choices
    assert len(commands) == 8
    for argv in [["--help"]] + [[name, "--help"] for name in commands]:
        shared = _help_text(build_parser(), argv, capsys)
        assert shared.startswith("usage: cycleramsey"), argv
        assert shared == _help_text(build_parser.__wrapped__(), argv, capsys), argv
        assert run(argv) == 0
        assert capsys.readouterr().out == shared, argv


def test_consecutive_runs_share_no_state(capsys):
    # one parser serves both runs: an option of the first is not kept
    argv = ["lemma", "--id", "double", "--host-n", "60", "--nu1", "3/10",
            "--nu2", "3/10", "--eps", "1/50", "--samples", "2"]
    assert run(argv) == 0
    before = capsys.readouterr().out
    assert run(argv + ["--strict", "--format", "json", "--seed", "5"]) == 1
    assert "N below 4/eps" in capsys.readouterr().err
    assert run(argv) == 0
    after = capsys.readouterr().out
    assert after == before and "asymptotic guard relaxed" in after
    assert build_parser().parse_args(argv).strict is False


# ---------------------------------------------------------------------------
# The exit-code contract on generated command lines and files.
# ---------------------------------------------------------------------------

_K5 = {"n": 5, "k": 2, "edges": [
    [u, v, 2 if (u, v) == (3, 4) else 1] for v in range(5) for u in range(v)]}
# valid files of each kind that a subcommand reads; a generated file is one
# of its kind with a few entries replaced or dropped, or arbitrary JSON
_VALID_FILES = {
    "graph": ({"n": 6, "edges": [[i, (i + 1) % 6] for i in range(6)]},
              {"n": 5, "edges": [[u, v] for v in range(5) for u in range(v)]}),
    "coloring": (_K5, {"n": 4, "k": 3, "deleted": [[2, 3]], "edges": [
        [0, 1, 1], [0, 2, 2], [0, 3, 3], [1, 2, 3], [1, 3, 2]]}),
    "instance": ({"n": 5, "holes": [[0, 1]], "deleted_budget": 1, "targets": [
        {"kind": "cycle", "length": 3, "exact": False},
        {"kind": "matching", "saturation": 4, "nonbipartite": True}]},),
    "report": ({"construction": {
        "name": "oee_four_part", "params": {"m1": 3}, "parts": [[0, 1]],
        "claims": [{"color": 1, "kind": "no-cycle-length-geq", "bound": 5},
                   {"color": 2, "kind": "no-odd-cycle", "bound": None}]}},),
}
_JSON_KEYS = ("n", "k", "edges", "deleted", "holes", "deleted_budget", "targets",
              "kind", "length", "exact", "saturation", "nonbipartite", "construction",
              "name", "params", "m1", "parts", "claims", "color", "bound")
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 7)
    | st.floats(-1, 7, allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "x", "3", "cycle", "matching", "no-cycle-length-geq",
                       "no-odd-cycle", "oee_four_part"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_JSON_KEYS), inner, max_size=5),
    max_leaves=12,
)


@st.composite
def _json_files(draw, kind):
    """A valid file of this kind with up to three entries replaced or
    dropped, or now and then any JSON."""
    import copy

    if draw(st.integers(0, 5)) == 0:
        return draw(_JSON_VALUES)
    doc = copy.deepcopy(draw(st.sampled_from(_VALID_FILES[kind])))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2, 3)))):
        node = doc
        while True:  # walk down to some container, then edit one entry
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            if isinstance(node[key], (dict, list)) and draw(st.booleans()):
                node = node[key]
                continue
            if isinstance(node, dict) and draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(_JSON_VALUES)
            break
    return doc


def _cli_options():
    """flag -> strategy for its value tokens (None: a switch), over every
    subcommand's options, so that a command line may mix in foreign ones."""
    from cycleramsey.cli import _LEMMA_PARAMETERS, _lemma_dest
    from cycleramsey.harness import LEMMA_IDS

    ints = st.sampled_from([str(i) for i in range(-1, 9)] + ["x", "1.5"])
    rational = st.sampled_from(["1", "1/2", "2/3", "1/200", "1/256", "0", "-1",
                                "1/0", "x", ""])
    rationals = st.lists(rational, min_size=1, max_size=5).map(",".join)

    def files(kind):  # mostly a file of the kind the flag reads
        return st.sampled_from([f"{kind}.json"] * 6 + [
            f"{other}.json" for other in _VALID_FILES if other != kind
        ] + ["missing.json", "text.json", "."])

    outs = st.sampled_from(["out.txt", "out.txt", "out.txt", ".", "no/such/dir.txt"])
    target = st.tuples(
        st.sampled_from(["C3", "C4", "C5", "C6", "C3+", "C5+", "M2", "M4", "M4n",
                         "M5", "C2", "C", "X3", ""]),
        st.integers(-1, 4),
    ).map(lambda t: f"{t[0]}:{t[1]}")
    opts = {
        "--seed": ints, "--format": st.sampled_from(["human", "json", "csv", "x"]),
        "--out": outs, "--node-budget": st.sampled_from(["-1", "0", "5", "300", "x"]),
        "--timings": None, "--help": None,
        "--odd-triple": ints, "--eeo-four": st.tuples(ints, ints),
        "--eeo-three": st.tuples(ints, ints, ints), "--oee-four": st.tuples(ints, ints),
        "--coloring-out": outs, "--coloring": files("coloring"), "--report": files("report"),
        "--graph": files("graph"), "--length": ints,
        "--parity": st.sampled_from(["any", "odd", "even", "x"]),
        "--best-component": None, "--require-nonbipartite": None,
        "--n-target": ints, "--alpha": rational, "--n-scale": ints,
        "--parities": st.text("eox", max_size=4), "--alphas": rationals, "--n": ints,
        "--xi": rationals, "--hole-params": rationals,
        "--instance": files("instance"), "--targets": st.lists(target, max_size=4).map(",".join),
        "--mode": st.sampled_from(["exhaustive", "randomized", "x"]),
        "--range": st.tuples(ints, ints).map("..".join), "--no-symmetry": None,
        "--steps": ints, "--restarts": ints,
        "--id": st.sampled_from(LEMMA_IDS + ("x",)), "--samples": ints,
        "--strict": None, "--adversary-steps": ints,
    }
    for name, kind in _LEMMA_PARAMETERS.items():
        opts["--" + _lemma_dest(name).replace("_", "-")] = ints if kind is int else rational
    return opts


_OPTIONS = _cli_options()


def _own_flags():
    """command -> (its required flags, its other flags)."""
    import argparse

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {}
    for command, p in sub.choices.items():
        actions = [a for a in p._actions if a.option_strings and a.dest != "help"]
        flags[command] = tuple([a.option_strings[-1] for a in actions if a.required == r]
                               for r in (True, False))
    return flags


_OWN_FLAGS = _own_flags()


# valid command lines, each cheap on the valid files above
_VALID_LINES = (
    ["construct", "--odd-triple", "3"],
    ["construct", "--eeo-four", "4", "4"],
    ["construct", "--eeo-three", "4", "4", "5"],
    ["construct", "--oee-four", "4", "5", "--coloring-out", "out.txt"],
    ["verify", "--coloring", "coloring.json", "--report", "report.json"],
    ["cycles", "--graph", "graph.json", "--length", "5"],
    ["cycles", "--graph", "graph.json", "--parity", "odd"],
    ["matching", "--graph", "graph.json", "--best-component", "--require-nonbipartite"],
    ["decompose", "--graph", "graph.json", "--n-target", "7"],
    ["decompose", "--graph", "graph.json", "--alpha", "1/2"],
    ["bound", "--parities", "eeo", "--alphas", "1,1,1"],
    ["bound", "--xi", "1,1,0"],
    ["bound", "--hole-params", "1,1,1/2,1/256"],
    ["search", "--targets", "C3:1,C3:2", "--n", "5"],
    ["search", "--targets", "C4:1,C3:2", "--range", "3..7"],
    ["search", "--targets", "C3+:1,M4:2", "--n", "5", "--mode", "randomized",
     "--steps", "30"],
    ["search", "--instance", "instance.json", "--no-symmetry"],
    ["lemma", "--id", "dwa", "--alpha", "1", "--beta", "1", "--nu", "1/2",
     "--eps", "1/256", "--n", "6", "--samples", "2"],
    ["lemma", "--id", "trzy", "--alpha", "1", "--beta", "1", "--nu", "1",
     "--eps", "1/256", "--n", "6", "--samples", "2"],
    ["lemma", "--id", "l2", "--n1", "8", "--n2", "8", "--eps", "1/200", "--samples", "2"],
    ["lemma", "--id", "f1", "--alpha1", "1", "--alpha2", "1", "--eps", "1/256",
     "--n", "6", "--samples", "2"],
    ["lemma", "--id", "double", "--host-n", "8", "--nu1", "3/10", "--nu2", "3/10",
     "--eps", "1/50", "--samples", "2"],
)


@st.composite
def _command_lines(draw):
    """Either a valid command line with up to two flags redrawn, dropped or
    added, or a subcommand (or an unknown one), mostly with its required
    flags, some of its other flags and now and then another one's."""
    given = {}  # flag -> value tokens kept from a valid line
    if draw(st.booleans()):
        line = draw(st.sampled_from(_VALID_LINES))
        command = line[0]
        for token in line[1:]:
            if token.startswith("--"):
                flag = token
                given[flag] = []
            else:
                given[flag].append(token)
        flags = list(given)
        for _ in range(draw(st.integers(0, 2))):
            flag = draw(st.sampled_from(sorted(_OPTIONS)))
            given.pop(flag, None)
            if flag not in flags:
                flags.append(flag)
            elif draw(st.booleans()):
                flags.remove(flag)
    else:
        command = draw(st.sampled_from(sorted(_OWN_FLAGS) + ["x"]))
        required, other = _OWN_FLAGS.get(command, ([], []))
        flags = [f for f in required if draw(st.integers(0, 9))]
        flags += [f for f in other if draw(st.integers(0, 9)) < 3]
        flags += draw(st.lists(st.sampled_from(sorted(_OPTIONS)), max_size=1))
        flags = draw(st.permutations(flags))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if flag in given:
            argv += given[flag]
        elif _OPTIONS[flag] is not None:
            value = draw(_OPTIONS[flag])
            argv += list(value) if isinstance(value, tuple) else [value]
    return argv


@seed(7000)
@settings(max_examples=300, deadline=None, database=None)
@given(argv=_command_lines(),
       files=st.fixed_dictionaries({kind: _json_files(kind) for kind in _VALID_FILES}))
def test_generated_command_lines_keep_the_exit_contract(argv, files):
    # every run answers 0 (done), 1 (usage or malformed input) or 2
    # (unknown); none raises and none reports an internal error (3)
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for kind, doc in files.items():
            Path(tmp, f"{kind}.json").write_text(json.dumps(doc))
        Path(tmp, "text.json").write_text("{not json")
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), argv
