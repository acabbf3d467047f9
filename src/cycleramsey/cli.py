"""Command-line entry point.

Batch-only and fully seeded: every run embeds its seed, package version and
a config hash in the report so experiments can be replayed byte-for-byte.
Exit codes: 0 decided/success, 2 unknown or budget exceeded, 1 usage or
validation error, 3 internal error (a result failed its own certificate
check).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bounds import (
    HoleParams,
    TargetTriple,
    construction_sizes,
    lemma_dwa_host_size,
    lemma_trzy_host_size,
    rational,
    theorem_coefficient,
    xi,
)
from .constructions import (
    build_eeo_four_part,
    build_eeo_three_part,
    build_odd_triple,
    build_oee_four_part,
    report_from_dict,
    verify_claims,
)
from .cycles import (
    DEFAULT_BUDGET,
    CycleCertificate,
    _check_budget,
    has_cycle_of_length,
    longest_cycle,
    verify_cycle,
)
from .errors import BudgetExceededError, NoQualifyingComponent, PreconditionViolated
from .graphs import (
    dump_coloring,
    load_coloring,
    load_graph,
)
from .harness import _ADVERSARY_STEPS, LEMMA_IDS, LEMMAS, lemma_harness
from .matchings import (
    MatchingCertificate,
    best_component_matching,
    bipartite_split,
    maximum_matching,
    tutte_partition,
)
from .search import (
    DEFAULT_SEED,
    AnnealSchedule,
    ArrowInstance,
    CycleTarget,
    MatchingTarget,
    arrow_exhaustive,
    arrow_randomized,
    instance_from_dict,
    ramsey_number_exact,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNKNOWN = 2
EXIT_INTERNAL = 3

_BOUND_N = 100  # bound --n: the n that --parities/--alphas and --hole-params scale


def _config_hash(args: argparse.Namespace) -> str:
    payload = json.dumps(
        {k: str(v) for k, v in sorted(vars(args).items()) if k != "func"},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _meta(args: argparse.Namespace) -> dict:
    return {
        "version": __version__,
        "seed": args.seed,
        "config_hash": _config_hash(args),
    }


def _emit(args: argparse.Namespace, payload: dict) -> None:
    payload = {"meta": _meta(args), **payload}
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        rows = ["key,value"]
        for key, value in sorted(_flatten(payload).items()):
            rows.append(f"{key},{value}")
        text = "\n".join(rows) + "\n"
    else:
        text = _human(payload)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _flatten(data, prefix="") -> dict:
    out = {}
    if isinstance(data, dict):
        for k, v in data.items():
            out.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(data, (list, tuple)):
        out[prefix[:-1]] = json.dumps(data)
    else:
        out[prefix[:-1]] = data
    return out


def _human(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_human(value, indent + 1))
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(line for line in lines if line) + ("\n" if indent == 0 else "")


def _parse_targets(text: str):
    """Targets like 'C3:1,C4:2' (cycles) or 'M4:1,M6n:2' (matchings).

    C<len>[+]:color  -- '+' demands length at least <len> instead of exactly.
    M<sat>[n]:color  -- 'n' demands a non-bipartite component.
    """
    by_color = {}
    for chunk in text.split(","):
        spec, _, color = chunk.strip().partition(":")
        if not color:
            raise ValueError(f"target {chunk!r} needs a ':color' suffix")
        color = int(color)
        if color in by_color:
            raise ValueError(f"color {color} has more than one target")
        kind, body = spec[:1].upper(), spec[1:]  # an empty spec has kind ''
        if kind == "C":
            exact = not body.endswith("+")
            length = int(body.rstrip("+"))
            by_color[color] = CycleTarget(length, exact)
        elif kind == "M":
            nonbip = body.endswith("n")
            sat = int(body.rstrip("n"))
            by_color[color] = MatchingTarget(sat, nonbip)
        else:
            raise ValueError(f"unknown target kind {kind!r} in {chunk!r}")
    k = len(by_color)
    if sorted(by_color) != list(range(1, k + 1)):
        raise ValueError("targets must cover colors 1..k exactly once each")
    return tuple(by_color[c] for c in range(1, k + 1))


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        n_range = range(int(lo), int(hi) + 1) if sep else None
    except ValueError:
        n_range = None
    if not n_range:
        raise ValueError(
            f"--range {text!r} must have the form lo..hi with integers lo <= hi"
        )
    return n_range


def _rationals(text: str, option: str, count: int) -> tuple[Fraction, ...]:
    """``count`` comma-separated rationals; a zero denominator, a non-rational
    or another count is a ValueError naming ``option``."""
    values = tuple(rational(x, option) for x in text.split(","))
    if len(values) != count:
        raise ValueError(f"{option} takes {count} comma-separated rationals, "
                         f"got {len(values)}")
    return values


def _load(path: str, parse):
    """``parse`` of the file's text. A malformed file is a ValueError naming it;
    only the parse is guarded, so no internal TypeError is hidden."""
    text = Path(path).read_text()
    try:
        return parse(text)
    except (TypeError, ValueError, KeyError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _usage(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_USAGE


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_construct(args) -> int:
    if args.odd_triple is not None:
        report = build_odd_triple(args.odd_triple)
    elif args.eeo_four is not None:
        report = build_eeo_four_part(*args.eeo_four)
    elif args.eeo_three is not None:
        report = build_eeo_three_part(*args.eeo_three)
    else:  # the parser requires exactly one family
        report = build_oee_four_part(*args.oee_four)
    report = verify_claims(report, budget=args.node_budget)
    if args.coloring_out:
        Path(args.coloring_out).write_text(dump_coloring(report.coloring))
    _emit(args, {"construction": report.to_dict()})
    if any(c.verified is None for c in report.claims):
        return EXIT_UNKNOWN  # some claim undecided within the budget
    return EXIT_OK


def _cmd_verify(args) -> int:
    coloring = _load(args.coloring, load_coloring)
    payload = {"valid": True, "n": coloring.n, "k": coloring.k}
    if args.report:
        rebuilt = _load(args.report,
                        lambda text: report_from_dict(json.loads(text), coloring))
        checked = verify_claims(rebuilt, budget=args.node_budget)
        payload["construction"] = checked.to_dict()
        if any(c.verified is None for c in checked.claims):
            _emit(args, payload)
            return EXIT_UNKNOWN
    _emit(args, payload)
    return EXIT_OK


def _cmd_cycles(args) -> int:
    if args.length is not None and args.parity != "any":
        return _usage("cycles: --length fixes the parity; drop --parity")
    g = _load(args.graph, load_graph)
    try:
        if args.length is not None:
            cert = has_cycle_of_length(g, args.length, budget=args.node_budget)
            payload = {
                "query": {"length": args.length},
                "found": cert is not None,
                "cycle": list(cert.vertices) if cert else None,
            }
        else:
            found = longest_cycle(g, args.parity, budget=args.node_budget)
            payload = {
                "query": {"longest": True, "parity": args.parity},
                "found": found is not None,
                "length": found[0] if found else None,
                "cycle": list(found[1].vertices) if found else None,
            }
    except BudgetExceededError as exc:
        _emit(args, {"error": "budget-exceeded", "nodes": exc.nodes})
        return EXIT_UNKNOWN
    cycle = payload["cycle"]
    if cycle and not verify_cycle(g, CycleCertificate(tuple(cycle))):
        raise AssertionError("internal: reported cycle fails its certificate check")
    _emit(args, payload)
    return EXIT_OK


def _cmd_matching(args) -> int:
    if args.require_nonbipartite and not args.best_component:
        return _usage("matching: --require-nonbipartite needs --best-component")
    g = _load(args.graph, load_graph)
    payload = {}
    if args.best_component:
        try:
            comp, match = best_component_matching(g, args.require_nonbipartite)
            payload["component"] = sorted(comp)
        except NoQualifyingComponent:  # a valid answer: no component qualifies
            match, payload["component"] = MatchingCertificate(()), None
    else:
        match = maximum_matching(g)
    payload["matching"] = [list(e) for e in match.edges]
    payload["saturation"] = match.saturation
    _emit(args, payload)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    if args.n_target is not None and args.n_scale != 1:
        return _usage("decompose: --n-scale scales --alpha; drop it with --n-target")
    g = _load(args.graph, load_graph)
    try:
        if args.n_target is not None:
            part = tutte_partition(g, args.n_target)
            payload = {
                "tutte_partition": {
                    "S": sorted(part.S),
                    "T": sorted(part.T),
                    "U": sorted(part.U),
                    "n_target": part.n_target,
                    "verified": part.verify(g),
                }
            }
        else:  # the parser requires exactly one of --n-target and --alpha
            (alpha,) = _rationals(args.alpha, "--alpha", 1)
            split = bipartite_split(g, alpha, args.n_scale)
            payload = {
                "bipartite_split": {
                    "Vprime": sorted(split.Vprime),
                    "Vdoubleprime": sorted(split.Vdoubleprime),
                    "alpha_bound": str(split.alpha_bound),
                    "verified": split.verify(g),
                }
            }
    except PreconditionViolated as exc:
        _emit(args, {"error": "precondition-violated", "detail": str(exc)})
        return EXIT_USAGE
    _emit(args, payload)
    return EXIT_OK


def _cmd_bound(args) -> int:
    if bool(args.parities) != bool(args.alphas):
        return _usage("bound: --parities and --alphas go together")
    if args.n != _BOUND_N and not (args.parities or args.hole_params):
        return _usage("bound: --n scales --parities/--alphas and --hole-params only")
    payload = {}
    if args.parities:
        letters = args.parities.lower()
        if len(letters) != 3 or not set(letters) <= {"e", "o"}:
            raise ValueError("--parities takes three letters from e (even) and "
                             f"o (odd), got {args.parities!r}")
        parities = tuple({"e": "even", "o": "odd"}[ch] for ch in letters)
        triple = TargetTriple(_rationals(args.alphas, "--alphas", 3), parities, args.n)
        coeff = theorem_coefficient(triple)
        _, case, perm = triple.canonical()
        payload["coefficient"] = {
            "exact": str(coeff),
            "decimal": float(coeff),
            "case": case,
            "permutation": list(perm),
        }
        payload["target_lengths"] = list(triple.target_lengths())
        payload["construction_sizes"] = [
            {"construction": name, "N": size}
            for name, size in construction_sizes(triple)
        ]
    if args.xi:
        a, b, nu = _rationals(args.xi, "--xi", 3)
        payload["xi"] = {"exact": str(xi(a, b, nu)), "decimal": float(xi(a, b, nu))}
    if args.hole_params:
        hp = HoleParams(*_rationals(args.hole_params, "--hole-params", 4))
        payload["hole_host_sizes"] = {
            "two_color": lemma_dwa_host_size(hp, args.n),
            "two_color_nonbipartite": lemma_trzy_host_size(hp, args.n),
        }
    if not payload:
        return _usage("bound: pass --parities/--alphas, --xi, or --hole-params")
    _emit(args, payload)
    return EXIT_OK


def _cmd_search(args) -> int:
    if args.instance and (args.targets or args.n is not None or args.range):
        return _usage("search: --instance takes no --targets, --n or --range")
    if args.range and (args.n is not None or args.mode == "randomized"):
        return _usage("search: --range takes no --n and no --mode randomized")
    if args.no_symmetry and args.mode == "randomized":
        return _usage("search: --no-symmetry prunes exhaustive search only")
    default = (AnnealSchedule.steps, AnnealSchedule.restarts)
    if args.mode == "exhaustive" and (args.steps, args.restarts) != default:
        return _usage("search: --steps and --restarts schedule --mode randomized only")
    if args.mode == "randomized" and args.node_budget != DEFAULT_BUDGET:
        return _usage("search: --node-budget bounds exhaustive search; its schedule "
                      "bounds --mode randomized")
    if args.range and args.targets:
        result = ramsey_number_exact(
            _parse_targets(args.targets), _parse_range(args.range),
            budget=args.node_budget, symmetry=not args.no_symmetry,
        )
        _emit(args, {"ramsey": result.to_dict(args.timings)})
        return EXIT_OK if result.value is not None else EXIT_UNKNOWN
    if args.instance:
        inst = _load(args.instance, lambda text: instance_from_dict(json.loads(text)))
    elif args.targets and args.n is not None:
        inst = ArrowInstance(n=args.n, targets=_parse_targets(args.targets))
    else:
        return _usage("search: pass --instance FILE or --targets SPEC --n N")
    if args.mode == "randomized":
        schedule = AnnealSchedule(steps=args.steps, restarts=args.restarts)
        verdict = arrow_randomized(inst, schedule=schedule, seed=args.seed)
    else:
        verdict = arrow_exhaustive(
            inst, budget=args.node_budget, symmetry=not args.no_symmetry
        )
    _emit(args, {"verdict": verdict.to_dict(args.timings)})
    return EXIT_OK if verdict.arrows is not None else EXIT_UNKNOWN


# every lemma parameter and its kind, from the harness table
_LEMMA_PARAMETERS = {k: kind for _, ks in LEMMAS.values() for k, kind in ks.items()}


def _lemma_dest(name: str) -> str:
    return "host_n" if name == "N" else name  # the one flag spelled apart: --host-n


def _cmd_lemma(args) -> int:
    params = {}  # the lemma's own parameters first, in the table's order
    for name in {**LEMMAS[args.id][1], **_LEMMA_PARAMETERS}:
        value = getattr(args, _lemma_dest(name))
        if value is not None:  # the harness refuses a parameter the lemma lacks
            params[name] = value  # and reads the rationals from their text
    report = lemma_harness(
        args.id,
        params,
        samples=args.samples,
        seed=args.seed,
        strict=args.strict,
        adversary_steps=args.adversary_steps,
    )
    _emit(args, {"harness": report.to_dict()})
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``cycleramsey`` parser, built once per process and shared by every
    ``run``: ``parse_args`` makes a new namespace from the defaults on each
    call and never writes to the parser. ``set_defaults(func=...)`` binds the
    ``_cmd_*`` functions when the parser is first built."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for all randomness (fixed default, never wall clock)")
    common.add_argument("--format", choices=("human", "json", "csv"), default="human")
    common.add_argument("--out", help="write the report to this path instead of stdout")
    common.add_argument("--node-budget", type=int, default=DEFAULT_BUDGET,
                        help="work bound for exact searches; exhaustive arrowing "
                        "counts search nodes, path-kernel expansions and "
                        "canonical-check visits")
    common.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in reports (non-reproducible)")
    parser = argparse.ArgumentParser(
        prog="cycleramsey",
        description="Edge-colored graph toolkit: constructions, bounds, "
        "matchings, cycles and finite arrowing search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kw) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("construct", help="build an extremal coloring and verify it")
    family = p.add_mutually_exclusive_group(required=True)
    family.add_argument("--odd-triple", type=int, metavar="M1")
    family.add_argument("--eeo-four", type=int, nargs=2, metavar=("M1", "M2"))
    family.add_argument("--eeo-three", type=int, nargs=3, metavar=("M1", "M2", "M3"))
    family.add_argument("--oee-four", type=int, nargs=2, metavar=("M1", "M2"))
    p.add_argument("--coloring-out", help="also write the coloring file here")
    p.set_defaults(func=_cmd_construct)

    p = add_parser("verify", help="validate a coloring file (optionally re-check a report)")
    p.add_argument("--coloring", required=True)
    p.add_argument("--report", help="construction report whose claims to re-check")
    p.set_defaults(func=_cmd_verify)

    p = add_parser("cycles", help="exact cycle queries on a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--length", type=int, help="look for a cycle of exactly this length")
    p.add_argument("--parity", choices=("any", "odd", "even"), default="any")
    p.set_defaults(func=_cmd_cycles)

    p = add_parser("matching", help="maximum matchings on a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--best-component", action="store_true")
    p.add_argument("--require-nonbipartite", action="store_true")
    p.set_defaults(func=_cmd_matching)

    p = add_parser("decompose", help="barrier partition or bipartite split")
    p.add_argument("--graph", required=True)
    question = p.add_mutually_exclusive_group(required=True)
    question.add_argument("--n-target", type=int)
    question.add_argument("--alpha", help="bipartite split bound (rational)")
    p.add_argument("--n-scale", type=int, default=1)
    p.set_defaults(func=_cmd_decompose)

    p = add_parser("bound", help="exact bound formulas")
    p.add_argument("--parities", help="three letters from {e,o}, e.g. eeo")
    p.add_argument("--alphas", help="comma-separated rationals, e.g. 1,1/2,2")
    p.add_argument("--n", type=int, default=_BOUND_N)
    p.add_argument("--xi", help="alpha,beta,nu")
    p.add_argument("--hole-params", help="alpha,beta,nu,eps")
    p.set_defaults(func=_cmd_bound)

    p = add_parser("search", help="finite arrowing decision")
    p.add_argument("--instance", help="instance file (coloring format plus targets)")
    p.add_argument("--targets", help="e.g. C3:1,C3:2 or M4:1,M6n:2")
    p.add_argument("--n", type=int)
    p.add_argument("--mode", choices=("exhaustive", "randomized"), default="exhaustive")
    p.add_argument("--range", help="N range lo..hi for a Ramsey number scan")
    p.add_argument("--no-symmetry", action="store_true")
    p.add_argument("--steps", type=int, default=AnnealSchedule.steps)
    p.add_argument("--restarts", type=int, default=AnnealSchedule.restarts)
    p.set_defaults(func=_cmd_search)

    p = add_parser("lemma", help="property harness for the matching lemmas")
    p.add_argument("--id", required=True, choices=LEMMA_IDS)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--strict", action="store_true",
                   help="reject parameters violating asymptotic guards")
    p.add_argument("--adversary-steps", type=int, default=_ADVERSARY_STEPS)
    for name, kind in _LEMMA_PARAMETERS.items():
        # rationals stay strings here, so a run's config hash keeps its text
        p.add_argument("--" + _lemma_dest(name).replace("_", "-"),
                       type=int if kind is int else str,
                       help="host size N (two-hole lemma)" if name == "N" else None)
    p.set_defaults(func=_cmd_lemma)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _check_budget(args.node_budget)  # every subcommand takes --node-budget
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:  # OSError: a named file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded after {exc.nodes} nodes", file=sys.stderr)
        return EXIT_UNKNOWN
    except AssertionError as exc:
        detail = str(exc).removeprefix("internal: ")
        print(f"internal error: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
