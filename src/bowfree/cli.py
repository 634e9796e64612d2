"""Command-line entry points.

Subcommands: generate, recover, condition, check, reduce, experiment.
Exit codes: 0 success, 1 input/validation failure, 2 numerical failure,
64 usage error. Every stochastic command requires --seed. The default
output directory can be set through BOWFREE_OUT_DIR.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .errors import (
    BowfreeError,
    ConvergenceError,
    DefinitenessError,
    NearSingularError,
    PremiseError,
)
from .experiments import ExperimentConfig, run_experiment, summary_csv_lines, write_report
from .generators import (
    RandomGraphConfig,
    gen_generative_instance,
    gen_layered_bowfree_graph,
    gen_random_bowfree_graph,
    gen_sdd_instance,
)
from .graphs import graph_to_dict, load_graph
from .lsem import load_covariance_csv, load_params, save_matrix_csv, save_params
from .recovery import recover_all, recovery_to_dict
from .reduction import reduce_instance, save_reduction
from .robustness import check_assumptions, condition_bound, estimate_condition_number, eta_bound, stability_premise

USAGE_EXIT = 64
NUMERIC_ERRORS = (NearSingularError, DefinitenessError, ConvergenceError, PremiseError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type of a count of at least 1; argparse names it in the
    message for a non-integer, hence no leading underscore."""
    return _int_at_least(text, 1)


def nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _out_dir(path_arg) -> Path:
    base = path_arg or os.environ.get("BOWFREE_OUT_DIR", ".")
    out = Path(base)
    out.mkdir(parents=True, exist_ok=True)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bowfree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", parents=[], help="generate a random instance")
    gen.add_argument("--kind", choices=["bowfree", "layered", "generative", "sdd"], default="generative")
    gen.add_argument("--n", type=nonnegative_int, required=True)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--p", type=float, default=0.5)
    gen.add_argument("--mu", type=float, default=None)
    gen.add_argument("--d", type=int, default=None)
    gen.add_argument("--range", dest="weight_range", type=float, default=1.0)
    gen.add_argument("--extra-bidirected-p", type=float, default=0.1)
    gen.add_argument("--seed", type=nonnegative_int, required=True)
    gen.add_argument("--out-dir", default=None)

    rec = sub.add_parser("recover", help="recover edge weights from a covariance")
    rec.add_argument("--graph", required=True)
    rec.add_argument("--sigma", required=True)
    rec.add_argument("--out", required=True)

    cond = sub.add_parser("condition", help="Monte Carlo condition-number estimate")
    cond.add_argument("--graph", required=True)
    cond.add_argument("--sigma", required=True)
    cond.add_argument("--trials", type=positive_int, default=20)
    cond.add_argument("--gammas", type=float, nargs="+", default=None)
    cond.add_argument("--tight", action="store_true")
    cond.add_argument("--no-strict", action="store_true")
    cond.add_argument("--seed", type=nonnegative_int, required=True)
    cond.add_argument("--out", required=True)
    cond.add_argument("--trials-csv", default=None)

    chk = sub.add_parser("check", help="evaluate the structural assumptions")
    chk.add_argument("--graph", required=True)
    chk.add_argument("--sigma", required=True)
    chk.add_argument("--params", default=None, help="parameter JSON; recovered when omitted")
    chk.add_argument("--out", required=True)

    red = sub.add_parser("reduce", help="reduce to a layered instance")
    red.add_argument("--graph", required=True)
    red.add_argument("--sigma", required=True)
    red.add_argument("--out-dir", required=True)

    exp = sub.add_parser("experiment", help="run an experiment pipeline")
    exp.add_argument("--mode", choices=["gene", "simulated", "survey"], required=True)
    exp.add_argument("--dataset", default=None)
    exp.add_argument("--p", type=float, nargs="+", default=[0.2])
    exp.add_argument("--k", type=int, default=2)
    exp.add_argument("--n", type=nonnegative_int, nargs="+", default=[20])
    exp.add_argument("--range", dest="weight_range", type=float, nargs="+", default=[1.0])
    exp.add_argument("--noise-eps", type=float, default=0.1)
    exp.add_argument("--graphs", type=int, default=10)
    exp.add_argument("--runs-per-graph", type=int, default=10)
    exp.add_argument("--samples", type=int, default=50)
    exp.add_argument("--no-normalize", action="store_true")
    exp.add_argument("--graph-offset", type=nonnegative_int, default=0)
    exp.add_argument("--seed", type=nonnegative_int, required=True)
    exp.add_argument("--out", required=True)
    exp.add_argument("--summary-csv", default=None)
    return parser


def _cmd_generate(args) -> int:
    out = _out_dir(args.out_dir)
    manifest = {
        "kind": args.kind,
        "n": args.n,
        "k": args.k,
        "p": args.p,
        "seed": args.seed,
    }
    if args.kind == "bowfree":
        g = gen_random_bowfree_graph(
            RandomGraphConfig(args.n, args.p, args.extra_bidirected_p, args.seed)
        )
    elif args.kind == "layered":
        g = gen_layered_bowfree_graph(args.n, args.k, args.p, args.seed, args.extra_bidirected_p)
    else:
        if args.kind == "generative":
            inst = gen_generative_instance(args.n, args.k, args.p, args.seed, mu=args.mu, d=args.d)
            manifest.update({"mu": args.mu, "d": args.d})
        else:  # sdd
            inst = gen_sdd_instance(
                args.n, args.k, args.p, args.weight_range, args.seed, extra_bidirected_p=args.extra_bidirected_p
            )
            manifest.update({"range": args.weight_range})
        g = inst.graph
        save_params(inst.params, out / "params.json")
        save_matrix_csv(inst.sigma.sigma, out / "sigma.csv")
    write_report(graph_to_dict(g), out / "graph.json")
    write_report(manifest, out / "manifest.json")
    return 0


def _cmd_recover(args) -> int:
    g = load_graph(args.graph)
    sigma = load_covariance_csv(args.sigma)
    result = recover_all(g, sigma)
    write_report(recovery_to_dict(result), args.out)
    return 0


def _cmd_condition(args) -> int:
    g = load_graph(args.graph)
    sigma = load_covariance_csv(args.sigma)
    n = g.n
    gammas = args.gammas if args.gammas else [0.5 * n**-4, 0.1 * n**-4]
    strict = not args.no_strict
    estimate = estimate_condition_number(
        g, sigma, args.trials, gammas, args.seed, enforce_tight=args.tight, strict=strict
    )
    profile = check_assumptions(g, sigma, estimate.base_lambda)
    premise = stability_premise(profile)
    eta = bound = None
    if premise.holds:
        constants = eta_bound(profile, n, max(g.max_degree(), 1), max(gammas))
        eta = constants.eta
        bound = condition_bound(constants, profile, n, max(g.max_degree(), 1))
    report = estimate.to_dict()
    report.update(
        {
            "schema": 1,
            "seed": args.seed,
            "strict": strict,
            "profile": profile.to_dict(),
            "premise": premise.to_dict(),
            "eta": eta,
            "bound": bound,
        }
    )
    write_report(report, args.out)
    if args.trials_csv:
        lines = ["gamma,trial,ratio,rel_sigma,rel_lambda,failed"]
        for rec in estimate.records:
            lines.append(
                f"{rec.gamma},{rec.trial},"
                f"{'' if rec.ratio is None else rec.ratio},"
                f"{'' if rec.rel_sigma is None else rec.rel_sigma},"
                f"{'' if rec.rel_lambda is None else rec.rel_lambda},"
                f"{int(rec.failed)}"
            )
        Path(args.trials_csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _cmd_check(args) -> int:
    g = load_graph(args.graph)
    sigma = load_covariance_csv(args.sigma)
    if args.params:
        lam = load_params(args.params).lam
    else:
        lam = recover_all(g, sigma).lambda_hat
    profile = check_assumptions(g, sigma, lam)
    payload = profile.to_dict()
    payload["premise"] = stability_premise(profile).to_dict()
    write_report(payload, args.out)
    return 0


def _cmd_reduce(args) -> int:
    g = load_graph(args.graph)
    sigma = load_covariance_csv(args.sigma)
    red = reduce_instance(g, sigma)
    save_reduction(red, args.out_dir)
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig(
        mode=args.mode,
        seed=args.seed,
        dataset_path=args.dataset,
        p_grid=tuple(args.p),
        k=args.k,
        n_grid=tuple(args.n),
        range_grid=tuple(args.weight_range),
        noise_eps=args.noise_eps,
        graphs=args.graphs,
        runs_per_graph=args.runs_per_graph,
        samples=args.samples,
        normalize=not args.no_normalize,
        graph_offset=args.graph_offset,
    )
    start = time.monotonic()
    report = run_experiment(cfg)
    elapsed = time.monotonic() - start
    write_report(report, args.out)
    if args.summary_csv:
        Path(args.summary_csv).write_text(
            "\n".join(summary_csv_lines(report)) + "\n", encoding="utf-8"
        )
    # Wall time goes to the log, not the report, to keep replays byte-identical.
    print(f"experiment {args.mode}: wrote {args.out} in {elapsed:.2f}s", file=sys.stderr)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "recover": _cmd_recover,
    "condition": _cmd_condition,
    "check": _cmd_check,
    "reduce": _cmd_reduce,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NUMERIC_ERRORS as exc:
        print(f"bowfree: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (BowfreeError, OSError) as exc:
        print(f"bowfree: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
