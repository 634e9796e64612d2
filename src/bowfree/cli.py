"""Command-line entry points.

Subcommands: generate, recover, condition, check, reduce, experiment.
Exit codes: 0 success, 1 input/validation failure, 2 numerical failure,
64 usage error. Every stochastic command requires --seed. The default
output directory can be set through BOWFREE_OUT_DIR.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

from .errors import (
    BowfreeError,
    ConfigError,
    ConvergenceError,
    DefinitenessError,
    NearSingularError,
    PremiseError,
)
from .experiments import ExperimentConfig, report_bytes, run_experiment, summary_csv_lines
from .generators import (
    RandomGraphConfig,
    gen_generative_instance,
    gen_layered_bowfree_graph,
    gen_random_bowfree_graph,
    gen_sdd_instance,
)
from .graphs import graph_to_dict, load_graph
from .lsem import check_pattern, load_covariance_csv, load_params, params_bytes, save_matrix_csv
from .recovery import recover_all, recovery_to_dict
from .reduction import reduce_instance, reduction_manifest
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bowfree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    instance = argparse.ArgumentParser(add_help=False)  # the inputs of recover, condition, check and reduce
    instance.add_argument("--graph", required=True)
    instance.add_argument("--sigma", required=True)

    gen = sub.add_parser("generate", help="generate a random instance")
    gen.add_argument("--kind", choices=["bowfree", "layered", "generative", "sdd"], default="generative")
    gen.add_argument("--n", type=positive_int, required=True)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--p", type=float, default=0.5)
    gen.add_argument("--mu", type=float, default=None)
    gen.add_argument("--d", type=int, default=None)
    gen.add_argument("--range", dest="weight_range", type=float, default=1.0)
    gen.add_argument("--extra-bidirected-p", type=float, default=0.1)
    gen.add_argument("--seed", type=nonnegative_int, required=True)
    gen.add_argument("--out-dir", default=None)

    rec = sub.add_parser("recover", parents=[instance], help="recover edge weights from a covariance")
    rec.add_argument("--out", required=True)

    cond = sub.add_parser("condition", parents=[instance], help="Monte Carlo condition-number estimate")
    cond.add_argument("--trials", type=positive_int, default=20)
    cond.add_argument("--gammas", type=float, nargs="+", default=None)
    cond.add_argument("--tight", action="store_true")
    cond.add_argument("--no-strict", action="store_true")
    cond.add_argument("--seed", type=nonnegative_int, required=True)
    cond.add_argument("--out", required=True)
    cond.add_argument("--trials-csv", default=None)

    chk = sub.add_parser("check", parents=[instance], help="evaluate the structural assumptions")
    chk.add_argument("--params", default=None, help="parameter JSON; recovered when omitted")
    chk.add_argument("--out", required=True)

    red = sub.add_parser("reduce", parents=[instance], help="reduce to a layered instance")
    red.add_argument("--out-dir", required=True)

    # Each dest is the ExperimentConfig field the flag sets, and an omitted flag
    # leaves the namespace without it, so the field's default is the only one.
    exp = sub.add_parser("experiment", help="run an experiment pipeline", argument_default=argparse.SUPPRESS)
    exp.add_argument("--mode", choices=["gene", "simulated", "survey"], required=True)
    exp.add_argument("--dataset", dest="dataset_path", metavar="DATASET")
    exp.add_argument("--p", dest="p_grid", metavar="P", type=float, nargs="+")
    exp.add_argument("--k", type=int)
    exp.add_argument("--n", dest="n_grid", metavar="N", type=nonnegative_int, nargs="+")
    exp.add_argument("--range", dest="range_grid", metavar="WEIGHT_RANGE", type=float, nargs="+")
    exp.add_argument("--noise-eps", type=float)
    exp.add_argument("--graphs", type=int)
    exp.add_argument("--runs-per-graph", type=int)
    exp.add_argument("--samples", type=int)
    exp.add_argument("--no-normalize", dest="normalize", action="store_false")
    exp.add_argument("--graph-offset", type=nonnegative_int)
    exp.add_argument("--seed", type=nonnegative_int, required=True)
    exp.add_argument("--out", required=True)
    exp.add_argument("--summary-csv", default=None)
    return parser


def _instance(args):
    """The graph and covariance named by --graph and --sigma."""
    return load_graph(args.graph), load_covariance_csv(args.sigma)


def _cmd_generate(args) -> list:
    out = Path(args.out_dir or os.environ.get("BOWFREE_OUT_DIR", "."))
    manifest = {"kind": args.kind, "n": args.n, "k": args.k, "p": args.p, "seed": args.seed}
    model = []
    if args.kind == "bowfree":
        g = gen_random_bowfree_graph(RandomGraphConfig(args.n, args.p, args.extra_bidirected_p, args.seed))
    elif args.kind == "layered":
        g = gen_layered_bowfree_graph(args.n, args.k, args.p, args.seed, args.extra_bidirected_p)
    else:
        if args.kind == "generative":
            inst = gen_generative_instance(args.n, args.k, args.p, args.seed, mu=args.mu, d=args.d)
            manifest.update({"mu": args.mu, "d": args.d})
        else:  # sdd
            inst = gen_sdd_instance(args.n, args.k, args.p, args.weight_range, args.seed,
                                    extra_bidirected_p=args.extra_bidirected_p)
            manifest.update({"range": args.weight_range})
        g = inst.graph
        model = [(out / "params.json", params_bytes(inst.params)),
                 (out / "sigma.csv", lambda fh: save_matrix_csv(inst.sigma, fh))]
    return [(out / "graph.json", report_bytes(graph_to_dict(g))), (out / "manifest.json", report_bytes(manifest)),
            *model]


def _cmd_recover(args) -> list:
    return [(Path(args.out), report_bytes(recovery_to_dict(recover_all(*_instance(args)))))]


def _cmd_condition(args) -> list:
    g, sigma = _instance(args)
    n = g.n
    gammas = args.gammas if args.gammas else [0.5 * n**-4, 0.1 * n**-4]
    strict = not args.no_strict
    estimate = estimate_condition_number(g, sigma, args.trials, gammas, args.seed,
                                         enforce_tight=args.tight, strict=strict)
    profile = check_assumptions(g, sigma, estimate.base_weights)
    premise = stability_premise(profile)
    eta = bound = None
    if premise.holds:
        k = max(profile.k, 1)
        constants = eta_bound(profile, n, k, max(gammas))
        eta = constants.eta
        bound = condition_bound(constants, profile, n, k)
    report = estimate.to_dict() | {"schema": 1, "seed": args.seed, "strict": strict, "profile": profile.to_dict(),
                                   "premise": premise.to_dict(), "eta": eta, "bound": bound}
    outputs = [(Path(args.out), report_bytes(report))]
    if args.trials_csv:
        lines = ["gamma,trial,ratio,rel_sigma,rel_lambda,failed,vertex"]  # vertex: 1-based, of a failed draw
        for rec in estimate.records:
            vertex = None if rec.vertex is None else rec.vertex + 1
            cells = (rec.gamma, rec.trial, rec.ratio, rec.rel_sigma, rec.rel_lambda, int(rec.failed), vertex)
            lines.append(",".join("" if c is None else str(c) for c in cells))
        outputs.append((Path(args.trials_csv), ("\n".join(lines) + "\n").encode()))
    return outputs


def _cmd_check(args) -> list:
    g, sigma = _instance(args)
    if args.params:
        params = load_params(args.params)
        check_pattern(g, params)
        weights = params.lam[g.source, g.target]
    else:
        weights = recover_all(g, sigma).weights
    profile = check_assumptions(g, sigma, weights)
    return [(Path(args.out), report_bytes(profile.to_dict() | {"premise": stability_premise(profile).to_dict()}))]


def _cmd_reduce(args) -> list:
    red = reduce_instance(*_instance(args))
    out = Path(args.out_dir)
    return [
        (out / "g_prime.json", report_bytes(graph_to_dict(red.g_prime))),
        # Streamed row by row: the dense n' x n' matrix is about 809 MB of text at n' = 5,635.
        (out / "sigma_prime.csv", lambda fh: save_matrix_csv(red.sigma_prime.sigma, fh)),
        (out / "manifest.json", report_bytes(reduction_manifest(red))),
    ]


def _cmd_experiment(args) -> list:
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig) if f.name in args}
    cfg = ExperimentConfig(**{name: tuple(v) if isinstance(v, list) else v for name, v in given.items()})
    report = run_experiment(cfg)
    outputs = [(Path(args.out), report_bytes(report))]
    if args.summary_csv:
        outputs.append((Path(args.summary_csv), ("\n".join(summary_csv_lines(report)) + "\n").encode()))
    return outputs


def _write(outputs: list):
    """Put a command's (target, data) outputs in place, all or nothing: data
    is bytes or a function that streams them to an open binary file. The
    first target is the main output, whose directory is made; the others'
    directories must exist, and no two targets may be one file. Every file
    goes to a temporary sibling; the siblings replace their targets once all are written."""
    made, seen = outputs[0][0].parent, {}
    for target, _ in outputs:
        if seen.setdefault(target.resolve(), target) is not target:
            raise ConfigError(f"two outputs name one file: '{target}'")
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        if target.parent != made and not target.parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(target))
    made.mkdir(parents=True, exist_ok=True)
    temps = {}
    try:
        for target, data in outputs:
            temps[target] = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            try:
                with open(temps[target], "wb") as fh:
                    if callable(data):
                        data(fh)
                    else:
                        fh.write(data)
            except OSError as exc:
                exc.filename = str(target)  # the target, not its temporary sibling
                raise
        for target, temp in temps.items():
            os.replace(temp, target)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)


_COMMANDS = {
    "generate": _cmd_generate,
    "recover": _cmd_recover,
    "condition": _cmd_condition,
    "check": _cmd_check,
    "reduce": _cmd_reduce,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        _write(_COMMANDS[args.command](args))
    except NUMERIC_ERRORS as exc:
        print(f"bowfree: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (BowfreeError, OSError) as exc:
        print(f"bowfree: {exc}", file=sys.stderr)
        return 1
    if args.command == "experiment":  # wall time goes to the log, not the report, to keep replays byte-identical
        print(f"experiment {args.mode}: wrote {args.out} in {time.monotonic() - start:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
