"""Command-line interface.

Subcommands: ``synth`` (generate a ground-truth corpus), ``reconstruct``
(point cloud(s) -> tree file(s)), ``evaluate`` (corpus + run -> CSV
reports), ``graph-dump`` (the arcs a rooted cloud is solved from) and
``compare`` (merge two evaluation outputs). Flags can be preloaded from a
JSON config file via ``--config``; explicit flags win over file values,
which win over ``PipelineConfig``'s and ``SamplerConfig``'s. Exit code is
0 on success, 1 with a one-line diagnostic on stderr when a run fails,
and 2 with argparse's usage text for a command line that argparse rejects
(``--jobs 0``, ``--k abc``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .io import read_json
from .metrics import DEFAULT_STEP, DEFAULT_ZETA, MatchTolerance
from .pipeline import (
    DEFAULT_TOL_SCALES,
    PipelineConfig,
    SWEEP_PARAMS,
    compare_runs,
    evaluate_corpus,
    graph_dump,
    reconstruct_corpus,
    reconstruct_single,
    synth_corpus,
)
from .synth import SamplerConfig


def _floats(text: str):
    return [float(v) for v in text.split(",") if v.strip()]


def _jobs(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a whole number of processes >= 1, got {text!r}")


def _scales(text: str):
    vals = _floats(text)
    if not vals or not all(0.0 < v < math.inf for v in vals):
        raise argparse.ArgumentTypeError(
            f"expected positive finite scales, got {text!r}")
    return vals


def _coords(text: str):
    vals = _floats(text)
    if len(vals) != 3:
        raise argparse.ArgumentTypeError("expected 'x,y,z'")
    return tuple(vals)


def _add_recon_flags(p: argparse.ArgumentParser):
    p.add_argument("--mode", choices=("confluent", "geodesic"))
    p.add_argument("--k", type=int,
                   help="cap on each node's isotropic KNN size; each node's "
                        "neighbourhood grows up to it until the tree is "
                        "certified the same as at this fixed size, in "
                        "either mode (candidate size when --anisotropic)")
    p.add_argument("--anisotropic", action="store_true",
                   help="use tangent-aligned Mahalanobis neighborhoods")
    p.add_argument("--k-final", type=int)
    p.add_argument("--aspect-ratio-sq", type=float)
    p.add_argument("--epsilon", type=float,
                   help="confluence angle threshold in radians")
    p.add_argument("--elastic-lambda", type=float,
                   help="extra cost per radian of total arc turning")
    p.add_argument("--root-index", type=int)
    p.add_argument("--root-at", type=_coords, metavar="X,Y,Z",
                   help="root is the sample nearest these coordinates")
    # each flag is named after the config field it sets, and defaults to it
    p.set_defaults(**dataclasses.asdict(PipelineConfig()))


def _config_from_args(args) -> PipelineConfig:
    return PipelineConfig(**{f.name: getattr(args, f.name)
                             for f in dataclasses.fields(PipelineConfig)})


def _cmd_synth(args) -> int:
    sampler = SamplerConfig(
        spacing=args.spacing, position_noise_std=args.position_noise,
        tangent_noise_std_rad=args.tangent_noise,
        orientation_flip_prob=args.flip_prob, dropout_prob=args.dropout)
    manifest = synth_corpus(
        args.out, n_trees=args.n_trees, n_leaves=args.n_leaves,
        domain_size=args.domain_size, seed=args.seed,
        relocate=not args.no_relocate, sampler=sampler,
        sweep_param=args.sweep_param, sweep_values=args.sweep_values,
        jobs=args.jobs)
    n_clouds = sum(len(item["clouds"]) for item in manifest["items"])
    print(f"wrote {len(manifest['items'])} trees, {n_clouds} clouds "
          f"under {args.out}")
    return 0


def _cmd_reconstruct(args) -> int:
    cfg = _config_from_args(args)
    if (args.corpus is None) == (args.cloud is None):
        raise ValueError("pass exactly one of --corpus or --cloud")
    if args.corpus:
        results = reconstruct_corpus(args.corpus, args.out, cfg,
                                     jobs=args.jobs,
                                     dump_neighbors=args.dump_neighbors)
        excluded = sum(stats["n_excluded"] for _, _, stats in results)
        print(f"reconstructed {len(results)} clouds under {args.out} "
              f"({excluded} samples excluded in total)")
    else:
        stats = reconstruct_single(args.cloud, args.out, cfg,
                                   dump_neighbors=args.dump_neighbors)
        print(f"wrote {args.out}: {stats['n_tree_nodes']} nodes, "
              f"{stats['n_excluded']} excluded, "
              f"total weight {stats['total_weight']:.6g}")
    return 0


def _cmd_evaluate(args) -> int:
    tol = MatchTolerance(zeta=args.zeta, uses_radius=not args.no_radius)
    rows = evaluate_corpus(args.corpus, args.recon, args.out,
                           step=args.step, tol=tol,
                           tol_scales=args.tol_scales, jobs=args.jobs)
    print(f"evaluated {len(rows)} reconstructions; reports under {args.out}")
    return 0


def _cmd_graph_dump(args) -> int:
    cfg = _config_from_args(args)
    info = graph_dump(args.cloud, args.out, cfg)
    print(f"wrote {args.out}: "
          + ", ".join(f"{k}={v}" for k, v in info.items()))
    return 0


def _cmd_compare(args) -> int:
    rows = compare_runs(args.eval_a, args.eval_b, args.out,
                        label_a=args.label_a, label_b=args.label_b)
    print(f"wrote {args.out}: {len(rows)} comparison rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vesseltrees",
        description="Directed vessel-tree reconstruction from oriented "
                    "centerline samples")
    parser.add_argument("--config", default=None,
                        help="JSON file with default flag values "
                             "(explicit flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a ground-truth corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n-trees", type=int, default=15)
    p.add_argument("--n-leaves", type=int, default=8)
    p.add_argument("--domain-size", type=float, default=100.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-relocate", action="store_true",
                   help="disable bifurcation relocation during growth")
    sampler = SamplerConfig()
    p.add_argument("--spacing", type=float, default=sampler.spacing)
    p.add_argument("--position-noise", type=float,
                   default=sampler.position_noise_std)
    p.add_argument("--tangent-noise", type=float,
                   default=sampler.tangent_noise_std_rad,
                   help="tangent rotation std in radians")
    p.add_argument("--flip-prob", type=float,
                   default=sampler.orientation_flip_prob)
    p.add_argument("--dropout", type=float, default=sampler.dropout_prob)
    p.add_argument("--sweep-param", choices=sorted(SWEEP_PARAMS))
    p.add_argument("--sweep-values", type=_floats, metavar="V1,V2,...")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("reconstruct", help="point cloud(s) -> tree file(s)")
    p.add_argument("--corpus", default=None,
                   help="corpus directory (reconstruct every cloud)")
    p.add_argument("--cloud", default=None, help="single point-cloud file")
    p.add_argument("--out", required=True,
                   help="output directory (corpus) or tree file (single)")
    _add_recon_flags(p)
    p.add_argument("--dump-neighbors", action="store_true",
                   help="also write, as a pair CSV, the neighbour system "
                        "each tree was solved from (for connectivity "
                        "evaluation)")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("evaluate", help="corpus + reconstruction run -> CSVs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--recon", required=True,
                   help="reconstruction run directory")
    p.add_argument("--out", required=True)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--zeta", type=float, default=DEFAULT_ZETA)
    p.add_argument("--no-radius", action="store_true",
                   help="use plain zeta instead of max(radius, zeta)")
    p.add_argument("--tol-scales", type=_scales,
                   default=list(DEFAULT_TOL_SCALES), metavar="S1,S2,...",
                   help="ROC scales of zeta only: max(radius, scale * zeta)")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("graph-dump", help="the mode's arcs over the "
                       "neighbour pairs that reconstruct --cloud solves the "
                       "tree from (reconstruct --dump-neighbors writes the "
                       "pairs); needs --root-index or --root-at")
    p.add_argument("--cloud", required=True)
    p.add_argument("--out", required=True)
    _add_recon_flags(p)
    p.set_defaults(func=_cmd_graph_dump)

    p = sub.add_parser("compare", help="merge two evaluation outputs")
    p.add_argument("--eval-a", required=True)
    p.add_argument("--eval-b", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--label-a", default="a")
    p.add_argument("--label-b", default="b")
    p.set_defaults(func=_cmd_compare)
    return parser


def _config_value(action, value):
    """A JSON config value, checked as its flag would be: null keeps the
    flag's default; a store-true flag takes a bool; any other value goes,
    as the text of the flag (a list joined with commas for the
    comma-separated flags), through the flag's ``type`` and ``choices``."""
    if value is None:
        return action.default
    if isinstance(action, argparse._StoreTrueAction):
        if not isinstance(value, bool):
            raise ValueError("expected true or false")
        return value
    comma_list = isinstance(value, list) and action.type in (_floats, _scales,
                                                             _coords)
    text = ",".join(map(str, value)) if comma_list else str(value)
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"choose from {', '.join(action.choices)}")
    return value


def _apply_config_file(parser, argv):
    """Load --config JSON as subcommand defaults; explicit flags win."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    if known.config is None:
        return
    values = read_json(known.config)
    if not isinstance(values, dict):
        raise ValueError(f"{known.config}: config must be a JSON object")
    command = next((tok for tok in argv if not tok.startswith("-")
                    and tok != known.config), None)
    sub_actions = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    subparser = sub_actions[0].choices.get(command) if sub_actions else None
    if subparser is None:
        raise ValueError(f"config given but subcommand {command!r} unknown")
    actions = {a.dest: a for a in subparser._actions}
    defaults = {}
    for key, value in values.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ValueError(f"{known.config}: unknown option {key!r} for "
                             f"'{command}'")
        try:
            defaults[dest] = _config_value(actions[dest], value)
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{known.config}: bad value {json.dumps(value)} "
                             f"for {key!r}: {exc}") from None
    subparser.set_defaults(**defaults)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
