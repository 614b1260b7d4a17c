"""Command-line surface.

Subcommands: preorder, curve, verify, simulate, fit.  Every subcommand is
deterministic given identical inputs, flags and seeds.  Exit codes: 0
success, 1 hypothesis failure (verify), 2 validation/input error, 3
inconsistency (hypotheses verified but dominance failed; release
blocking).  JSON goes to stdout unless --out is given; files are written
atomically (temp + rename) after creating their parent directory; a path
that cannot be written exits 2.  The default seed comes from
FAILSAFEKIT_SEED when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import demos
from .errors import InconsistencyError, UnsupportedGeneratorError, ValidationError
from .generators import COPULA_FAMILIES, GeneratorSpec
from .gridpolicy import GridPolicy
from .mcsim import empirical_survival_x2n, sample_lifetimes
from .models import FIT_FAMILIES, BaselineSpec, SemiParamModel
from .ordering import verify_prop_ls, verify_prop_mphrs, verify_theorem1, verify_theorem2
from .preorders import classify
from .systems import (
    SystemSpec,
    atomic_write,
    default_grid,
    load_system,
    read_json,
    survival_x2n,
    write_curve_csv,
)

ENV_SEED = "FAILSAFEKIT_SEED"

EXIT_OK = 0
EXIT_HYPOTHESIS_FAIL = 1
EXIT_VALIDATION = 2
EXIT_INCONSISTENT = 3


def _default_seed() -> int:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"{ENV_SEED} must be an integer, got {raw!r}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        print(text, end="")
    else:
        atomic_write(out, text)


def _emit_json(obj: dict, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _parse_vector(inline: str | None, path: str | None, name: str) -> list[float]:
    if (inline is None) == (path is None):
        raise ValidationError(f"supply exactly one of --{name} / --{name}-file")
    if path is not None:
        try:
            with open(path) as fh:
                inline = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read {name} vector: {exc}") from exc
    tokens = inline.replace(",", " ").split()
    if not tokens:
        raise ValidationError(f"vector {name} is empty")
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise ValidationError(f"vector {name} has non-numeric entries") from exc


def cmd_preorder(args) -> int:
    a = _parse_vector(args.a, args.a_file, "a")
    b = _parse_vector(args.b, args.b_file, "b")
    report = classify(a, b, tol=args.tol)
    _emit_json(report.to_json(), args.out)
    return EXIT_OK


def _grid_for(sys_specs, args) -> np.ndarray:
    if (args.x_min is None) != (args.x_max is None):
        missing = "--x-max" if args.x_max is None else "--x-min"
        raise ValidationError(f"--x-min and --x-max go together: {missing} is missing")
    if args.x_min is not None:
        if not 0.0 <= args.x_min < args.x_max:
            raise ValidationError("need 0 <= x-min < x-max")
        lo = args.x_min if args.x_min > 0 else args.x_max / args.points
        return np.linspace(lo, args.x_max, args.points)
    return GridPolicy(curve_points=args.points)._bulk_grid(
        [(s.model, s.theta) for s in sys_specs])


def _emit_figures(out_dir: str) -> int:
    for name, (pair_fn, grid_fn) in demos.FIGURE_CONFIGS.items():
        sys_x, sys_y = pair_fn()
        xs = grid_fn()
        vx = survival_x2n(sys_x, xs)
        vy = survival_x2n(sys_y, xs)
        write_curve_csv(
            os.path.join(out_dir, f"{name}.csv"), xs,
            {"survival_x": vx, "survival_y": vy, "gap": vx - vy},
        )
    print(f"wrote {len(demos.FIGURE_CONFIGS)} figure CSVs to {out_dir}")
    return EXIT_OK


def cmd_curve(args) -> int:
    if args.emit_figures:
        return _emit_figures(args.out_dir)
    if args.system is None:
        raise ValidationError("system.json required (or use --emit-figures)")
    sys_x = load_system(args.system)
    if args.paired is not None:
        sys_y = load_system(args.paired)
        xs = _grid_for((sys_x, sys_y), args)
        vx = survival_x2n(sys_x, xs)
        vy = survival_x2n(sys_y, xs)
        cols = {"survival_x": vx, "survival_y": vy, "gap": vx - vy}
    else:
        xs = _grid_for((sys_x,), args)
        cols = {"survival": survival_x2n(sys_x, xs)}
    if args.out is None:
        raise ValidationError("curve output needs --out PATH.csv")
    write_curve_csv(args.out, xs, cols)
    return EXIT_OK


_VERIFIERS = {
    "t1": verify_theorem1,
    "t2": verify_theorem2,
    "p-mphrs": verify_prop_mphrs,
    "p-ls": verify_prop_ls,
}


def cmd_verify(args) -> int:
    verifier = _VERIFIERS[args.theorem]
    sys_x = load_system(args.system_x)
    sys_y = load_system(args.system_y)
    policy = GridPolicy(
        curve_points=args.points,
        dominance_tol=args.tol_dominance,
        crossing_gap=args.tol_crossing,
    )
    try:
        report = verifier(sys_x, sys_y, policy)
    except InconsistencyError as exc:
        _emit_json(exc.report.to_json(), args.out)
        print(f"INCONSISTENT: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    _emit_json(report.to_json(), args.out)
    return EXIT_OK if report.overall else EXIT_HYPOTHESIS_FAIL


def cmd_simulate(args) -> int:
    sys_spec = load_system(args.system)
    lifetimes = sample_lifetimes(sys_spec, args.count, args.seed)
    xs = default_grid(sys_spec, args.points)
    analytic = survival_x2n(sys_spec, xs)
    empirical = empirical_survival_x2n(lifetimes, xs)
    diff = np.abs(analytic - empirical)
    lines = ["x,analytic,empirical,abs_diff"]
    for i in range(xs.size):
        lines.append(
            f"{xs[i]:.17g},{analytic[i]:.17g},{empirical[i]:.17g},{diff[i]:.17g}"
        )
    lines.append(f"max_abs_deviation,,,{diff.max():.17g}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _parse_subsets(raw: str, labels) -> dict[str, tuple[str, ...]]:
    out = {}
    for group in raw.split(";"):
        names = tuple(w.strip() for w in group.split(",") if w.strip())
        if not names:
            raise ValidationError("empty subset in --subsets")
        for w in names:
            if w not in labels:
                raise ValidationError(f"subset component {w!r} not in dataset {sorted(labels)}")
        out["{" + ",".join(names) + "}"] = names
    if len(out) < 2:
        raise ValidationError("--subsets needs at least two groups, separated by ';'")
    sizes = {len(v) for v in out.values()}
    if len(sizes) != 1:
        raise ValidationError("subsets must share size")
    return out


def cmd_fit(args) -> int:
    # fitlab (and the scipy optimize and special it needs) loads here
    # only, so the other subcommands start without it
    from .fitlab import (
        compare_to_reference,
        cvm_gof,
        fixed_shape_weibull_scale,
        load_dataset_csv,
        mle_fit,
        pseudo_observations,
        rank_models,
        recommend_subset,
    )

    dataset = load_dataset_csv(args.data)
    pooled = dataset.pooled()
    fits = {fam: mle_fit(fam, pooled) for fam in args.families}
    ranking = rank_models(fits.values())

    report: dict = {
        "dataset": {"components": list(dataset.labels),
                    "pooled_n": int(pooled.size)},
        "marginal_fits": ranking.to_json(),
    }

    gofs = {}
    matrix = dataset.matrix()
    pseudo = pseudo_observations(matrix)
    for fam in args.copulas:
        gofs[fam] = cvm_gof(fam, pseudo, boot_n=args.boot, seed=args.seed,
                            method=args.copula_method)
    report["copula_gof"] = {fam: g.to_json() for fam, g in gofs.items()}
    report["preferred_copula"] = min(gofs.items(), key=lambda kv: kv[1].statistic)[0]

    if args.subsets:
        groups = _parse_subsets(args.subsets, set(dataset.labels))
        wfit = fits.get("weibull") or mle_fit("weibull", pooled)
        shape = wfit.params["shape"]
        pooled_scale = wfit.params["scale"]
        gen = GeneratorSpec(report["preferred_copula"],
                            gofs[report["preferred_copula"]].theta)
        model = SemiParamModel("scale", BaselineSpec("weibull", (pooled_scale, shape)))
        systems = {}
        per_wire = {}
        for label, wires in groups.items():
            scales = [fixed_shape_weibull_scale(dataset.observations[w], shape) for w in wires]
            per_wire[label] = dict(zip(wires, scales))
            theta = tuple(pooled_scale / s for s in scales)
            systems[label] = SystemSpec(len(wires), model, theta, gen)
        rec = recommend_subset(systems)
        report["subsets"] = {
            "per_component_scales": per_wire,
            "recommendation": rec.to_json(),
        }

    if args.reference is not None:
        if args.reference == "bundled":
            manifest = demos.load_reference_manifest()
        else:
            manifest = read_json(args.reference, "reference manifest")
        report["reference_comparison"] = compare_to_reference(gofs, ranking, manifest)

    _emit_json(report, None if args.out_dir is None
               else os.path.join(args.out_dir, "report.json"))
    if args.out_dir is not None:
        crit_rows = ["criterion," + ",".join(f.family for f in ranking.entries)]
        crit_rows.append("aic," + ",".join(f"{f.aic:.17g}" for f in ranking.entries))
        crit_rows.append("bic," + ",".join(f"{f.bic:.17g}" for f in ranking.entries))
        atomic_write(os.path.join(args.out_dir, "marginal_fits.csv"),
                     "\n".join(crit_rows) + "\n")
        cop_rows = ["copula,theta,statistic,p_value"]
        for fam, g in gofs.items():
            cop_rows.append(f"{fam},{g.theta:.17g},{g.statistic:.17g},{g.p_value:.17g}")
        atomic_write(os.path.join(args.out_dir, "copula_gof.csv"),
                     "\n".join(cop_rows) + "\n")
    return EXIT_OK


def _build_parser(conf: dict | None = None) -> argparse.ArgumentParser:
    conf = conf or {}

    def d(key, default):
        # config supplies defaults; explicit flags still win
        return conf.get(key, conf.get(key.replace("_", "-"), default))

    parser = argparse.ArgumentParser(
        prog="failsafekit",
        description="Reliability comparison of fail-safe systems with dependent, "
                    "heterogeneous component lifetimes.",
    )
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preorder", help="classify two parameter vectors under the five preorders")
    p.add_argument("--a", help="inline vector, e.g. '0.1,0.2,0.3'")
    p.add_argument("--a-file", help="file with whitespace/comma separated entries")
    p.add_argument("--b")
    p.add_argument("--b-file")
    p.add_argument("--tol", type=float, default=d("tol", 1e-12))
    p.add_argument("--out")
    p.set_defaults(func=cmd_preorder)

    p = sub.add_parser("curve", help="fail-safe survival curve CSV")
    p.add_argument("system", nargs="?", help="system spec JSON")
    p.add_argument("--paired", help="second system spec JSON; adds survival_y and gap columns")
    p.add_argument("--points", type=int, default=d("points", 1000))
    p.add_argument("--x-min", type=float, default=d("x_min", None))
    p.add_argument("--x-max", type=float, default=d("x_max", None))
    p.add_argument("--out")
    p.add_argument("--emit-figures", action="store_true",
                   help="write the three bundled demo configurations' curves")
    p.add_argument("--out-dir", default=d("out_dir", "figures"))
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("verify", help="check comparison-result hypotheses and confirm dominance")
    p.add_argument("theorem", choices=sorted(_VERIFIERS))
    p.add_argument("system_x")
    p.add_argument("system_y")
    p.add_argument("--points", type=int, default=d("points", 1000))
    p.add_argument("--tol-dominance", type=float, default=d("tol_dominance", 1e-10))
    p.add_argument("--tol-crossing", type=float, default=d("tol_crossing", 1e-8))
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte-Carlo check of the analytic curve")
    p.add_argument("system")
    p.add_argument("--count", type=int, default=d("count", 200000))
    p.add_argument("--seed", type=int, default=d("seed", None))
    p.add_argument("--points", type=int, default=d("points", 20))
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="marginal fits, copula goodness of fit, subset advice")
    p.add_argument("data", help="CSV: long (cable,wire,strength) or wide (one column per wire)")
    p.add_argument("--families", nargs="+", default=d("families", list(FIT_FAMILIES)),
                   choices=FIT_FAMILIES)
    p.add_argument("--copulas", nargs="+", default=d("copulas", list(COPULA_FAMILIES)),
                   choices=COPULA_FAMILIES)
    p.add_argument("--copula-method", default=d("copula_method", "tau"),
                   choices=("tau", "pseudo_likelihood"))
    p.add_argument("--boot", type=int, default=d("boot", 200))
    p.add_argument("--seed", type=int, default=d("seed", None))
    p.add_argument("--subsets", default=d("subsets", None),
                   help="wire groups, e.g. '1,3,7,8;2,4,5,9'")
    p.add_argument("--reference", nargs="?", const="bundled",
                   default=d("reference", None),
                   help="compare against a manifest (default: bundled reference)")
    p.add_argument("--out-dir", default=d("out_dir", None))
    p.set_defaults(func=cmd_fit)
    return parser


def _load_config(argv: list[str]) -> dict:
    if "--config" not in argv:
        return {}
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ValidationError("--config needs a path")
    conf = read_json(argv[idx + 1], "config")
    if not isinstance(conf, dict):
        raise ValidationError("config must be a JSON object of flag defaults")
    return conf


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = _build_parser(_load_config(argv))
        args = parser.parse_args(argv)
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except UnsupportedGeneratorError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InconsistencyError as exc:
        print(f"INCONSISTENT: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
