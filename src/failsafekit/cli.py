"""Command-line surface.

Subcommands: preorder, curve, verify, simulate, fit.  Every subcommand is
deterministic given identical inputs, flags and seeds.  Exit codes: 0
success, 1 hypothesis failure (verify), 2 validation/input error (also a
fit report written with a copula the bootstrap cannot sample skipped, and
a request too large to allocate or for numpy to index, as --points,
--count or --boot), 3 inconsistency
(hypotheses verified but dominance failed; release blocking).  JSON goes
to stdout unless --out is given; CSVs end lines with CRLF; files are
written atomically (temp + rename) after creating their parent
directory; a path that cannot be written exits 2.  The default seed
comes from FAILSAFEKIT_SEED when set.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import demos
from .errors import (InconsistencyError, UnsupportedGeneratorError, ValidationError, real_array,
                     shown)
from .generators import COPULA_FAMILIES, GeneratorSpec
from .gridpolicy import GridPolicy
from .mcsim import check_seed, empirical_survival_x2n, sample_lifetimes
from .models import FIT_FAMILIES, bulk_grid, linear_grid
from .ordering import verify_prop_ls, verify_prop_mphrs, verify_theorem1, verify_theorem2
from .preorders import DEFAULT_TOL, classify
from .systems import SystemSpec, default_grid, survival_x2n, wire_system

ENV_SEED = "FAILSAFEKIT_SEED"

EXIT_OK = 0
EXIT_HYPOTHESIS_FAIL = 1
EXIT_VALIDATION = 2
EXIT_INCONSISTENT = 3


def _default_seed() -> int:
    seed = os.environ.get(ENV_SEED, "0")
    try:
        seed = int(seed)
    except ValueError:
        pass  # check_seed refuses the text, naming the variable
    return check_seed(seed, ENV_SEED)


def atomic_write(path: str, text: str) -> None:
    """Write text to path through a temp file and a rename, creating the
    parent directory; an OSError becomes a ValidationError."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:  # its own text repeats the path
        raise ValidationError(f"cannot write {shown(path)}: {exc.strerror}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _read_text(path: str, what: str) -> str:
    """The text of the file at path, line ends untranslated as the csv module
    needs; an unreadable file is a ValidationError."""
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # an OSError's own text repeats the path
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ValidationError(f"cannot read {what} {shown(path)}: {reason}") from exc


def read_json(path: str, what: str):
    """Parse the JSON file at path; unreadable or malformed input is a ValidationError."""
    try:
        return json.loads(_read_text(path, what))
    except ValueError as exc:  # not JSON
        raise ValidationError(f"cannot read {what}: {exc}") from exc


def load_system(path: str) -> SystemSpec:
    return SystemSpec.from_json(read_json(path, "system spec"))


def load_dataset_csv(path: str):
    """Read long format (cable,wire,strength) or wide format (one column
    per wire), auto-detected by header, as a ``fitlab.LifetimeDataset``."""
    from .fitlab import LifetimeDataset  # loaded by the fit subcommand only

    rows = [row for row in csv.reader(io.StringIO(_read_text(path, "dataset"), newline=""))
            if any(cell.strip() for cell in row)]  # blank rows are skipped
    if len(rows) < 2:
        raise ValidationError("dataset CSV has no data rows")
    names = [name.strip() for name in rows[0]]
    header = [name.lower() for name in names]
    long_format = set(header) == {"cable", "wire", "strength"}
    keys = header if long_format else names
    repeated = next((key for i, key in enumerate(keys) if key in keys[:i]), None)
    if repeated is not None:
        raise ValidationError(f"dataset CSV header repeats column {shown(repeated)}")
    if long_format:
        iw, iv = header.index("wire"), header.index("strength")
        obs: dict[str, list[float]] = {}
        for row in rows[1:]:
            try:
                wire, value = row[iw].strip(), float(row[iv])
            except (ValueError, IndexError) as exc:
                raise ValidationError(f"malformed long-format row {shown(row)}") from exc
            obs.setdefault(wire, []).append(value)
        return LifetimeDataset(obs)
    # wide: every column is a component
    obs = {name: [] for name in names}
    for row in rows[1:]:
        if len(row) != len(names):
            raise ValidationError(f"wide-format row length mismatch: {shown(row)}")
        for name, cell in zip(names, row):
            try:
                obs[name].append(float(cell))
            except ValueError as exc:
                raise ValidationError(f"non-numeric cell {shown(cell)} in wide format") from exc
    return LifetimeDataset(obs)


def _csv_text(rows) -> str:
    """rows as CSV text with the csv module's CRLF line ends, floats written
    with 17 significant digits."""
    buf = io.StringIO()
    csv.writer(buf).writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row]
                              for row in rows)
    return buf.getvalue()


def write_curve_csv(path: str, xs, columns: dict) -> None:
    """Write columns of one number per point of xs as CSV, 17 significant digits, atomically."""
    xs = real_array(xs, "curve x")
    cols = [real_array(c, f"curve {name} entry") for name, c in columns.items()]
    if xs.ndim != 1 or any(c.shape != xs.shape for c in cols):
        raise ValidationError("curve columns need one number per point of a 1-d grid")
    rows = zip(xs.tolist(), *(c.tolist() for c in cols))  # python floats format faster
    atomic_write(path, _csv_text([["x", *columns], *rows]))


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
        inline = _read_text(path, f"{name} vector")
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
        return linear_grid(args.x_min, args.x_max, args.points)
    return bulk_grid([(s.model, s.theta) for s in sys_specs], args.points)


def _pair_columns(sys_x, sys_y, xs) -> dict:
    """The curve CSV columns of a system pair on xs."""
    vx = survival_x2n(sys_x, xs)
    vy = survival_x2n(sys_y, xs)
    return {"survival_x": vx, "survival_y": vy, "gap": vx - vy}


def _emit_figures(out_dir: str) -> int:
    for name, (pair_fn, grid_fn) in demos.FIGURE_CONFIGS.items():
        xs = grid_fn()
        write_curve_csv(os.path.join(out_dir, f"{name}.csv"), xs, _pair_columns(*pair_fn(), xs))
    print(f"wrote {len(demos.FIGURE_CONFIGS)} figure CSVs to {out_dir}")
    return EXIT_OK


def cmd_curve(args) -> int:
    if args.emit_figures:
        return _emit_figures(args.out_dir)
    if args.system is None:
        raise ValidationError("system.json required (or use --emit-figures)")
    if args.out is None:
        raise ValidationError("curve output needs --out PATH.csv")
    sys_x = load_system(args.system)
    if args.paired is not None:
        sys_y = load_system(args.paired)
        xs = _grid_for((sys_x, sys_y), args)
        cols = _pair_columns(sys_x, sys_y, xs)
    else:
        xs = _grid_for((sys_x,), args)
        cols = {"survival": survival_x2n(sys_x, xs)}
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
    xs = default_grid(sys_spec, args.points)
    lifetimes = sample_lifetimes(sys_spec, args.count, args.seed)
    analytic = survival_x2n(sys_spec, xs)
    empirical = empirical_survival_x2n(lifetimes, xs)
    diff = np.abs(analytic - empirical)
    _emit(_csv_text([["x", "analytic", "empirical", "abs_diff"],
                     *zip(xs, analytic, empirical, diff),
                     ["max_abs_deviation", "", "", diff.max()]]), args.out)
    return EXIT_OK


def _parse_subsets(raw: str, labels) -> dict[str, tuple[str, ...]]:
    out = {}
    for group in raw.split(";"):
        names = tuple(w.strip() for w in group.split(",") if w.strip())
        label = "{" + ",".join(names) + "}"
        if len(names) < 2:
            raise ValidationError(f"subset {shown(label)} needs at least two components")
        for w in names:
            if w not in labels:
                raise ValidationError(f"subset component {shown(w)} not in dataset {shown(sorted(labels))}")
        if len(set(names)) < len(names):
            raise ValidationError(f"subset {shown(label)} names a component twice")
        if any(set(v) == set(names) for v in out.values()):
            raise ValidationError(f"subset {shown(label)} repeats an earlier subset's components")
        out[label] = names
    if len(out) < 2:
        raise ValidationError("--subsets needs at least two groups, separated by ';'")
    sizes = {len(v) for v in out.values()}
    if len(sizes) != 1:
        raise ValidationError("subsets must share size")
    return out


def cmd_fit(args) -> int:
    # fitlab loads here only, so the other subcommands start without it
    from .fitlab import (
        BootstrapRangeError,
        TauRangeError,
        _check_manifest,
        compare_to_reference,
        cvm_gof,
        fixed_shape_weibull_scale,
        mle_fit,
        pseudo_observations,
        rank_models,
        recommend_subset,
    )

    dataset = load_dataset_csv(args.data)
    # the arguments are checked before any fit, so a bad one costs no bootstrap
    groups = _parse_subsets(args.subsets, set(dataset.labels)) if args.subsets else None
    manifest = None
    if args.reference is not None:
        manifest = (demos.load_reference_manifest() if args.reference == "bundled"
                    else read_json(args.reference, "reference manifest"))
        _check_manifest(manifest)
    pooled = dataset.pooled()
    fits = {fam: mle_fit(fam, pooled) for fam in args.families}
    ranking = rank_models(fits.values())

    report: dict = {
        "dataset": {"components": list(dataset.labels),
                    "pooled_n": int(pooled.size)},
        "marginal_fits": ranking.to_json(),
        "copula_gof": {},
    }

    gofs = {}
    pseudo = pseudo_observations(dataset.matrix())
    for fam in args.copulas:
        try:
            gofs[fam] = cvm_gof(fam, pseudo, boot_n=args.boot, seed=args.seed,
                                method=args.copula_method)
            report["copula_gof"][fam] = gofs[fam].to_json()
        except (BootstrapRangeError, TauRangeError) as exc:
            print(f"skipped {fam}: {exc}", file=sys.stderr)
            # a data tau outside the family's range leaves no theta to report
            theta = {"theta": exc.theta} if isinstance(exc, BootstrapRangeError) else {}
            report["copula_gof"][fam] = {"family": fam, **theta, "skipped": str(exc)}
    preferred = min(gofs, key=lambda fam: gofs[fam].statistic) if gofs else None
    report["preferred_copula"] = preferred

    if groups is not None and not gofs:
        report["subsets"] = {"skipped": "no copula could be scored"}
    elif groups is not None:
        wfit = fits.get("weibull") or mle_fit("weibull", pooled)
        shape = wfit.params["shape"]
        gen = GeneratorSpec(preferred, gofs[preferred].theta)
        systems = {}
        per_wire = {}
        for label, wires in groups.items():
            scales = [fixed_shape_weibull_scale(dataset.observations[w], shape) for w in wires]
            per_wire[label] = dict(zip(wires, scales))
            systems[label] = wire_system(wfit.params["scale"], shape, scales, gen)
        rec = recommend_subset(systems)
        report["subsets"] = {
            "per_component_scales": per_wire,
            "recommendation": rec.to_json(),
        }

    if manifest is not None:
        report["reference_comparison"] = compare_to_reference(gofs, ranking, manifest, preferred)

    _emit_json(report, None if args.out_dir is None
               else os.path.join(args.out_dir, "report.json"))
    if args.out_dir is not None:
        atomic_write(os.path.join(args.out_dir, "marginal_fits.csv"), _csv_text([
            ["criterion", *(f.family for f in ranking.entries)],
            ["aic", *(f.aic for f in ranking.entries)],
            ["bic", *(f.bic for f in ranking.entries)],
        ]))
        atomic_write(os.path.join(args.out_dir, "copula_gof.csv"), _csv_text(
            [["copula", "theta", "statistic", "p_value"]]
            + [[fam, g.get("theta", ""), g.get("statistic", ""), g.get("p_value", "")]
               for fam, g in report["copula_gof"].items()]))
    # a copula skipped for its tau or refused by the bootstrap leaves a partial report
    partial = any("skipped" in g for g in report["copula_gof"].values())
    return EXIT_VALIDATION if partial else EXIT_OK


def _check_config_choices(parser: argparse.ArgumentParser, args) -> None:
    """Refuse a config value outside its flag's choices, as argparse refuses
    one typed on the command line, which is the only place it checks them:
    exit 2 through ``parser`` with argparse's message naming the flag.  A
    list flag's config value must be a nonempty JSON list of names."""
    for action in parser._actions:
        if action.choices is None or not action.option_strings:
            continue
        value = getattr(args, action.dest)
        values = value if action.nargs == "+" else [value]
        try:
            if not isinstance(values, list) or not values:
                raise argparse.ArgumentError(
                    action, f"expected a nonempty list of names, got {shown(value)}")
            for value in values:  # value: the one a refusal below names
                parser._check_value(action, value)
        except argparse.ArgumentError as err:  # argparse shows a refused choice whole
            parser.error(str(err).replace(repr(value), shown(value)))


def _build_parser(conf: dict | None = None) -> argparse.ArgumentParser:
    conf = conf or {}
    policy = GridPolicy()

    def d(key, default):
        # config supplies defaults; explicit flags still win.  A value goes in as
        # text, which argparse converts and refuses as it would on the command
        # line, except a list flag's value and a null for an unset flag
        value = conf.get(key, conf.get(key.replace("_", "-"), default))
        return value if isinstance(default, list) or value is default is None else str(value)

    parser = argparse.ArgumentParser(
        prog="failsafekit",
        description="Reliability comparison of fail-safe systems with dependent, "
                    "heterogeneous component lifetimes.",
    )
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preorder", help="classify two parameter vectors under the five preorders")
    p.add_argument("--a", help="inline vector, e.g. '0.1,0.2,0.3'; write -1,2,3 as --a=-1,2,3")
    p.add_argument("--a-file", help="file with whitespace/comma separated entries")
    p.add_argument("--b", help="inline vector, as --a: write -1,2,3 as --b=-1,2,3")
    p.add_argument("--b-file")
    p.add_argument("--tol", type=float, default=d("tol", DEFAULT_TOL))
    p.add_argument("--out")
    p.set_defaults(func=cmd_preorder)

    p = sub.add_parser("curve", help="fail-safe survival curve CSV")
    p.add_argument("system", nargs="?", help="system spec JSON")
    p.add_argument("--paired", help="second system spec JSON; adds survival_y and gap columns")
    p.add_argument("--points", type=int, default=d("points", policy.curve_points))
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
    p.add_argument("--points", type=int, default=d("points", policy.curve_points))
    p.add_argument("--tol-dominance", type=float, default=d("tol_dominance", policy.dominance_tol))
    p.add_argument("--tol-crossing", type=float, default=d("tol_crossing", policy.crossing_gap))
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
    p.set_defaults(func=cmd_fit, parser=p)
    return parser


def _load_config(argv: list[str]) -> dict:
    """The flag defaults of ``--config PATH`` or ``--config=PATH``.  An
    abbreviation such as ``--conf`` before the subcommand is refused:
    argparse would take it for --config, which only this function reads."""
    path, top = None, True  # top: no subcommand seen yet
    tokens = iter(argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag == "--config":
            path = value if eq else next(tokens, "")
            if not path:
                raise ValidationError("--config needs a path")
        elif top and len(flag) > 2 and "--config".startswith(flag):
            raise ValidationError(f"write --config in full, not {flag}")
        elif not token.startswith("-"):
            top = False
    if path is None:
        return {}
    conf = read_json(path, "config")
    if not isinstance(conf, dict):
        raise ValidationError("config must be a JSON object of flag defaults")
    return conf


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = _build_parser(_load_config(argv))
        args = parser.parse_args(argv)
        if args.command == "fit":
            _check_config_choices(args.parser, args)
        if hasattr(args, "seed"):
            args.seed = _default_seed() if args.seed is None else check_seed(args.seed, "--seed")
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # a grid or sample too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except UnsupportedGeneratorError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InconsistencyError as exc:
        print(f"INCONSISTENT: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
