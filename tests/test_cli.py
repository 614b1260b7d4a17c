import csv
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from failsafekit import cli
from failsafekit.cli import main
from failsafekit.errors import InconsistencyError
from failsafekit.demos import clayton_pair, gumbel_barnett_pair, load_reference_manifest
from failsafekit.generators import GeneratorSpec
from failsafekit.gridpolicy import GridPolicy
from failsafekit.models import BaselineSpec, SemiParamModel
from failsafekit.preorders import DEFAULT_TOL
from failsafekit.systems import SystemSpec

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def _validator(name):
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        schema = json.loads(path.read_text())
        resources.append((schema["$id"], Resource.from_contents(schema)))
    registry = Registry().with_resources(resources)
    schema = json.loads((SCHEMA_DIR / name).read_text())
    return Draft202012Validator(schema, registry=registry)


def write_system(path, sys_spec):
    path.write_text(json.dumps(sys_spec.to_json()))
    return str(path)


@pytest.fixture()
def demo_files(tmp_path):
    sx, sy = gumbel_barnett_pair()
    cx, cy = clayton_pair()
    return {
        "gb_x": write_system(tmp_path / "gbx.json", sx),
        "gb_y": write_system(tmp_path / "gby.json", sy),
        "cl_x": write_system(tmp_path / "clx.json", cx),
        "cl_y": write_system(tmp_path / "cly.json", cy),
        "dir": tmp_path,
    }


# -------------------------------------------------------------- preorder
def test_preorder_demo_vectors(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["preorder", "--a", "0.12,0.28,0.51,0.62,0.73",
                 "--b", "0.21,0.42,0.73,0.89,0.92", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["relations"]["p_larger"]["a_over_b"] is True
    _validator("order_report.schema.json").validate(rep)


def test_preorder_equal_vectors_all_relations(capsys):
    assert main(["preorder", "--a", "1,2,3", "--b", "3,2,1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    for rel in rep["relations"].values():
        assert rel["a_over_b"] is True and rel["b_over_a"] is True


def test_preorder_negative_vector_in_equals_form(capsys):
    # "--a -1,2,3" would read -1,2,3 as an option; the help says to write --a=-1,2,3
    assert main(["preorder", "--a=-1,2,3", "--b=0.5,2,3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["skipped"] == ["p_larger", "reciprocal_majorize"]
    assert rep["ascending_a"] == [-1.0, 2.0, 3.0]


def test_preorder_mismatched_lengths_exit_2(capsys):
    assert main(["preorder", "--a", "1,2", "--b", "1,2,3"]) == 2


@pytest.mark.parametrize("argv", [["preorder", "--a-file", "{f}", "--b", "1.0,1.0"],
                                  ["fit", "{f}"]])
def test_non_utf8_input_file_exit_2(tmp_path, capsys, argv):
    f = tmp_path / "bad.bin"
    f.write_bytes(b"0.5 1.5\xff\n")
    assert main([a.replace("{f}", str(f)) for a in argv]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_preorder_vector_file(tmp_path, capsys):
    f = tmp_path / "vec.txt"
    f.write_text("0.5 1.5\n")
    assert main(["preorder", "--a-file", str(f), "--b", "1.0,1.0"]) == 0


# ----------------------------------------------------------------- curve
def test_curve_paired_gap_nonnegative(demo_files, tmp_path):
    out = tmp_path / "pair.csv"
    code = main(["curve", demo_files["gb_x"], "--paired", demo_files["gb_y"],
                 "--points", "400", "--x-min", "0", "--x-max", "10",
                 "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x,survival_x,survival_y,gap"
    gaps = np.array([float(r.split(",")[3]) for r in rows[1:]])
    assert gaps.min() >= -1e-10


def test_curve_explicit_range_is_the_demo_grid(demo_files, tmp_path):
    from failsafekit.demos import demo_grid
    out = tmp_path / "pair.csv"
    assert main(["curve", demo_files["gb_x"], "--paired", demo_files["gb_y"], "--x-min", "0",
                 "--x-max", "10", "--points", "1000", "--out", str(out)]) == 0
    xs = np.loadtxt(out, delimiter=",", skiprows=1)[:, 0]
    assert xs.tobytes() == demo_grid(1000).tobytes()


def test_curve_single_matches_library(demo_files, tmp_path):
    from failsafekit import survival_x2n
    from failsafekit.demos import gumbel_barnett_pair
    out = tmp_path / "one.csv"
    code = main(["curve", demo_files["gb_x"], "--points", "50",
                 "--x-min", "0.1", "--x-max", "5.0", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()[1:]
    xs = np.array([float(r.split(",")[0]) for r in rows])
    vals = np.array([float(r.split(",")[1]) for r in rows])
    sx, _ = gumbel_barnett_pair()
    np.testing.assert_array_equal(vals, survival_x2n(sx, xs))


@pytest.mark.parametrize("given, missing", [("--x-min", "--x-max"), ("--x-max", "--x-min")])
def test_curve_one_sided_range_exit_2(demo_files, tmp_path, capsys, given, missing):
    out = tmp_path / "c.csv"
    assert main(["curve", demo_files["cl_x"], given, "2.0", "--points", "5",
                 "--out", str(out)]) == 2
    assert missing in capsys.readouterr().err
    assert not out.exists()


def test_curve_malformed_spec_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["curve", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"n": 2}))
    assert main(["curve", str(bad2), "--out", str(tmp_path / "y.csv")]) == 2


def test_curve_paired_default_grid_is_the_verify_grid(tmp_path):
    model = SemiParamModel("scale", BaselineSpec("gen_pareto", (2.0,)))
    gen = GeneratorSpec("gumbel_hougaard", 2.0)
    tx, ty = (0.5, 1.0, 2.0), (0.1, 1.0, 2.0)
    fx = write_system(tmp_path / "x.json", SystemSpec(3, model, tx, gen))
    fy = write_system(tmp_path / "y.json", SystemSpec(3, model, ty, gen))
    out = tmp_path / "pair.csv"
    assert main(["curve", fx, "--paired", fy, "--points", "300", "--out", str(out)]) == 0
    cols = np.loadtxt(out, delimiter=",", skiprows=1)
    want = GridPolicy(curve_points=300).curve_grid(model, tx, ty)
    assert cols[:, 0].tobytes() == want.tobytes()
    # verify t1 takes the p-larger vector first, so its gap is the CSV's negated
    rep = tmp_path / "ver.json"
    assert main(["verify", "t1", fy, fx, "--points", "300", "--out", str(rep)]) == 0
    dom = json.loads(rep.read_text())["dominance"]
    assert (cols[:, 3].min(), cols[:, 3].max()) == (-dom["max_gap"], -dom["min_gap"])


def test_curve_out_creates_parent_directories(demo_files, tmp_path):
    out = tmp_path / "a" / "b" / "x.csv"
    assert main(["curve", demo_files["gb_x"], "--points", "20", "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"x,survival\r\n")


def test_preorder_out_under_regular_file_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["preorder", "--a", "1,2", "--b", "2,1", "--out", str(blocker / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and "Traceback" not in err


def test_emit_figures_layout(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    assert main(["curve", "--emit-figures", "--out-dir", str(out_dir)]) == 0
    names = sorted(p.name for p in out_dir.glob("*.csv"))
    assert names == ["cable_fail_safe.csv", "clayton_near_tangency.csv",
                     "gumbel_barnett_dominance.csv"]


# ---------------------------------------------------------------- verify
def test_verify_t1_demo_pass_exit_0(demo_files, tmp_path):
    out = tmp_path / "rep.json"
    code = main(["verify", "t1", demo_files["gb_x"], demo_files["gb_y"],
                 "--points", "300", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["overall"] is True
    _validator("condition_report.schema.json").validate(rep)


def test_verify_t1_log_convex_generator_exit_1(demo_files, capsys):
    code = main(["verify", "t1", demo_files["cl_x"], demo_files["cl_y"],
                 "--points", "300"])
    assert code == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["overall"] is False
    _validator("condition_report.schema.json").validate(rep)


def test_verify_t2_counterexample_exit_3(tmp_path, capsys):
    from failsafekit import BaselineSpec, GeneratorSpec, SemiParamModel, SystemSpec
    m = SemiParamModel("location", BaselineSpec("gen_pareto", (1.0,)))
    gen = GeneratorSpec("clayton", 2.0)
    fx = write_system(tmp_path / "x.json",
                      SystemSpec(3, m, (1.0, 2.0, 4.0), gen))
    fy = write_system(tmp_path / "y.json",
                      SystemSpec(3, m, (1.5, 2.0, 3.0), gen))
    code = main(["verify", "t2", fx, fy, "--points", "300"])
    assert code == 3
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rep["overall"] is True  # hypotheses verified, dominance failed
    _validator("condition_report.schema.json").validate(rep)
    assert "INCONSISTENT" in captured.err


def test_verify_systems_of_different_n_exit_1(demo_files, tmp_path, capsys):
    sx, sy = gumbel_barnett_pair()
    short = write_system(tmp_path / "short.json",
                         SystemSpec(4, sy.model, sy.theta[:4], sy.generator))
    assert main(["verify", "t1", demo_files["gb_x"], short, "--points", "200"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["overall"] is False and rep["dominance"] is None
    failed = {c["name"] for c in rep["checks"] if not c["holds"]}
    assert {"shared_model", "p_larger"} <= failed
    _validator("condition_report.schema.json").validate(rep)


def test_verify_malformed_exit_2(demo_files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert main(["verify", "t1", str(bad), demo_files["gb_y"]]) == 2


def test_verify_p_ls_hypothesis_fail_exit_1(tmp_path, capsys):
    from failsafekit import BaselineSpec, GeneratorSpec, SemiParamModel, SystemSpec
    m = SemiParamModel("ls", BaselineSpec("gen_gamma", (0.5, 0.5)), lam=1.0)
    gen = GeneratorSpec("gumbel_barnett", 0.5)
    fx = write_system(tmp_path / "x.json", SystemSpec(3, m, (0.3, 0.8, 1.5), gen))
    fy = write_system(tmp_path / "y.json", SystemSpec(3, m, (0.5, 0.8, 1.0), gen))
    # gen_gamma(0.5, 0.5) is not DPFR: its x*hazard, 0.5*sqrt(x), increases
    assert main(["verify", "p-ls", fx, fy, "--points", "200"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["overall"] is False


def test_verify_infinite_bulk_quantile(tmp_path, capsys):
    # burr(0.05, 0.05) has an infinite 0.999 quantile, so no lifetime grid
    # exists; p-ls needs none (DPFR fails by proof), t1 needs one to confirm
    from failsafekit import BaselineSpec, GeneratorSpec, SemiParamModel, SystemSpec
    m = SemiParamModel("ls", BaselineSpec("burr", (0.05, 0.05)), lam=0.5)
    for gen, route, code in ((GeneratorSpec("clayton", 1.0), "p-ls", 1),
                             (GeneratorSpec("gumbel_barnett", 0.5), "t1", 2)):
        fx = write_system(tmp_path / "x.json", SystemSpec(2, m, (1.0, 2.0), gen))
        fy = write_system(tmp_path / "y.json", SystemSpec(2, m, (1.5, 2.5), gen))
        assert main(["verify", route, fx, fy]) == code
        out, err = capsys.readouterr()
        if code == 1:
            rep = json.loads(out)
            assert [c["name"] for c in rep["checks"] if not c["holds"]] == [
                "generator_log_concave", "baseline_dpfr"]
        else:
            assert "no finite positive bulk quantile" in err


@pytest.mark.parametrize("model, named", [
    (SemiParamModel("scale", BaselineSpec("burr", (0.01, 1e10))),
     "scale burr(0.01, 10000000000.0)"),
    (SemiParamModel("ls", BaselineSpec("burr", (0.05, 0.05)), lam=0.5),
     "ls burr(0.05, 0.05)"),
], ids=["quantiles_underflow_to_zero", "infinite_upper_quantile"])
def test_curve_default_grid_without_bulk_range_exit_2(tmp_path, capsys, model, named):
    f = write_system(tmp_path / "s.json",
                     SystemSpec(2, model, (1.0, 2.0), GeneratorSpec("clayton", 1.0)))
    assert main(["curve", f, "--out", str(tmp_path / "c.csv")]) == 2
    err = capsys.readouterr().err
    assert named in err and "no finite positive bulk quantile" in err


def test_curve_gamma_shape_beyond_kernel_limit_exit_2(tmp_path, capsys):
    model = SemiParamModel("scale", BaselineSpec("gamma", (2e4, 1.0)))
    f = write_system(tmp_path / "s.json",
                     SystemSpec(2, model, (1.0, 2.0), GeneratorSpec("clayton", 1.0)))
    assert main(["curve", f, "--out", str(tmp_path / "c.csv")]) == 2
    assert "incomplete gamma shape 20000 is outside (0, 10000]" in capsys.readouterr().err


def test_verify_p_mphrs_mismatched_fixed_exit_1(tmp_path, capsys):
    from failsafekit import BaselineSpec, GeneratorSpec, SemiParamModel, SystemSpec
    b = BaselineSpec("gen_gamma", (0.5, 0.5))
    gen = GeneratorSpec("gumbel_barnett", 0.5)
    mx = SemiParamModel("mphrs", b, alpha=0.5, lam=1.0)
    my = SemiParamModel("mphrs", b, alpha=0.7, lam=1.0)
    fx = write_system(tmp_path / "x.json", SystemSpec(2, mx, (0.5, 1.0), gen))
    fy = write_system(tmp_path / "y.json", SystemSpec(2, my, (0.5, 1.0), gen))
    assert main(["verify", "p-mphrs", fx, fy]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"] if not c["holds"]] == [
        "shared_model", "baseline_dpfr"]


# -------------------------------------------------------------- simulate
def test_simulate_deterministic_and_close(tmp_path):
    from failsafekit import BaselineSpec, GeneratorSpec, SemiParamModel, SystemSpec
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    spec = write_system(tmp_path / "s.json",
                        SystemSpec(3, m, (1.0, 2.0, 3.0), GeneratorSpec("clayton", 2.0)))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", spec, "--count", "20000", "--seed", "5",
                 "--out", str(out1)]) == 0
    assert main(["simulate", spec, "--count", "20000", "--seed", "5",
                 "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    last = out1.read_text().strip().splitlines()[-1]
    assert last.startswith("max_abs_deviation")
    assert float(last.split(",")[3]) < 0.03


def test_simulate_unsupported_generator_exit_2(tmp_path, capsys):
    from failsafekit import BaselineSpec, GeneratorSpec, SemiParamModel, SystemSpec
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    spec = write_system(tmp_path / "s.json",
                        SystemSpec(2, m, (1.0, 2.0), GeneratorSpec("gumbel_barnett", 0.5)))
    assert main(["simulate", spec, "--count", "100", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "unsupported" in err and "use the analytic survival path instead" in err


def test_simulate_env_seed(tmp_path, monkeypatch):
    from failsafekit import BaselineSpec, GeneratorSpec, SemiParamModel, SystemSpec
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    spec = write_system(tmp_path / "s.json",
                        SystemSpec(2, m, (1.0, 2.0), GeneratorSpec("independence")))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("FAILSAFEKIT_SEED", "77")
    assert main(["simulate", spec, "--count", "5000", "--out", str(out1)]) == 0
    assert main(["simulate", spec, "--count", "5000", "--seed", "77",
                 "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


# ------------------------------------------------------------------- fit
def _write_wide_dataset(path, seed=3, cables=12, wires=6):
    # positively dependent columns (clayton frailty) with weibull-shaped
    # marginals, so the copula stage sees an attainable positive tau
    from failsafekit import GeneratorSpec, sample_copula
    u = sample_copula(GeneratorSpec("clayton", 1.5), wires, cables, seed=seed).uniforms
    mat = 341.0 * (-np.log1p(-u)) ** (1.0 / 5.0)
    header = ",".join(f"w{j+1}" for j in range(wires))
    lines = [header] + [",".join(f"{v:.6f}" for v in row) for row in mat]
    path.write_text("\n".join(lines))
    return str(path)


def test_fit_pipeline_end_to_end(tmp_path):
    data = _write_wide_dataset(tmp_path / "wide.csv")
    out_dir = tmp_path / "out"
    code = main(["fit", data, "--boot", "100", "--seed", "11",
                 "--subsets", "w1,w2,w3;w4,w5,w6",
                 "--reference", "--out-dir", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    _validator("fit_report.schema.json").validate(report)
    assert set(report["copula_gof"]) == {"clayton", "gumbel", "frank"}
    assert (out_dir / "marginal_fits.csv").exists()
    assert (out_dir / "copula_gof.csv").exists()
    assert "recommendation" in report["subsets"]
    assert "aic_order_matches" in report["reference_comparison"]


def test_fit_out_dir_csvs_match_the_report(tmp_path):
    data = _write_wide_dataset(tmp_path / "wide.csv")
    out_dir = tmp_path / "out"
    assert main(["fit", data, "--boot", "100", "--seed", "11", "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    with open(out_dir / "marginal_fits.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    ranking = report["marginal_fits"]["ranking"]
    assert header == ["criterion", *(e["family"] for e in ranking)]
    for name, *values in rows:
        assert [float(v) for v in values] == [e[name] for e in ranking]
    with open(out_dir / "copula_gof.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(r["copula"] for r in rows) == sorted(report["copula_gof"])
    for r in rows:
        gof = report["copula_gof"][r["copula"]]
        for key in ("theta", "statistic", "p_value"):
            assert float(r[key]) == gof[key]


def test_every_cli_csv_ends_lines_with_crlf(demo_files, tmp_path, capsys):
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    spec = write_system(tmp_path / "s.json",
                        SystemSpec(3, m, (1.0, 2.0, 3.0), GeneratorSpec("clayton", 2.0)))
    data = _write_wide_dataset(tmp_path / "wide.csv")
    assert main(["curve", demo_files["gb_x"], "--paired", demo_files["gb_y"],
                 "--out", str(tmp_path / "c.csv")]) == 0
    assert main(["curve", "--emit-figures", "--out-dir", str(tmp_path / "figs")]) == 0
    assert main(["simulate", spec, "--count", "2000", "--seed", "1",
                 "--out", str(tmp_path / "sim.csv")]) == 0
    assert main(["fit", data, "--boot", "100", "--seed", "1", "--copulas", "clayton",
                 "--out-dir", str(tmp_path / "fit")]) == 0
    capsys.readouterr()
    assert main(["simulate", spec, "--count", "2000", "--seed", "1"]) == 0
    outputs = {"stdout": capsys.readouterr().out.encode()}
    outputs.update((p.name, p.read_bytes()) for p in sorted(tmp_path.rglob("*.csv"))
                   if p.name != "wide.csv")
    assert len(outputs) == 8
    for name, raw in outputs.items():
        assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n"), name


def test_fit_subsets_lists_pairs_that_did_not_certify(tmp_path):
    # componentwise-ordered wire scales make every pair p-larger related, but
    # the fitted copulas are log-convex and the weibull shape is above 1, so
    # theorem 1's hypotheses fail and no pair certifies
    from failsafekit import GeneratorSpec, sample_copula
    u = sample_copula(GeneratorSpec("clayton", 1.5), 6, 40, seed=3).uniforms
    mat = np.array([300.0, 310.0, 320.0, 340.0, 350.0, 360.0]) * (-np.log1p(-u)) ** 0.2
    path = tmp_path / "ordered.csv"
    path.write_text("\n".join(["w1,w2,w3,w4,w5,w6"]
                              + [",".join(f"{v:.6f}" for v in row) for row in mat]))
    out_dir = tmp_path / "out"
    assert main(["fit", str(path), "--boot", "100", "--seed", "1",
                 "--subsets", "w1,w2;w3,w4;w5,w6", "--out-dir", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    _validator("fit_report.schema.json").validate(report)
    rec = report["subsets"]["recommendation"]
    assert rec["certificates"] == {} and rec["dominates"] == []
    assert rec["incomparable"] == [["{w3,w4}", "{w5,w6}"]]
    # every related pair is listed with the checks that failed, none dropped
    assert rec["unverified"] == {
        "{w3,w4}>{w1,w2}": ["generator_log_concave", "survival_shape"],
        "{w5,w6}>{w1,w2}": ["generator_log_concave", "survival_shape"],
    }


def test_fit_deterministic(tmp_path, capsys):
    data = _write_wide_dataset(tmp_path / "wide.csv")
    assert main(["fit", data, "--boot", "100", "--seed", "4",
                 "--copulas", "clayton"]) == 0
    first = capsys.readouterr().out
    assert main(["fit", data, "--boot", "100", "--seed", "4",
                 "--copulas", "clayton"]) == 0
    assert capsys.readouterr().out == first


def test_fit_missing_file_exit_2(capsys):
    assert main(["fit", "/nonexistent/file.csv"]) == 2


@pytest.mark.parametrize("manifest", [
    None, "{not json", "{}", "[1, 2]",
    # a bool is not a number: this one was once used as a tolerance of 1
    pytest.param(json.dumps({**load_reference_manifest(), "tolerances": {"theta": True, "p_value": 0.1}}),
                 id="bool-tolerance"),
])
def test_fit_unreadable_reference_exit_2(tmp_path, capsys, manifest):
    data = _write_wide_dataset(tmp_path / "wide.csv", cables=10, wires=2)
    ref = tmp_path / "manifest.json"
    if manifest is not None:
        ref.write_text(manifest)
    assert main(["fit", data, "--families", "weibull", "--copulas", "clayton",
                 "--boot", "100", "--seed", "1", "--reference", str(ref)]) == 2
    assert "reference manifest" in capsys.readouterr().err


def test_fit_too_few_observations_exit_2(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    path.write_text("w1,w2\n1.0,2.0\n1.1,2.1\n")
    assert main(["fit", str(path)]) == 2


def test_fit_bad_subset_label_exit_2(tmp_path, capsys):
    data = _write_wide_dataset(tmp_path / "wide.csv")
    assert main(["fit", data, "--boot", "100", "--subsets", "w1,w2;w3,nope"]) == 2


def _no_work(*args, **kwargs):
    raise AssertionError("computed before checking the arguments")


@pytest.mark.parametrize("flags, fragment", [
    (["--subsets", "w1,w2;w3,nope"], "subset component 'nope' not in dataset"),
    (["--reference", "{missing}"], "cannot read reference manifest"),
    (["--reference", "{empty}"], "reference manifest needs tolerances"),
], ids=["subsets", "reference-missing", "reference-empty"])
def test_fit_checks_its_arguments_before_fitting(tmp_path, capsys, monkeypatch, flags, fragment):
    # a bad --subsets or --reference costs no marginal fit and no bootstrap
    from failsafekit import fitlab
    monkeypatch.setattr(fitlab, "mle_fit", _no_work)
    data = _write_wide_dataset(tmp_path / "wide.csv", cables=10, wires=4)
    (tmp_path / "empty.json").write_text("{}")
    paths = {"missing": str(tmp_path / "missing.json"), "empty": str(tmp_path / "empty.json")}
    assert main(["fit", data, "--boot", "100", *(f.format(**paths) for f in flags)]) == 2
    captured = capsys.readouterr()
    assert fragment in captured.err and captured.out == ""


def test_fit_refuses_bad_subsets_even_when_no_copula_is_scored(tmp_path, capsys):
    # every copula of this data is refused by the bootstrap, which once left
    # --subsets unread
    path = _write_comonotone_csv(tmp_path)
    assert main(["fit", path, "--boot", "100", "--subsets", "w1;nope"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: subset '{w1}' needs at least two components\n"
    assert captured.out == ""


def test_curve_refuses_a_missing_out_before_evaluating(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "survival_x2n", _no_work)
    monkeypatch.setattr(cli, "bulk_grid", _no_work)
    spec = write_system(tmp_path / "x.json", gumbel_barnett_pair()[0])
    assert main(["curve", spec, "--points", "2000000"]) == 2
    assert capsys.readouterr().err == "error: curve output needs --out PATH.csv\n"


def test_simulate_builds_its_grid_before_sampling(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sample_lifetimes", _no_work)
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    spec = write_system(tmp_path / "s.json",
                        SystemSpec(2, m, (1.0, 2.0), GeneratorSpec("clayton", 2.0)))
    assert main(["simulate", spec, "--points", "1", "--count", "3000000", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "error: curve_points must be at least 2, got 1\n"


def _write_comonotone_csv(tmp_path):
    """Near-comonotone columns: one swapped pair, mean tau 0.99993."""
    x = np.sort(300.0 * np.random.default_rng(5).weibull(5.0, 200))
    mat = np.stack([x, 1.1 * x, 0.9 * x], axis=1)
    mat[[100, 101], 1] = mat[[101, 100], 1]
    path = tmp_path / "comonotone.csv"
    path.write_text("\n".join(["w1,w2,w3"] + [",".join(f"{v:.6f}" for v in row)
                                              for row in mat]))
    return str(path)


def test_fit_frank_beyond_sampler_range_exit_2(tmp_path, capsys):
    # the data invert to a frank theta near 6e4, past what the bootstrap can sample
    path = _write_comonotone_csv(tmp_path)
    assert main(["fit", path, "--families", "weibull", "--copulas", "frank",
                 "--boot", "100", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "frank sampling needs theta <= 700" in err and "Traceback" not in err
    assert "bootstrap" in err and "analytic survival path" not in err


@pytest.mark.parametrize("family", ["clayton", "gumbel"])
def test_fit_power_frailty_beyond_sampler_range_exit_2(tmp_path, capsys, family):
    # clayton and gumbel invert to theta above 1e4 here; their frailties
    # would underflow or overflow, so the bootstrap refuses before sampling
    path = _write_comonotone_csv(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["fit", path, "--families", "weibull", "--copulas", family,
                     "--boot", "100", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert f"{family} sampling needs theta <= 50" in err and "Traceback" not in err
    assert "bootstrap" in err and "analytic survival path" not in err

def test_a_long_format_row_short_of_its_wire_column_exits_2(tmp_path, capsys):
    # the wire column after the strength column was read past the row's end:
    # an IndexError with a traceback, exit 1
    path = tmp_path / "short.csv"
    path.write_text("cable,strength,wire\nA,1.0\n")
    assert main(["fit", str(path)]) == 2
    assert capsys.readouterr().err == "error: malformed long-format row ['A', '1.0']\n"


def test_fit_keeps_report_when_every_copula_is_refused(tmp_path, capsys):
    # every default copula inverts to a theta the bootstrap cannot sample
    path = _write_comonotone_csv(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["fit", path, "--boot", "100", "--seed", "1", "--subsets", "w1,w2;w1,w3",
                 "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("skipped ") == 3 and "Traceback" not in err
    report = json.loads((out_dir / "report.json").read_text())
    _validator("fit_report.schema.json").validate(report)
    assert [e["family"] for e in report["marginal_fits"]["ranking"]]
    assert report["preferred_copula"] is None
    assert report["subsets"] == {"skipped": "no copula could be scored"}
    for fam, limit in (("clayton", 50), ("gumbel", 50), ("frank", 700)):
        entry = report["copula_gof"][fam]
        assert entry["family"] == fam and entry["theta"] > limit
        assert entry["skipped"].endswith(f"{fam} sampling needs theta <= {limit}")
    rows = (out_dir / "copula_gof.csv").read_text().splitlines()
    assert rows[1].startswith("clayton,") and rows[1].endswith(",,")


def test_fit_keeps_the_other_copulas_when_one_is_refused(tmp_path, capsys):
    # mean tau near 0.97: clayton inverts to theta 58 > 50, gumbel to 30, frank to 118
    rng = np.random.default_rng(5)
    x = np.sort(300.0 * rng.weibull(5.0, 200))
    noise = np.exp(0.01 * rng.standard_normal((2, 200)))
    mat = np.stack([x, 1.1 * x * noise[0], 0.9 * x * noise[1]], axis=1)
    path = tmp_path / "near.csv"
    path.write_text("\n".join(["w1,w2,w3"] + [",".join(f"{v:.6f}" for v in row)
                                              for row in mat]))
    assert main(["fit", str(path), "--families", "weibull", "--boot", "100",
                 "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("skipped clayton: the parametric bootstrap cannot sample")
    report = json.loads(captured.out)
    _validator("fit_report.schema.json").validate(report)
    gof = report["copula_gof"]
    assert "skipped" in gof["clayton"] and gof["clayton"]["theta"] > 50
    assert {"p_value", "statistic"} <= set(gof["gumbel"]) and {"p_value"} <= set(gof["frank"])
    scored = {fam: gof[fam]["statistic"] for fam in ("gumbel", "frank")}
    assert report["preferred_copula"] == min(scored, key=scored.get)


def test_fit_skips_a_copula_whose_tau_is_out_of_range(tmp_path, capsys):
    # the two columns' Kendall tau is exactly 0: gumbel attains it at
    # theta = 1, clayton and frank do not, and the report keeps gumbel
    order = [1, 2, 7, 8, 6, 5, 4, 3]
    path = tmp_path / "untied.csv"
    path.write_text("\n".join(["w1,w2"] + [f"{300 + 10 * k}.5,{300 + 10 * j}.25"
                                            for k, j in enumerate(order, 1)]))
    out_dir = tmp_path / "out"
    assert main(["fit", str(path), "--boot", "100", "--seed", "1",
                 "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "skipped clayton: clayton cannot attain tau=0.0000" in err
    assert "skipped frank: frank (positive range) cannot attain tau=0.0000" in err
    assert "Traceback" not in err
    report = json.loads((out_dir / "report.json").read_text())
    _validator("fit_report.schema.json").validate(report)
    gof = report["copula_gof"]
    for fam in ("clayton", "frank"):
        assert set(gof[fam]) == {"family", "skipped"}
    assert gof["gumbel"]["theta"] == 1.0 and 0.0 <= gof["gumbel"]["p_value"] <= 1.0
    assert report["preferred_copula"] == "gumbel"
    assert [e["family"] for e in report["marginal_fits"]["ranking"]]
    rows = (out_dir / "copula_gof.csv").read_text().splitlines()
    assert rows[1] == "clayton,,," and rows[3] == "frank,,,"


# ---------------------------------------------------------------- config
def test_config_supplies_defaults_flags_override(tmp_path):
    conf = tmp_path / "conf.json"
    # a null for a flag whose default is None leaves it unset
    conf.write_text(json.dumps({"points": 37, "x_min": None, "x_max": None}))
    sx, _ = gumbel_barnett_pair()
    spec = write_system(tmp_path / "s.json", sx)
    out = tmp_path / "c.csv"
    assert main(["--config", str(conf), "curve", spec, "--x-min", "0.1",
                 "--x-max", "2.0", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 38  # header + 37
    assert main(["--config", str(conf), "curve", spec, "--x-min", "0.1",
                 "--x-max", "2.0", "--points", "11", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 12
    assert main([f"--config={conf}", "curve", spec, "--x-min", "0.1",
                 "--x-max", "2.0", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 38
    assert main(["--config", str(conf), "curve", spec, "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 38


_SIM = ["simulate", "{sim}", "--count", "100", "--out", "{out}"]


@pytest.mark.parametrize("argv, conf, flag", [
    (["curve", "{spec}", "--out", "{out}"], {"points": 37.5}, "--points"),
    (["curve", "{spec}", "--out", "{out}"], {"points": None}, "--points"),
    (["preorder", "--a", "1,2", "--b", "1,2", "--out", "{out}"], {"tol": [0.1]}, "--tol"),
    (["verify", "t1", "{spec}", "{spec}", "--out", "{out}"], {"tol_dominance": [1]},
     "--tol-dominance"),
    (_SIM, {"seed": 1.5}, "--seed"),
    (_SIM, {"seed": True}, "--seed"),
], ids=["points-float", "points-null", "tol-list", "tol-dominance-list", "seed-float",
        "seed-bool"])
def test_mistyped_config_value_exit_2_naming_the_flag(tmp_path, capsys, argv, conf, flag):
    # argparse converts only string defaults, so a config value must reach it
    # as text to be converted and refused as on the command line
    sx, _ = gumbel_barnett_pair()
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    files = {
        "spec": write_system(tmp_path / "s.json", sx),
        "sim": write_system(tmp_path / "sim.json",
                            SystemSpec(2, m, (1.0, 2.0), GeneratorSpec("independence"))),
        "out": str(tmp_path / "out"),
    }
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path), *(a.format(**files) for a in argv)])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err
    assert not Path(files["out"]).exists()
    # an explicit flag still wins over the config value
    value = {"--points": "11", "--tol": "0.1", "--tol-dominance": "1", "--seed": "1"}[flag]
    assert main(["--config", str(path), *(a.format(**files) for a in argv),
                 flag, value]) in (0, 1)
    assert Path(files["out"]).exists()


@pytest.mark.parametrize("conf, flag, typed, good", [
    ({"families": "weibull"}, "--families", None, "weibull"),
    ({"copulas": ["clayton", "t"]}, "--copulas", ["clayton", "t"], "gumbel"),
    ({"copula_method": "bogus"}, "--copula-method", ["bogus"], "tau"),
], ids=["families-string", "copulas-unknown", "copula-method-unknown"])
def test_fit_config_value_outside_choices_exit_2_naming_the_flag(tmp_path, capsys, conf, flag,
                                                                  typed, good):
    # argparse checks choices only on the command line, so a config value
    # would reach fitlab unchecked, a string read character by character
    data = _write_wide_dataset(tmp_path / "wide.csv", cables=10, wires=4)
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    out = tmp_path / "out"
    argv = ["fit", data, "--boot", "100", "--out-dir", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path), *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"failsafekit fit: error: argument {flag}: " in err
    if typed is None:
        assert "expected a nonempty list of names, got 'weibull'" in err
    else:  # usage and message as argparse gives them for the same value typed
        with pytest.raises(SystemExit):
            main([*argv, flag, *typed])
        assert capsys.readouterr().err == err
    assert not out.exists()
    # an explicit flag still wins over the config value
    assert main(["--config", str(path), *argv, flag, good]) == 0
    assert (out / "report.json").exists()


# ------------------------------------------------------- exit codes, defaults
_FIT = ["fit", "{data}", "--families", "weibull", "--copulas", "clayton", "--boot", "100"]


@pytest.mark.parametrize("argv, env, fragment", [
    (["simulate", "{spec}", "--count", "100"], {"FAILSAFEKIT_SEED": "abc"},
     "FAILSAFEKIT_SEED must be an integer"),
    (["preorder", "--a", "1,2", "--a-file", "{vec}", "--b", "1,2"], {},
     "supply exactly one of --a / --a-file"),
    (["preorder", "--a", " , ", "--b", "1,2"], {}, "vector a is empty"),
    (["preorder", "--a", "1,x", "--b", "1,2"], {}, "vector a has non-numeric entries"),
    (["curve", "{spec}", "--x-min", "2", "--x-max", "1", "--out", "{out}"], {},
     "need 0 <= x-min < x-max"),
    (["curve", "{spec}", "--x-min", "0", "--x-max", "10", "--points", "0", "--out", "{out}"], {},
     "curve_points must be at least 2, got 0"),
    (["curve", "{spec}", "--points", "1", "--out", "{out}"], {},
     "curve_points must be at least 2, got 1"),
    (["curve", "--out", "{out}"], {}, "system.json required"),
    (["curve", "{spec}"], {}, "curve output needs --out"),
    (_FIT + ["--subsets", "w1,w2;"], {}, "subset '{}' needs at least two components"),
    # one wire passed every fit and the whole bootstrap, then SystemSpec refused n = 1
    (_FIT + ["--subsets", "w1;w2"], {}, "subset '{w1}' needs at least two components"),
    (_FIT + ["--subsets", "w1,w2"], {}, "needs at least two groups"),
    (_FIT + ["--subsets", "w1,w2;w2,w3,w4"], {}, "subsets must share size"),
    # one wire named twice once counted as a 2-wire group
    (_FIT + ["--subsets", "w1,w1;w2,w3"], {}, "subset '{w1,w1}' names a component twice"),
    # a repeated group was merged into the first, leaving one
    (_FIT + ["--subsets", "w1,w2;w1,w2"], {},
     "subset '{w1,w2}' repeats an earlier subset's components"),
    (_FIT + ["--subsets", "w1,w2;w3,w4;w2,w1"], {},
     "subset '{w2,w1}' repeats an earlier subset's components"),
    (["curve", "{spec}", "--config"], {}, "--config needs a path"),
    (["--conf", "{conf}", "curve", "{spec}"], {}, "write --config in full, not --conf"),
    (["--config", "{conf}", "curve", "{spec}"], {}, "config must be a JSON object"),
    (["preorder", "--a", "1,2,3", "--b", "1,2,3", "--tol", "nan"], {},
     "tol must be nonnegative"),
    # clayton is log-convex, so theorem 1's hypotheses fail before any curve is compared
    (["verify", "t1", "{cx}", "{cy}", "--tol-crossing", "-1"], {},
     "crossing_gap must be nonnegative, got -1.0"),
    (["verify", "t1", "{spec}", "{spec}", "--tol-dominance", "nan"], {},
     "dominance_tol must be nonnegative, got nan"),
    (_FIT + ["--seed", "-1"], {}, "--seed must lie in [0, 2**64), got -1"),
    (["simulate", "{spec}", "--count", "100", "--seed", "-1"], {},
     "--seed must lie in [0, 2**64), got -1"),
    (_FIT, {"FAILSAFEKIT_SEED": "-3"}, "FAILSAFEKIT_SEED must lie in [0, 2**64), got -3"),
    # 10**17 float64 values (about 710 PiB) exceed any address space, so numpy
    # refuses the allocation at once; these exited 1 with a traceback
    (["verify", "t1", "{spec}", "{spec}", "--points", str(10 ** 17)], {},
     "error: out of memory: "),
    (["curve", "{spec}", "--points", str(10 ** 17), "--out", "{out}"], {},
     "error: out of memory: "),
    (["simulate", "{cx}", "--count", str(10 ** 17), "--seed", "1"], {},
     "error: out of memory: "),
    # past numpy's largest float64 array (2**60 - 1 entries) numpy cannot even
    # index the request; these exited 1 with numpy's "Maximum allowed size exceeded"
    (["simulate", "{cx}", "--count", str(10 ** 20), "--seed", "1"], {},
     f"error: count must be at most {2 ** 60 - 1}, got {10 ** 20}\n"),
    (["simulate", "{cx}", "--points", str(10 ** 20), "--seed", "1"], {},
     f"error: curve_points must be at most {2 ** 60 - 1}, got {10 ** 20}\n"),
    (["curve", "{spec}", "--points", str(10 ** 20), "--out", "{out}"], {},
     f"error: curve_points must be at most {2 ** 60 - 1}, got {10 ** 20}\n"),
    (_FIT + ["--boot", str(10 ** 20)], {},
     f"error: boot_n must be at most {2 ** 60 - 1}, got {10 ** 20}\n"),
], ids=["env-seed", "vector-twice", "vector-empty", "vector-non-numeric", "x-range",
        "x-range-no-points", "bulk-one-point",
        "curve-no-system", "curve-no-out", "subsets-empty-group", "subsets-one-wire",
        "subsets-one-group",
        "subsets-unequal", "subsets-repeated-wire", "subsets-repeated-group",
        "subsets-reordered-group", "config-no-path", "config-abbreviated", "config-not-object",
        "preorder-nan-tol", "verify-negative-tol", "verify-nan-tol", "fit-negative-seed",
        "simulate-negative-seed", "env-negative-seed", "verify-oversized-grid",
        "curve-oversized-grid", "simulate-oversized-count", "simulate-unindexable-count",
        "simulate-unindexable-points", "curve-unindexable-grid", "fit-unindexable-boot"])
def test_input_errors_exit_2(tmp_path, capsys, monkeypatch, argv, env, fragment):
    sx, _ = gumbel_barnett_pair()
    cx, cy = clayton_pair()
    files = {
        "spec": write_system(tmp_path / "s.json", sx),
        "cx": write_system(tmp_path / "cx.json", cx),
        "cy": write_system(tmp_path / "cy.json", cy),
        "vec": str(tmp_path / "vec.txt"),
        "conf": str(tmp_path / "conf.json"),
        "data": _write_wide_dataset(tmp_path / "wide.csv", cables=10, wires=4),
        "out": str(tmp_path / "c.csv"),
    }
    Path(files["vec"]).write_text("1 2\n")
    Path(files["conf"]).write_text("[1, 2]")
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert main([a.format(**files) for a in argv]) == 2
    assert fragment in capsys.readouterr().err
    assert not Path(files["out"]).exists()


@pytest.mark.parametrize("command, argv", [
    ("preorder", []), ("verify", ["t1", "x.json", "y.json"]), ("simulate", ["s.json"]),
])
def test_inconsistency_from_a_subcommand_exit_3(capsys, monkeypatch, command, argv):
    def inconsistent(args):
        raise InconsistencyError("forced disagreement")

    monkeypatch.setattr(cli, f"cmd_{command}", inconsistent)
    assert main([command, *argv]) == 3
    assert "INCONSISTENT: forced disagreement" in capsys.readouterr().err


def test_flag_defaults_are_the_policy_defaults():
    parser = cli._build_parser()
    policy = GridPolicy()
    verify = parser.parse_args(["verify", "t1", "x.json", "y.json"])
    assert (verify.points, verify.tol_dominance, verify.tol_crossing) == (
        policy.curve_points, policy.dominance_tol, policy.crossing_gap)
    assert parser.parse_args(["curve"]).points == policy.curve_points
    assert parser.parse_args(["preorder"]).tol == DEFAULT_TOL


# ------------------------------------------------- malformed spec values
def _malformed(spec, case):
    """spec (a system spec's JSON) with the one value of ``case`` broken."""
    if case == "generator-theta-string":
        spec["generator"]["theta"] = "2"
    elif case == "generator-theta-bool":
        spec["generator"]["theta"] = True
    elif case == "theta-entry-string":
        spec["theta"][1] = "a"
    elif case == "theta-entry-bool":
        spec["theta"][1] = True
    elif case == "theta-null":
        spec["theta"] = None
    elif case == "baseline-param-string":
        spec["model"]["baseline"]["params"] = ["x"]
    elif case == "baseline-params-number":
        spec["model"]["baseline"]["params"] = 1.0
    elif case == "baseline-family-list":
        spec["model"]["baseline"]["family"] = ["exponential"]
    elif case == "n-string":
        spec["n"] = "3.5"
    elif case == "n-fraction":
        spec["n"] = 3.7
    elif case == "n-bool":
        spec["n"] = True
    elif case == "alpha-string":
        spec["model"] = {**spec["model"], "kind": "mphrs",
                         "fixed": {"alpha": "x", "lambda": 1.0}}
    elif case == "lambda-bool":
        spec["model"] = {**spec["model"], "kind": "ls", "fixed": {"lambda": False}}
    elif case == "fixed-list":
        spec["model"] = {**spec["model"], "kind": "ls", "fixed": [1.0]}
    return spec


_MALFORMED = {
    "generator-theta-string": "clayton theta must be a number, got '2'",
    "generator-theta-bool": "clayton theta must be a number, got True",
    "theta-entry-string": "system theta entry must be a number, got 'a'",
    "theta-entry-bool": "system theta entry must be a number, got True",
    "theta-null": "system theta entry must be a number, got None",
    "baseline-param-string": "exponential parameter must be a number, got 'x'",
    "baseline-params-number": "exponential takes 1 parameters ('rate',), got 1.0",
    "baseline-family-list": "unknown baseline family ['exponential']",
    "n-string": "system n must be an integer, got '3.5'",
    "n-fraction": "system n must be an integer, got 3.7",
    "n-bool": "system n must be an integer, got True",
    "alpha-string": "mphrs alpha must be a number, got 'x'",
    "lambda-bool": "ls lambda must be a number, got False",
    "fixed-list": "model fixed must be an object",
}


@pytest.mark.parametrize("command", ["curve", "verify", "simulate"])
@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_spec_value_exit_2(tmp_path, capsys, command, case):
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    good = SystemSpec(3, m, (1.0, 2.0, 3.0), GeneratorSpec("clayton", 2.0))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_malformed(good.to_json(), case)))
    assert not _validator("system.schema.json").is_valid(json.loads(bad.read_text()))
    out = tmp_path / "out.csv"
    argv = {
        "curve": ["curve", str(bad), "--out", str(out)],
        "verify": ["verify", "t1", str(bad), write_system(tmp_path / "good.json", good)],
        "simulate": ["simulate", str(bad), "--count", "10", "--out", str(out)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {_MALFORMED[case]}"]
    assert captured.out == ""
    assert not out.exists()


def test_integral_float_n_is_a_json_schema_integer(tmp_path):
    m = SemiParamModel("scale", BaselineSpec("exponential", (1.0,)))
    good = SystemSpec(3, m, (1.0, 2.0, 3.0), GeneratorSpec("clayton", 2.0))
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({**good.to_json(), "n": 3.0}))
    assert _validator("system.schema.json").is_valid(json.loads(spec.read_text()))
    assert main(["curve", str(spec), "--out", str(tmp_path / "c.csv")]) == 0
    assert main(["curve", write_system(tmp_path / "g.json", good),
                 "--out", str(tmp_path / "g.csv")]) == 0
    assert (tmp_path / "c.csv").read_text() == (tmp_path / "g.csv").read_text()
