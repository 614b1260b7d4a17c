"""Import graph of the command-line start-up path, and the public names.

Each CLI call starts a fresh interpreter, so every subcommand should load
only the layers it runs: fitlab (and the scipy optimize and special it
needs) loads under ``fit`` only, and scipy.special on the first gamma or
gen_gamma baseline.  fitlab itself computes ranks and Kendall tau without
scipy.stats, and frank's Kendall tau without scipy.integrate.  These checks run in a child interpreter, since
the test process itself has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import failsafekit
from failsafekit import demos, fitlab, generators, models
from failsafekit.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Prints, as its last line, the sorted heavy modules loaded so far.
_REPORT = """
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("scipy") or m == "failsafekit.fitlab")))
"""


def _heavy_modules_after(code, cwd):
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code + _REPORT],
        env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_neither_fitlab_nor_scipy(tmp_path):
    assert _heavy_modules_after("import failsafekit.cli", tmp_path) == []


def test_non_fit_subcommands_load_no_scipy(tmp_path):
    code = """
from failsafekit import cli, demos
from failsafekit.generators import GeneratorSpec
from failsafekit.models import BaselineSpec, SemiParamModel
from failsafekit.systems import SystemSpec

x, y = demos.gumbel_barnett_pair()
weibull = SystemSpec(3, SemiParamModel("scale", BaselineSpec("weibull", (1.0, 1.5))),
                     (0.5, 1.0, 2.0), GeneratorSpec("clayton", 2.0))
for name, spec in (("x", x), ("y", y), ("w", weibull)):
    with open(name + ".json", "w") as fh:
        json.dump(spec.to_json(), fh)
codes = [
    cli.main(["preorder", "--a", "1,2,3", "--b", "2,2,2", "--out", "pre.json"]),
    cli.main(["verify", "t1", "x.json", "y.json", "--points", "200", "--out", "ver.json"]),
    cli.main(["curve", "--emit-figures", "--out-dir", "figs"]),
    cli.main(["simulate", "w.json", "--count", "2000", "--seed", "3", "--out", "sim.csv"]),
]
assert codes == [0, 0, 0, 0], codes
"""
    assert _heavy_modules_after(code, tmp_path) == []
    assert len(list((tmp_path / "figs").glob("*.csv"))) == len(demos.FIGURE_CONFIGS)


def test_gen_gamma_curve_loads_scipy_special_and_matches_in_process(tmp_path):
    spec = {"n": 3, "generator": {"family": "frank", "theta": 2.0},
            "model": {"kind": "phr",
                      "baseline": {"family": "gen_gamma", "params": [1.5, 2.5]}},
            "theta": [0.5, 1.0, 2.0]}
    (tmp_path / "gg.json").write_text(json.dumps(spec))
    args = ["curve", str(tmp_path / "gg.json"), "--points", "300"]
    code = f"""
from failsafekit import cli
assert cli.main({args + ["--out", "child.csv"]!r}) == 0
"""
    loaded = _heavy_modules_after(code, tmp_path)
    assert "scipy.special" in loaded and "failsafekit.fitlab" not in loaded
    assert main(args + ["--out", str(tmp_path / "parent.csv")]) == 0
    child = (tmp_path / "child.csv").read_bytes()
    assert child == (tmp_path / "parent.csv").read_bytes()
    assert child.count(b"\n") == 301


def test_fitlab_import_loads_no_scipy_stats(tmp_path):
    loaded = _heavy_modules_after("import failsafekit.fitlab", tmp_path)
    assert "failsafekit.fitlab" in loaded
    assert [m for m in loaded if m.startswith(("scipy.stats", "scipy.integrate"))] == []


def test_fitlab_names_still_resolve():
    assert fitlab.FIT_FAMILIES is models.FIT_FAMILIES
    assert fitlab.COPULA_FAMILIES is generators.COPULA_FAMILIES
    assert demos.load_reference_manifest()["preferred_copula"] in fitlab.COPULA_FAMILIES


def test_public_names_resolve_once():
    names = failsafekit.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(failsafekit, n)] == []
