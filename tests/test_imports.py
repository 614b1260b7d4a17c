"""Import graph of the command-line start-up path, and the public names.

Each CLI call starts a fresh interpreter.  Every subcommand loads the
package, whose ``__init__`` imports every layer but fitlab, and the cli,
which adds demos; fitlab, and ``scalar`` with it, loads under ``fit`` only.
No subcommand loads scipy at all: gamma and gen_gamma baselines compute
their incomplete gamma in ``models``, and fitlab computes ranks and Kendall
tau with numpy and takes its scalar searches and the dilogarithm from
``scalar``.  Only ``simulate`` and ``fit`` load ``numpy.random``, as
``mcsim`` makes its generator per draw, not at import.  These checks run
in a child interpreter, since the test process itself has long since
imported everything.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import failsafekit
from failsafekit import demos, fitlab, generators, models
from failsafekit.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Prints, as its last line, the sorted scipy and failsafekit modules loaded so
#: far, and numpy.random if it is loaded.
_REPORT = """
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("scipy", "failsafekit") or m == "numpy.random")))
"""
#: The modules a ``preorder`` child loads: the package and every layer but fitlab and scalar.
PREORDER_MODULES = ["failsafekit"] + [f"failsafekit.{m}" for m in (
    "cli", "demos", "errors", "generators", "gridpolicy", "mcsim", "models", "ordering",
    "preorders", "systems")]


def _modules_after(code, cwd):
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code + _REPORT],
        env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _heavy_modules_after(code, cwd):
    return [m for m in _modules_after(code, cwd)
            if m.startswith("scipy") or m == "failsafekit.fitlab"]


def test_a_preorder_child_loads_every_layer_but_fitlab(tmp_path):
    code = 'from failsafekit import cli\nassert cli.main(["preorder", "--a", "1,2,3", "--b", "2,2,2"]) == 0\n'
    assert _modules_after(code, tmp_path) == PREORDER_MODULES


@pytest.mark.parametrize("argv", [
    ["preorder", "--a", "1,2,3", "--b", "2,2,2", "--out", "out"],
    ["verify", "t1", "x.json", "y.json", "--points", "200", "--out", "out"],
    ["curve", "x.json", "--paired", "y.json", "--points", "200", "--out", "out"],
    ["curve", "--emit-figures", "--out-dir", "out"],
], ids=["preorder", "verify", "curve", "figures"])
def test_children_that_draw_nothing_load_no_numpy_random(tmp_path, argv):
    # only simulate and fit draw, each making its generator per draw; one
    # made at import would load numpy.random into every child
    for name, spec in zip("xy", demos.gumbel_barnett_pair()):
        (tmp_path / f"{name}.json").write_text(json.dumps(spec.to_json()))
    code = f"from failsafekit import cli\nassert cli.main({argv!r}) == 0\n"
    assert "numpy.random" not in _modules_after(code, tmp_path)


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
gen_gamma = SystemSpec(3, SemiParamModel("phr", BaselineSpec("gen_gamma", (0.5, 0.7))),
                       (0.5, 1.0, 2.0), GeneratorSpec("clayton", 2.0))
gx, gy = (SystemSpec(s.n, SemiParamModel("scale", BaselineSpec("gamma", (0.8, 1.5))),
                     s.theta, s.generator) for s in (x, y))
for name, spec in (("x", x), ("y", y), ("w", weibull), ("gg", gen_gamma), ("gx", gx), ("gy", gy)):
    with open(name + ".json", "w") as fh:
        json.dump(spec.to_json(), fh)
codes = [
    cli.main(["preorder", "--a", "1,2,3", "--b", "2,2,2", "--out", "pre.json"]),
    cli.main(["verify", "t1", "x.json", "y.json", "--points", "200", "--out", "ver.json"]),
    cli.main(["verify", "t1", "gx.json", "gy.json", "--points", "200", "--out", "gver.json"]),
    cli.main(["curve", "--emit-figures", "--out-dir", "figs"]),
    cli.main(["simulate", "w.json", "--count", "2000", "--seed", "3", "--out", "sim.csv"]),
    cli.main(["simulate", "gg.json", "--count", "2000", "--seed", "3", "--out", "gsim.csv"]),
]
assert codes == [0, 0, 0, 0, 0, 0], codes
"""
    assert _heavy_modules_after(code, tmp_path) == []
    assert len(list((tmp_path / "figs").glob("*.csv"))) == len(demos.FIGURE_CONFIGS)


def test_gen_gamma_curve_loads_no_scipy_and_matches_in_process(tmp_path):
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
    assert loaded == []
    assert main(args + ["--out", str(tmp_path / "parent.csv")]) == 0
    child = (tmp_path / "child.csv").read_bytes()
    assert child == (tmp_path / "parent.csv").read_bytes()
    assert child.count(b"\n") == 301


def test_fitlab_import_loads_no_scipy(tmp_path):
    assert _heavy_modules_after("import failsafekit.fitlab", tmp_path) == ["failsafekit.fitlab"]


def test_fit_subcommand_loads_no_scipy(tmp_path):
    # both copula methods, so the bounded search, frank's brentq and the
    # dilogarithm all run
    code = """
import numpy as np
from failsafekit import cli
from failsafekit.generators import GeneratorSpec
from failsafekit.mcsim import sample_copula

u = sample_copula(GeneratorSpec("clayton", 1.5), 4, 40, seed=1).uniforms
rows = ["w1,w2,w3,w4"] + [",".join(f"{v:.6f}" for v in 341.0 * (-np.log1p(-r)) ** 0.2)
                          for r in u]
with open("wide.csv", "w") as fh:
    fh.write("\\n".join(rows))
codes = [cli.main(["fit", "wide.csv", "--boot", "100", "--seed", "1", "--copula-method",
                   method, "--out-dir", method]) for method in ("tau", "pseudo_likelihood")]
assert codes == [0, 0], codes
"""
    assert _heavy_modules_after(code, tmp_path) == ["failsafekit.fitlab"]
    for method in ("tau", "pseudo_likelihood"):
        report = json.loads((tmp_path / method / "report.json").read_text())
        assert sorted(report["copula_gof"]) == ["clayton", "frank", "gumbel"]


def test_fitlab_names_still_resolve():
    assert fitlab.FIT_FAMILIES is models.FIT_FAMILIES
    assert fitlab.COPULA_FAMILIES is generators.COPULA_FAMILIES
    assert demos.load_reference_manifest()["preferred_copula"] in fitlab.COPULA_FAMILIES


def test_public_names_resolve_once():
    names = failsafekit.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(failsafekit, n)] == []


def test_only_the_cli_does_file_io():
    # the cli owns file I/O; demos reads its bundled manifest through
    # importlib.resources, which is not the builtin open
    offenders = []
    for path in sorted((SRC / "failsafekit").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "open":
                    offenders.append(f"{path.name}:{node.lineno} calls open")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                         else [a.name for a in node.names])
                offenders += [f"{path.name}:{node.lineno} imports {n}" for n in names
                              if n.split(".")[0] in ("csv", "tempfile")]
    assert offenders == []


def test_every_imported_name_is_used():
    # a deletion that leaves an import behind shows up here; __init__
    # imports to re-export, so it is left out
    unused = []
    for path in sorted((SRC / "failsafekit").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name.split(".")[0]): node.lineno
                                 for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({(a.asname or a.name): node.lineno for a in node.names})
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} imports {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []
