"""The README's code examples run as written; the CLI examples are parsed, not
run.  Every rule of its "Numerical conventions" table names an owner and a test
that exist, and the section stays short enough to check in one sitting.  Every
test the README names, as the numbers of "What the audit finds" do, exists."""

import ast
import functools
import importlib
import re
import shlex
from pathlib import Path

import pytest

from failsafekit import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
#: A rule row: | rule | `owner` | `tests/file.py::test` |, the owner a dotted name under failsafekit.
RULE_ROW = re.compile(r"\| .+ \| `([\w.]+)` \| `(tests/\w+\.py)::(\w+)` \|")
#: A test named anywhere in the README: `tests/file.py::test`.
NODE_ID = re.compile(r"`(tests/\w+\.py)::(\w+)`")


@functools.cache
def _test_functions(path):
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_library_quickstart_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, "README quickstart", "exec"), namespace)
    assert capsys.readouterr().out == "True Relation.X_DOMINATES_Y\n"
    assert namespace["lifetimes"].shape == (200_000, 5)


def test_cli_examples_parse():
    # parse only: the examples name files that do not exist here
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()  # join backslash continuations
    commands = [shlex.split(line, comments=True)[1:] for line in lines
                if line.startswith("failsafekit ")]
    parser = cli._build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: failsafekit {shlex.join(argv)}")
    assert {argv[0] for argv in commands} == {"preorder", "curve", "verify", "simulate", "fit"}


def test_every_numerical_convention_names_an_owner_and_a_test_that_exist():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Numerical conventions\n.*?(?=^## )", text, re.DOTALL | re.MULTILINE)
    lines = section.group(0).splitlines()
    assert len(lines) <= 120, f"Numerical conventions is {len(lines)} lines, over 120"
    rows = [line for line in lines if line.startswith("|")][2:]  # past the header and its rule
    assert rows
    for row in rows:
        match = RULE_ROW.fullmatch(row)
        assert match, f"not a | rule | `owner` | `test` | row: {row}"
        owner, path, name = match.groups()
        module, *attrs = owner.split(".")
        obj = importlib.import_module(f"failsafekit.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), f"owner {owner} does not resolve"
            obj = getattr(obj, attr)
        assert name in _test_functions(path), f"{path}::{name} is not a test function"


def test_every_test_the_readme_names_exists():
    text = README.read_text(encoding="utf-8")
    findings = text.split("## What the audit finds", 1)[1].split("\n## ", 1)[0]
    assert len(NODE_ID.findall(findings)) >= 11  # one per measured number or pair
    for path, name in NODE_ID.findall(text):
        assert name in _test_functions(path), f"{path}::{name} is not a test function"
