"""The README's code examples run as written; the CLI examples are parsed, not run."""

import re
import shlex
from pathlib import Path

import pytest

from failsafekit import cli

README = Path(__file__).resolve().parents[1] / "README.md"


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
