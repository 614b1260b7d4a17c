"""The README's code examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, "README quickstart", "exec"), namespace)
    assert capsys.readouterr().out == "True Relation.X_DOMINATES_Y\n"
    assert namespace["lifetimes"].shape == (200_000, 5)
