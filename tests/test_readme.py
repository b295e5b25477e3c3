"""The README's examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str, text: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def test_readme_python_examples_run(tmp_path, monkeypatch):
    # the scenario example is the file the last Python block reads
    text = README.read_text(encoding="utf-8")
    (scenario,) = _blocks("ini", text)
    python = _blocks("python", text)
    assert len(python) == 3
    (tmp_path / "my_scenario.scn").write_text(scenario, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for k, code in enumerate(python):
        exec(compile(code, f"README.md python block {k + 1}", "exec"), namespace)
    assert (tmp_path / "out.csv").exists() and (tmp_path / "out.svg").exists()
