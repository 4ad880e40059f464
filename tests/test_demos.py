"""Each demo's stdout, run in process, against its captured golden file."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("name", ["rate_tour", "eliminate_rates", "covering_curve"])
def test_demo_stdout(name, capsys):
    runpy.run_path(str(ROOT / "demos" / f"{name}.py"), run_name="__main__")
    expected = (ROOT / "tests" / "golden" / f"demo_{name}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
