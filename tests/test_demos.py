"""Smoke test: every demo under demos/ imports, runs its main() and prints."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def load_demo(path: Path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(path, capsys, tmp_path, monkeypatch):
    demo = load_demo(path)
    if path.stem == "ego_network":
        # the SNAP edge list is not shipped; the demo explains where to put it
        monkeypatch.setattr(demo, "DATA", str(tmp_path / "facebook_combined.txt"))
    assert demo.main() in (None, 0)
    assert capsys.readouterr().out.strip()
