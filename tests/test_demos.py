"""Smoke test of the demo scripts: each runs to its end in a scratch
directory and writes its artifact there."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script,artifact", [
    ("admissible_region.py", "admissible_region.csv"),
    ("axial_curvature_map.py", "axial_map.txt"),
    ("fit_synthetic_surface.py", "synthetic_mesh.txt"),
    ("solution_envelopes.py", "solution_envelopes.csv"),
])
def test_demo_writes_its_artifact(script, artifact, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert f"wrote {artifact}" in capsys.readouterr().out
    assert (tmp_path / artifact).stat().st_size > 0
