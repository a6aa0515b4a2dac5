"""Smoke tests: each experiment script runs end to end on a small input."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,argv,expect", [
    ("policy_demo", ["--n-obs", "200"], "car toll sweep"),
    ("family_comparison", ["--n-obs", "300", "--k", "2", "--threads", "1"], "mnl"),
    ("recovery_study", ["--family", "scobit", "--n-obs", "300", "--reps", "2"],
     "scobit"),
])
def test_script_runs(name, argv, expect, capsys):
    assert load(name).main(argv) == 0
    assert expect in capsys.readouterr().out
