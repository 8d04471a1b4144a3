"""Smoke tests: every script in scripts/ runs to completion."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_script(script: Path, tmp_path, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    return subprocess.run([sys.executable, str(script), *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_exits_zero(script, tmp_path):
    result = run_script(script, tmp_path)
    assert result.returncode == 0, result.stderr


def test_amplification_sweep_script_writes_five_fields_per_row(tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_script(ROOT / "scripts" / "run_amplification_sweep.py", tmp_path, str(out))
    assert result.returncode == 0, result.stderr
    rows = list(csv.reader(out.open(newline="")))
    assert rows[0] == ["design", "epsilon", "rate_or_maxpi", "eps_effective", "status"]
    assert len(rows) > 1
    assert all(len(row) == 5 for row in rows)
