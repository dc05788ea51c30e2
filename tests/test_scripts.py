"""Smoke runs of the experiment scripts, each on a small instance."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("run_cube_trend.py", ["--sizes", "200", "--labels", "10", "--repeats", "1"], "n,labels,mean_l1_error,sd"),
        ("run_gauss_demo.py", ["--per-cluster", "20"], "position,lex,harmonic,is_label"),
    ],
)
def test_script_writes_its_table(script, args, header, tmp_path):
    out = tmp_path / "out.csv"
    res = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args, "--out", str(out)], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    rows = out.read_text().splitlines()
    assert rows[0] == header and len(rows) > 1
