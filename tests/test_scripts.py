"""The experiment scripts run end to end against the library as it stands."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv,headers", [
    (["reproduce_tables.py"],
     ["linear model, intercept-only five-point sample",
      "method       E(b)     V(b)    E(s2)    V(s2)  iters",
      "bivariate normal, four-observation summary",
      "method     dof      V11      V12      V22   Psi11   Psi12   Psi22"]),
    (["probit_study.py", "--seeds", "2"],
     ["median over 2 seeds:", "     n  |mean diff|  rel cov diff",
      "log-log slope of the mean distance:"]),
])
def test_script_prints_its_tables(argv, headers):
    out = run_script(*argv)
    for header in headers:
        assert header in out


def test_cli_digest_prints_one_line_per_command(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import cli_digest
    commands = cli_digest._commands()
    lines = run_script("cli_digest.py").splitlines()
    assert len(lines) == len(commands)
    for (label, _), line in zip(commands, lines):
        assert re.fullmatch(
            rf"{re.escape(label)} +rc=\d+ out=[0-9a-f]{{16}} err=[0-9a-f]{{16}}",
            line)
