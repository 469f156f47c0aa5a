"""The experiment scripts run end to end against the library as it stands."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_cli_digest_prints_one_line_per_command():
    """One line per row of the case table, under the row's label. The labels
    are unique, or two rows would print lines that a diff of two digests
    cannot tell apart; a row has an exit code exactly when it names the test
    that checks it."""
    import cli_cases
    labels = [case.label for case in cli_cases.CASES]
    assert len(set(labels)) == len(labels)
    assert all((case.rc is None) == (case.test is None)
               for case in cli_cases.CASES)
    lines = run_script("cli_digest.py").splitlines()
    assert len(lines) == len(labels)
    for label, line in zip(labels, lines):
        assert re.fullmatch(
            rf"{re.escape(label)} +rc=\d+ out=[0-9a-f]{{16}} err=[0-9a-f]{{16}}",
            line)


def test_fit_digest_names_each_move(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import fit_digest
    sets = fit_digest.designs(rotate=1, panel=[0, 14], large=False)
    assert [label for label, _, _ in sets] == ["panel 0", "panel 14"]
    a = fit_digest.fit_all(sets)
    assert len(a) == 2 * (5 * 4 + 3)  # gibbs has mc_se, no count or flag
    assert fit_digest.compare(a, a) == [f"{m:8s} identical"
                                        for m in fit_digest.FITS]
    b = dict(a)
    b["panel 14|mp-dm|cov"] = a["panel 14|mp-dm|cov"] + 1e-9
    b["panel 0|mfvb|iterations"] = a["panel 0|mfvb|iterations"] + 1
    for name, digest in (("a", a), ("b", b)):
        np.savez(tmp_path / f"{name}.npz", **digest)
    assert fit_digest.main([str(tmp_path / "a.npz"),
                            str(tmp_path / "b.npz")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "mfvb     identical" in lines
    assert lines[2] == "mp-dm    max move 1e-09 at panel 14 cov"
    it = int(a["panel 0|mfvb|iterations"])
    assert lines[-1] == f"panel 0 mfvb iterations: {it} -> {it + 1}"


def test_fit_digest_measures_gibbs_moves_in_mc_se(monkeypatch):
    """A Gibbs mean that moves is also reported as its largest move over
    the combined Monte Carlo SE; a Gibbs fit that does not move is not."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import fit_digest
    a = {f"panel {j}|gibbs|{field}": np.array(value) for j in (0, 3)
         for field, value in (("mean", [0.5, -1.0]), ("cov", np.eye(2)),
                              ("mc_se", [0.03, 0.04]))}
    b = dict(a)
    b["panel 3|gibbs|mean"] = a["panel 3|gibbs|mean"] + [0.05, -0.1]
    b["panel 3|gibbs|mc_se"] = np.array([0.04, 0.03])
    assert fit_digest.compare(a, b) == [
        "gibbs    max move 0.1 at panel 3 mean",
        "panel 3 gibbs mean: max move 2 combined MC-SE"]
    assert fit_digest.compare(a, a) == ["gibbs    identical"]


def test_fit_digest_lists_every_moved_fit(monkeypatch):
    """Each fit that moved gets one line with its largest move and the
    field where it happens, after the per-method lines; a fit that did not
    move gets none, and a Gibbs fit is listed in MC-SE only."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import fit_digest
    a = {f"panel {j}|{method}|{field}": np.array(value)
         for j in (3, 14, 35) for method in ("laplace", "mp-quad", "gibbs")
         for field, value in (("mean", [0.5, -1.0]), ("cov", np.eye(2)),
                              ("mc_se", [0.03, 0.04]))
         if field != "mc_se" or method == "gibbs"}
    for j in (3, 14, 35):
        a[f"panel {j}|mp-quad|iterations"] = np.array(12)
    b = dict(a)
    b["panel 14|mp-quad|mean"] = a["panel 14|mp-quad|mean"] + [8e-7, 0.0]
    b["panel 14|mp-quad|cov"] = a["panel 14|mp-quad|cov"] + 1e-9
    b["panel 35|mp-quad|cov"] = a["panel 35|mp-quad|cov"] + 7e-10
    b["panel 35|gibbs|mean"] = a["panel 35|gibbs|mean"] + 0.03
    assert fit_digest.compare(a, b) == [
        "laplace  identical",
        "mp-quad  max move 8e-07 at panel 14 mean",
        "gibbs    max move 0.03 at panel 35 mean",
        "panel 14 mp-quad: max move 8e-07 at mean",
        "panel 35 mp-quad: max move 7e-10 at cov",
        "panel 35 gibbs mean: max move 0.707 combined MC-SE"]


def test_fit_digest_digests_the_kernel(monkeypatch, tmp_path, capsys):
    """The digest holds zeta's orders 1..10 and xi's orders 0..2 on fixed
    grids, and the two-file form prints a zeta line and an xi line:
    "identical", or the largest relative move and where it happens."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import fit_digest
    a = fit_digest.kernel()
    assert a["zeta"].shape == (10, fit_digest.ZETA_T.size)
    assert a["xi"].shape == (3, fit_digest.XI_MU.size)
    b = {name: value.copy() for name, value in a.items()}
    b["zeta"][1, fit_digest.ZETA_T == -25.0] *= 1.0 + 1e-9
    for name, digest in (("a", a), ("b", b)):
        np.savez(tmp_path / f"{name}.npz", **digest)
    assert fit_digest.main([str(tmp_path / "a.npz"),
                            str(tmp_path / "b.npz")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "zeta     max relative move 1e-09 at order 2, t = -25.0",
        "xi       identical"]


def test_fit_digest_eps_and_tight_reference(monkeypatch, tmp_path, capsys):
    """--eps sets the fits' eps; --against T lists each fit that lies more
    than 1e-10 farther from T in the second digest than in the first."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import fit_digest
    sets = fit_digest.designs(panel=[0, 14], large=False)
    monkeypatch.setattr(fit_digest, "designs", lambda rotate: sets)
    paths = {name: str(tmp_path / f"{name}.npz") for name in "abt"}
    assert fit_digest.main([paths["a"]]) == 0
    assert fit_digest.main(["--eps", "1e-12", paths["t"]]) == 0
    a, tight = dict(np.load(paths["a"])), dict(np.load(paths["t"]))
    assert fit_digest.KERNEL.keys() <= a.keys()
    loose = fit_digest.fit_all(sets)
    assert all(np.array_equal(a[key], loose[key]) for key in loose)
    assert not np.array_equal(a["panel 0|laplace|mean"],
                              tight["panel 0|laplace|mean"])
    b = dict(a)
    b["panel 14|mp-dm|mean"] = tight["panel 14|mp-dm|mean"] + 1e-3
    b["panel 0|mfvb|cov"] = a["panel 0|mfvb|cov"] + 1e-11  # within slack
    b["panel 0|laplace|mean"] = tight["panel 0|laplace|mean"]  # nearer
    np.savez(paths["b"], **b)
    capsys.readouterr()
    assert fit_digest.main([paths["a"], paths["b"], "--against",
                            paths["t"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    gap = fit_digest._distance(a, tight, "panel 14|mp-dm|")
    assert lines == [f"panel 14 mp-dm: {1e-3:.3g} from the reference "
                     f"against {gap:.3g}",
                     "1 of 12 fits lie more than 1e-10 farther from the "
                     "reference"]
    with pytest.raises(SystemExit):
        fit_digest.main([paths["a"], paths["b"], "--eps", "1e-12"])


def test_fit_digest_covers_the_conjugate_fits(monkeypatch):
    """The conjugate fits save every q field and their counts and flags,
    and a move in any of them is named like a probit move."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import fit_digest
    a = fit_digest.fit_conjugate(fit_digest.conjugate_designs(panel=[3]))
    assert {key.split("|")[1] for key in a} == set(fit_digest.CONJUGATE)
    for key in ("linear 3|lin-exact|beta.dof", "linear 3|lin-mp2|sigma2.shape",
                "mvn 3|mvn-mp|Sigma.scale_matrix", "mvn 3|mvn-mp|wrong_basin",
                "toy 3|toy-mp|block1.cov", "toy 3|toy-mfvb|block2.cov"):
        assert key in a
    b = dict(a)
    b["mvn 3|mvn-mp|mu.scale"] = a["mvn 3|mvn-mp|mu.scale"] + 1e-12
    b["toy 3|toy-mp|block2.cov"] = a["toy 3|toy-mp|block2.cov"] + 1e-12
    b["linear 3|lin-mp1|iterations"] = a["linear 3|lin-mp1|iterations"] + 1
    lines = fit_digest.compare(a, b)
    assert "lin-exact identical" in lines
    assert "toy-mfvb identical" in lines
    assert "mvn-mp   max move 1e-12 at mvn 3 mu.scale" in lines
    assert "toy-mp   max move 1e-12 at toy 3 block2.cov" in lines
    it = int(a["linear 3|lin-mp1|iterations"])
    assert lines[-1] == f"linear 3 lin-mp1 iterations: {it} -> {it + 1}"
