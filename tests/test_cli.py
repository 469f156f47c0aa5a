"""End-to-end CLI coverage: fit / compare / generate, exit codes, report
schema, density emission, and init-from round trips."""

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from momprop import cli, datagen, diagnostics
from momprop.cli import main
from momprop.datagen import fixed_linear_dataset
from momprop.linear import LinearData, LinearPrior, linear_exact_posterior
from momprop.probit import ProbitData


def run_cli(args) -> int:
    return main(args)


@pytest.fixture()
def c7_csv(tmp_path):
    path = tmp_path / "c7.csv"
    y, X = fixed_linear_dataset()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "x1"])
        for yi, xi in zip(y, X):
            w.writerow([yi, xi[0]])
    return str(path)


@pytest.fixture()
def d9_json(tmp_path):
    path = tmp_path / "d9.json"
    doc = {"n": 4,
           "xbar": [-0.9724726, 1.3202681],
           "S": [[0.8144316, 0.5688416], [0.5688416, 1.9682059]]}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def probit_csv(tmp_path):
    path = tmp_path / "probit.csv"
    rc = run_cli(["generate", "--model", "probit", "--n", "120", "--p", "3",
                  "--seed", "5", "--out", str(path)])
    assert rc == 0
    return str(path)


def _fit_doc(argv: list[str], path: str, tmp_path) -> dict:
    """The report of `fit argv path`, less its wall time."""
    out = tmp_path / "rep.json"
    assert run_cli(["fit", *argv, path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    del doc["wall_time_s"]
    return doc


class TestFitLinear:
    def test_reference_fit(self, c7_csv, tmp_path):
        out = tmp_path / "rep.json"
        rc = run_cli(["fit", "--model", "linear", "--method", "mp2",
                      "--g", "1e4", "--A", "0.01", "--B", "0.01",
                      "--data", c7_csv, "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["converged"] is True
        m = doc["moments"]
        assert round(m["mean"][0], 3) == 0.908
        assert round(m["cov"][0][0], 2) == 2.44
        assert round(m["scalar_mean"], 1) == 12.2
        assert round(m["scalar_var"], 0) == 293

    def test_pretty_text(self, c7_csv, capsys):
        rc = run_cli(["fit", "--model", "linear", "--method", "mp2",
                      "--data", c7_csv, "--pretty"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == ["model: linear   method: mp2",
                              "converged: True   iterations: 17",
                              "coef   mean        sd",
                              "[0]   0.9079     1.563     ",
                              "scalar mean: 12.22   variance: 292.7"]
        assert lines[-1].startswith("wall time: ")
        assert lines[-1].endswith(" s")

    @pytest.mark.parametrize("x,rounded", [
        (0.0, 0.0), (999.95, 1000.0), (0.00012345, 0.0001234),
        (123456.0, 123500.0), (-2.71828, -2.718), (12.225, 12.22),
        (float("inf"), float("inf"))])
    def test_round_sig(self, x, rounded):
        assert cli._round_sig(x) == rounded

    def test_all_leaf_numbers_finite(self, c7_csv, tmp_path):
        out = tmp_path / "rep.json"
        run_cli(["fit", "--model", "linear", "--method", "mfvb",
                 "--data", c7_csv, "--out", str(out), "--trace"])
        doc = json.loads(out.read_text())

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            elif isinstance(node, float):
                assert np.isfinite(node)

        walk(doc)
        assert "trace" in doc and len(doc["trace"]) == doc["iterations"]

    def test_init_from_round_trip(self, c7_csv, tmp_path):
        first = tmp_path / "first.json"
        run_cli(["fit", "--model", "linear", "--method", "mp1",
                 "--data", c7_csv, "--out", str(first)])
        second = tmp_path / "second.json"
        rc = run_cli(["fit", "--model", "linear", "--method", "mp1",
                      "--data", c7_csv, "--init-from", str(first),
                      "--out", str(second)])
        assert rc == 0
        doc = json.loads(second.read_text())
        assert doc["iterations"] <= 2
        assert doc["converged"] is True

    def test_emit_density(self, c7_csv, tmp_path):
        out = tmp_path / "rep.json"
        dens = tmp_path / "dens.csv"
        rc = run_cli(["fit", "--model", "linear", "--method", "exact",
                      "--data", c7_csv, "--out", str(out),
                      "--emit-density", "sigma2", "--density-out", str(dens)])
        assert rc == 0
        with open(dens) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["point", "value"]
        pts = np.array([float(r[0]) for r in rows[1:]])
        vals = np.array([float(r[1]) for r in rows[1:]])
        assert len(pts) == 4001
        assert 0.99 <= np.trapezoid(vals, pts) <= 1.01

    def test_undefined_sigma2_variance_is_null(self, tmp_path, capsys):
        """A posterior q(sigma2) of shape 1.51 has a mean but no variance:
        the variance is null with a warning, every other moment is kept."""
        data = tmp_path / "three.csv"
        data.write_text("y,x1\n1,2\n3,4\n5,7\n")
        out = tmp_path / "rep.json"
        argv = ["fit", "--model", "linear", "--method", "exact",
                "--data", str(data)]
        assert run_cli(argv + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        ig = doc["q"]["sigma2"]
        assert ig["shape"] == pytest.approx(1.51)
        m = doc["moments"]
        assert m["scalar_mean"] == ig["scale"] / (ig["shape"] - 1.0)
        assert m["scalar_var"] is None
        assert np.all(np.isfinite(m["mean"])) and np.all(np.isfinite(m["cov"]))
        assert doc["warnings"] == [
            "non-finite value at moments.scalar_var replaced by null"]
        assert run_cli(argv + ["--pretty"]) == 0
        assert "variance: None" in capsys.readouterr().out

    def test_utf8_bom_csv_reads_as_without(self, c7_csv, tmp_path):
        """A CSV saved with a UTF-8 byte-order mark, as spreadsheet programs
        save it, gives the report the file without the mark gives."""
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(c7_csv).read_bytes())
        argv = ["--model", "linear", "--method", "mp2", "--data"]
        assert (_fit_doc(argv, str(bom), tmp_path)
                == _fit_doc(argv, c7_csv, tmp_path))

    def test_pretty_with_out(self, c7_csv, tmp_path, capsys):
        """--out takes the JSON report and stdout the summary."""
        out = tmp_path / "rep.json"
        rc = run_cli(["fit", "--model", "linear", "--method", "mp2",
                      "--data", c7_csv, "--out", str(out), "--pretty"])
        assert rc == 0
        assert json.loads(out.read_text())["iterations"] == 17
        assert capsys.readouterr().out.startswith(
            "model: linear   method: mp2\n")


class TestFitMVN:
    def test_summary_input(self, d9_json, tmp_path):
        out = tmp_path / "rep.json"
        rc = run_cli(["fit", "--model", "mvn", "--method", "mfvb",
                      "--summary", d9_json, "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["q"]["Sigma"]["dof"] == pytest.approx(8.0)
        assert round(doc["q"]["mu"]["cov"][0][0], 3) == 0.065

    def test_mp_wrong_basin_field(self, d9_json, tmp_path):
        out = tmp_path / "rep.json"
        run_cli(["fit", "--model", "mvn", "--method", "mp",
                 "--summary", d9_json, "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["wrong_basin"] is False
        assert doc["q"]["Sigma"]["dof"] == pytest.approx(7.0)

    def test_undefined_mu_covariance_is_null(self, tmp_path, capsys):
        """With nu_n = p + 0.5 the inverse-Wishart q(Sigma) has no mean, so
        q(mu), a t of 1.5 dof, has no covariance: the covariance is null
        with a warning per entry, and the mean is kept."""
        data = tmp_path / "one.csv"
        data.write_text("x1,x2\n1,2\n")
        out = tmp_path / "rep.json"
        argv = ["fit", "--model", "mvn", "--method", "exact",
                "--data", str(data), "--nu0", "1.5"]
        assert run_cli(argv + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["q"]["mu"]["dof"] == 1.5
        assert doc["moments"]["mean"] == doc["q"]["mu"]["loc"]
        assert doc["moments"]["cov"] == [[None, None], [None, None]]
        assert doc["warnings"] == [
            f"non-finite value at moments.cov[{i}][{j}] replaced by null"
            for i in range(2) for j in range(2)]
        assert run_cli(argv + ["--pretty"]) == 0
        assert "[1]   1.98       None" in capsys.readouterr().out

    def test_utf8_bom_json_reads_as_without(self, d9_json, tmp_path):
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(d9_json).read_bytes())
        argv = ["--model", "mvn", "--method", "mp", "--summary"]
        assert (_fit_doc(argv, str(bom), tmp_path)
                == _fit_doc(argv, d9_json, tmp_path))

    def test_raw_csv_input(self, tmp_path):
        data = tmp_path / "mvn.csv"
        rc = run_cli(["generate", "--model", "mvn", "--n", "40", "--p", "2",
                      "--seed", "3", "--out", str(data)])
        assert rc == 0
        out = tmp_path / "rep.json"
        rc = run_cli(["fit", "--model", "mvn", "--method", "exact",
                      "--data", str(data), "--out", str(out)])
        assert rc == 0


class TestFitProbit:
    def test_cli_matches_library_bit_for_bit(self, probit_csv, tmp_path):
        out = tmp_path / "rep.json"
        rc = run_cli(["fit", "--model", "probit", "--method", "mp-dm",
                      "--lambda", "0.01", "--data", probit_csv,
                      "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())

        # same computation through the library
        from momprop.probit import ProbitData, ProbitPrior, probit_mp_fit
        header, rows = None, []
        with open(probit_csv) as fh:
            r = csv.reader(fh)
            header = next(r)
            rows = [[float(v) for v in row] for row in r]
        arr = np.array(rows)
        y = arr[:, header.index("y")]
        X = np.delete(arr, header.index("y"), axis=1)
        rep = probit_mp_fit(ProbitData(y, X), ProbitPrior.ridge(0.01, 3))
        assert doc["q"]["beta"]["mean"] == rep.params["beta"].mean.tolist()
        assert doc["q"]["beta"]["cov"] == rep.params["beta"].cov.tolist()
        assert doc["iterations"] == rep.iterations

    def test_intercept_prepends_a_column_of_ones(self, tmp_path):
        data = tmp_path / "p.csv"
        run_cli(["generate", "--model", "probit", "--n", "80", "--p", "2",
                 "--seed", "2", "--no-intercept", "--out", str(data)])
        out = tmp_path / "rep.json"
        rc = run_cli(["fit", "--model", "probit", "--method", "mfvb",
                      "--data", str(data), "--intercept", "--out", str(out)])
        assert rc == 0
        from momprop.probit import ProbitData, ProbitPrior, probit_mfvb_fit
        arr = np.loadtxt(data, delimiter=",", skiprows=1)
        X = np.column_stack([np.ones(len(arr)), arr[:, 1:]])
        rep = probit_mfvb_fit(ProbitData(arr[:, 0], X),
                              ProbitPrior.ridge(0.01, 3))
        mean = json.loads(out.read_text())["q"]["beta"]["mean"]
        assert mean == rep.params["beta"].mean.tolist()


# id -> (CSV text, True where np.loadtxt reads it, False where the row
# parser does)
CSV_CASES = {
    "blank-line": ("y,x1\n1,2\n\n3,4\n", False),
    "blank-first-row": ("y,x1\n\n1,2\n", False),
    "trailing-blank-line": ("y,x1\n1,2\n3,4\n\n", False),
    "hash-cell": ("y,x1\n1,#\n", False),
    "quoted-number": ('y,x1\n1,"2.5"\n', False),
    "crlf": ("y,x1\r\n1,2\r\n3,4\r\n", True),
    "no-final-newline": ("y,x1\n1,2\n3,4", True),
    "one-data-row": ("y,x1\n1,2.5\n", True),
    "one-column": ("y\n1\n0\n1\n", True),
    "padded-cells": ("y , x1\n 1 , 2.5\t\n0,\t-3e-2 \n", True),
    "nan-inf-cells": ("y,x1,x2\nnan,inf,-inf\nNaN,Infinity,-INF\n", True),
    "underscore": ("y,x1\n1_000,2\n", False),
    "ragged-row": ("y,x1\n1,2\n3\n", False),
    "every-row-too-wide": ("y,x1\n1,2,3\n4,5,6\n", False),
    "header-only": ("y,x1\n", False),
    "empty-file": ("", False),
    "whitespace-line": ("y,x1\n1,2\n  \t\n3,4\n", False),
    "cr-line-ends": ("y,x1\r1,2\r3,4\r", True),
    "cr-one-data-row": ("y,x1\r1,2\r", True),
    "cr-blank-line": ("y,x1\r1,2\r\r3,4\r", False),
    "cr-whitespace-line": ("y,x1\r1,2\r \t\r3,4\r", False),
    "cr-crlf-mixed": ("y,x1\r\n1,2\r3,4\n5,6\r\n", True),
    "header-cell-spans-lines": ('y,"x\n1"\n1,2\n3,4\n', True),
    "bom-crlf": ("\ufeffy,x1\r\n1,2\r\n3,4\r\n", True),
}


class TestLoadRegression:
    @pytest.mark.parametrize("intercept", [False, True])
    @pytest.mark.parametrize("yi", [0, 2, 4])
    def test_places_columns_as_delete_and_column_stack(self, tmp_path, yi,
                                                       intercept):
        """y as the first, a middle and the last column: X and y are, bit
        for bit, np.delete of the table (after a column of ones with
        --intercept) and its y column."""
        table = np.random.default_rng(yi).standard_normal((7, 5))
        table[:, yi] = [0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0]
        table[1, 1] = -0.0  # column 1 is never y
        header = [f"x{j}" for j in range(4)]
        header.insert(yi, "y")
        path = tmp_path / "t.csv"
        path.write_text(",".join(header) + "\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in table))
        args = argparse.Namespace(model="linear", data=str(path),
                                  intercept=intercept)
        y, X = cli._load_regression(args, lambda y, X: (y, X))
        want = np.delete(table, yi, axis=1)
        if intercept:
            want = np.column_stack([np.ones(7), want])
        assert X.tobytes() == want.tobytes() and X.shape == want.shape
        assert y.tobytes() == table[:, yi].tobytes()

    @pytest.mark.parametrize("intercept", [False, True])
    def test_probit_data_holds_one_design_array(self, tmp_path, intercept):
        """Loading a 20,000 x 6 probit CSV through the probit model's loader
        peaks below one n x p array, two n-vectors and one chunk of
        cli._CSV_CHUNK parsed rows: the rows are parsed into the design,
        which is signed into Z in place. Afterwards only Z and y are held,
        and Z is column-major."""
        path = tmp_path / "probit.csv"
        assert run_cli(["generate", "--model", "probit", "--n", "20000",
                        "--p", "5", "--seed", "1", "--out", str(path)]) == 0
        args = argparse.Namespace(model="probit", data=str(path),
                                  intercept=intercept)
        tracemalloc.start()
        try:
            data = cli.MODELS["probit"].load(args)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n, p = data.Z.shape
        chunk = cli._CSV_CHUNK * (6 * 8)
        assert (n, p) == (20_000, 5 + intercept)
        assert peak < data.Z.nbytes + 2 * data.y.nbytes + chunk
        assert held < data.Z.nbytes + 2 * data.y.nbytes
        assert [k for k, v in vars(data).items()
                if isinstance(v, np.ndarray) and v.ndim == 2] == ["Z"]
        assert data.Z.flags.f_contiguous

    @staticmethod
    def _whole_file(path, fast: bool) -> tuple[list[str], np.ndarray] | str:
        """The header and one np.loadtxt call over all of path's data lines
        where fast, else the row parser's table or error."""
        if fast:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                header = next(csv.reader(fh))
                return [h.strip() for h in header], np.loadtxt(
                    (line for line in fh), delimiter=",", ndmin=2,
                    comments=None, encoding="utf-8")
        try:
            return cli._parse_csv_rows(str(path))
        except cli.InputError as exc:
            return str(exc)

    def _assert_loads_whole_file(self, path, fast: bool, order: str) -> None:
        """y and X from the regression loader, --intercept, in the given
        memory order: bit for bit the y column and the others after a
        column of ones of _whole_file's table, or its error."""
        args = argparse.Namespace(model="probit", data=str(path),
                                  intercept=True)
        want = self._whole_file(path, fast)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                y, X = cli._load_regression(args, lambda y, X: (y, X), order)
        except cli.InputError as exc:
            assert str(exc) == want
            return
        header, table = want
        yi = header.index("y")
        want_x = np.column_stack([np.ones(len(table)),
                                  np.delete(table, yi, axis=1)])
        assert X.shape == want_x.shape and y.shape == (len(table),)
        assert X.tobytes("A") == np.asarray(want_x, order=order).tobytes("A")
        assert y.tobytes() == table[:, yi].tobytes()

    @pytest.mark.parametrize("chunk", [2, 4096])
    @pytest.mark.parametrize("text,fast", CSV_CASES.values(),
                             ids=CSV_CASES.keys())
    def test_loader_reads_what_one_loadtxt_call_reads(
            self, tmp_path, monkeypatch, text, fast, chunk):
        """On every CSV_CASES text, parsed two rows at a time and in one
        chunk, the loader's y and X are one whole-file np.loadtxt call's
        columns, bit for bit, where that call reads the file, and the row
        parser's table or error elsewhere."""
        monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        self._assert_loads_whole_file(path, fast, "F")

    @pytest.mark.parametrize("bom,final_newline", [(False, False),
                                                   (True, True)],
                             ids=["no-final-newline", "bom"])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_loader_reads_chunks_of_a_long_file(self, tmp_path, bom,
                                                final_newline, order):
        """A 9,000-row file, three chunks with y as its middle column, with
        no final newline or after a byte-order mark: y and X are one
        whole-file np.loadtxt call's columns, bit for bit."""
        rng = np.random.default_rng(4)
        table = rng.standard_normal((9_000, 4)) * 10.0 ** rng.integers(
            -300, 300, (9_000, 4))
        table[:, 2] = rng.integers(0, 2, 9_000)
        text = "x1,x2,y,x3\r\n" + "\r\n".join(
            ",".join(map(repr, row)) for row in table.tolist())
        path = tmp_path / "long.csv"
        path.write_bytes(("\ufeff" * bom + text
                          + "\r\n" * final_newline).encode())
        self._assert_loads_whole_file(path, True, order)
        assert self._whole_file(path, True)[1].tobytes() == table.tobytes()

    def test_probit_loader_reads_the_library_bits(self, probit_csv):
        """The CLI's in-place signing gives the Z, y and X that ProbitData
        builds from the same table."""
        args = argparse.Namespace(model="probit", data=probit_csv,
                                  intercept=True)
        data = cli.MODELS["probit"].load(args)
        y, X = cli._load_regression(args, lambda y, X: (y, X))
        ref = ProbitData(y, X)
        assert data.Z.flags.f_contiguous
        assert data.Z.tobytes("A") == ref.Z.tobytes("A")
        assert data.y.tobytes() == y.tobytes()
        assert data.X.tobytes() == X.tobytes()


class TestInitFromRoundTrips:
    def test_mvn_mp_round_trip(self, d9_json, tmp_path):
        first = tmp_path / "first.json"
        run_cli(["fit", "--model", "mvn", "--method", "mp",
                 "--summary", d9_json, "--out", str(first)])
        second = tmp_path / "second.json"
        rc = run_cli(["fit", "--model", "mvn", "--method", "mp",
                      "--summary", d9_json, "--init-from", str(first),
                      "--out", str(second)])
        assert rc == 0
        doc = json.loads(second.read_text())
        assert doc["iterations"] <= 2 and doc["converged"] is True

    def test_probit_mp_round_trip(self, probit_csv, tmp_path):
        first = tmp_path / "first.json"
        run_cli(["fit", "--model", "probit", "--method", "mp-dm",
                 "--data", probit_csv, "--out", str(first)])
        second = tmp_path / "second.json"
        rc = run_cli(["fit", "--model", "probit", "--method", "mp-dm",
                      "--data", probit_csv, "--init-from", str(first),
                      "--out", str(second)])
        assert rc == 0
        doc = json.loads(second.read_text())
        assert doc["iterations"] <= 2 and doc["converged"] is True

    @pytest.mark.parametrize("model,method", [
        ("linear", "mfvb"), ("linear", "mp1"), ("linear", "mp2"),
        ("mvn", "mfvb"), ("mvn", "mp"), ("probit", "laplace"),
        ("probit", "mfvb"), ("probit", "mp-dm"), ("probit", "mp-quad"),
        ("probit", "dmvb")])
    def test_restart_from_its_own_report_takes_two_maps(
            self, c7_csv, d9_json, probit_csv, tmp_path, model, method):
        """--init-from builds the block a fit starts from back from the
        report, so the restart stops at the second map, within 10 eps."""
        data = {"linear": ["--data", c7_csv], "mvn": ["--summary", d9_json],
                "probit": ["--data", probit_csv]}[model]
        fit = ["fit", "--model", model, "--method", method, *data, "--trace"]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert run_cli(fit + ["--out", str(first)]) == 0
        assert run_cli(fit + ["--init-from", str(first),
                              "--out", str(second)]) == 0
        a, b = (json.loads(path.read_text()) for path in (first, second))
        assert a["converged"] and b["converged"] and b["iterations"] == 2
        gap = np.subtract(b["trace"][-1], a["trace"][-1])
        assert np.max(np.abs(gap)) <= 1e-5


class TestToyModel:
    def test_fit_toy(self, tmp_path):
        spec = tmp_path / "toy.json"
        spec.write_text(json.dumps({"mu": [0.0, 0.0],
                                    "Sigma": [[1.0, 0.9], [0.9, 1.0]],
                                    "split": 1}))
        out = tmp_path / "rep.json"
        rc = run_cli(["fit", "--model", "toy", "--method", "mp",
                      "--summary", str(spec), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["q"]["block1"]["cov"][0][0] == pytest.approx(1.0,
                                                                abs=1e-8)
        rc = run_cli(["fit", "--model", "toy", "--method", "mfvb",
                      "--summary", str(spec), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["q"]["block1"]["cov"][0][0] == pytest.approx(0.19,
                                                                rel=1e-9)

    def test_mfvb_does_not_run_the_mp_iteration(self, tmp_path, capsys):
        """At correlation 0.9999 MP needs more than its 10,000 sweeps; the
        mean-field blocks are the conditional variances 1 - 0.9999^2."""
        spec = tmp_path / "toy.json"
        spec.write_text(json.dumps({"mu": [0.0, 0.0],
                                    "Sigma": [[1.0, 0.9999], [0.9999, 1.0]],
                                    "split": 1}))
        out = tmp_path / "rep.json"
        fit = ["fit", "--model", "toy", "--summary", str(spec)]
        assert run_cli(fit + ["--method", "mfvb", "--out", str(out)]) == 0
        q = json.loads(out.read_text())["q"]
        assert q["block1"]["cov"] == q["block2"]["cov"] == [
            [pytest.approx(1 - 0.9999**2, rel=1e-12)]]
        capsys.readouterr()
        assert run_cli(fit + ["--method", "mp"]) == 4
        assert capsys.readouterr().err == (
            "numeric failure: toy MP iteration did not converge\n")


# What a report may hold: Python and numpy scalars, float edge cases,
# non-ASCII text, and 0-d to 2-d float and int arrays, nested in dicts,
# lists and tuples.
_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, 1e16, float("nan"), float("inf"), float("-inf")]))
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)
REPORT_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), _FLOATS, st.text(),
        st.booleans().map(np.bool_), _FLOATS.map(np.float64),
        st.integers(-2**63, 2**63 - 1).map(np.int64),
        hnp.arrays(np.float64, _SHAPES, elements=_FLOATS),
        hnp.arrays(np.float32, _SHAPES, elements=st.floats(width=32)),
        hnp.arrays(np.int64, _SHAPES)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12)


class TestEncode:
    def test_nonfinite_becomes_null_with_a_warning(self):
        doc = {"a": np.array([[1.5, np.nan], [np.inf, -2.0]]),
               "b": [0.25, [np.float64(-np.inf), 2]],
               "x": float("nan"), "i": np.int64(3), "t": np.bool_(True),
               "n": np.arange(3), "z": None, "s": "text"}
        out = cli._encode(doc)
        expected = {"a": [[1.5, None], [None, -2.0]],
                    "b": [0.25, [None, 2]], "x": None, "i": 3, "t": True,
                    "n": [0, 1, 2], "z": None, "s": "text",
                    "warnings": [
                        f"non-finite value at {path} replaced by null"
                        for path in ("a[0][1]", "a[1][0]", "b[1][0]", "x")]}
        assert out == expected
        # == does not tell 3 from 3.0 or True from 1; the JSON text does
        assert json.dumps(out) == json.dumps(expected)
        assert type(out["i"]) is int and type(out["t"]) is bool
        assert all(type(v) is int for v in out["n"])

    @given(st.dictionaries(st.text(), REPORT_VALUES, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_stream_is_json_dumps(self, tmp_path_factory, doc):
        """The streamed report, into a file and onto stdout, has the bytes
        and the warnings that json.dumps(indent=2) of the list-only
        encoding gives."""
        want_warnings: list[str] = []
        want = _jsonify_lists(doc, want_warnings)
        if want_warnings:
            want["warnings"] = want_warnings
        want = json.dumps(want, indent=2) + "\n"
        got = cli._encode(doc)
        assert got.get("warnings", []) == want_warnings
        path = tmp_path_factory.getbasetemp() / "streamed.json"
        cli._write_report(got, str(path), pretty=False)
        assert path.read_bytes() == want.encode()
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            cli._write_report(got, None, pretty=False)
        assert stdout.getvalue() == want

    def test_stream_holds_no_copy_of_the_report(self, tmp_path):
        """Encoding and writing a report with a 10 x 20,000 float trace
        peaks below half the bytes written: no list of its floats and no
        whole-report string is built."""
        trace = list(np.random.default_rng(0).standard_normal((10, 20_000)))
        out = tmp_path / "rep.json"
        peak = _traced_write({"schema": 1, "trace": trace}, out)
        assert peak < out.stat().st_size / 2

    def test_stream_writes_a_long_row_in_pieces(self, tmp_path):
        """Writing a report with a 200,000-float row peaks below a quarter
        of the bytes written, which are json.dumps(indent=2)'s across the
        seams of the pieces the row is written in."""
        row = np.random.default_rng(1).standard_normal(200_000)
        out = tmp_path / "rep.json"
        peak = _traced_write({"schema": 1, "row": row}, out)
        assert peak < out.stat().st_size / 4
        want = json.dumps({"schema": 1, "row": row.tolist()}, indent=2)
        assert out.read_text() == want + "\n"


def _traced_write(doc: dict, out) -> int:
    """The tracemalloc peak of encoding doc and writing it into out."""
    tracemalloc.start()
    try:
        cli._write_report(cli._encode(doc), str(out), pretty=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_closed_stdout_is_io_error(argv: list[str], lines: int) -> None:
    """`momprop argv` exits 3 with one error line and no traceback when its
    reader closes stdout after reading the given number of lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parent.parent / "src"),
        env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from momprop.cli import main; sys.exit(main())", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 3
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err and "Exception" not in err


def _jsonify_lists(obj, warnings: list[str], path: str = ""):
    """The report encoding with every array turned into its list: the
    reference that the streamed writer must reproduce byte for byte."""
    if isinstance(obj, dict):
        return {k: _jsonify_lists(v, warnings, f"{path}.{k}" if path else k)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify_lists(v, warnings, f"{path}[{i}]")
                for i, v in enumerate(obj)]
    arr = np.asarray(obj)
    if arr.dtype.kind != "f":
        return arr.tolist()
    bad = ~np.isfinite(arr)
    for idx in np.argwhere(bad):
        where = "".join(f"[{i}]" for i in idx)
        warnings.append(f"non-finite value at {path}{where} replaced by null")
    return (np.where(bad, None, arr) if bad.any() else arr).tolist()


NAN = float("nan")
INF = float("inf")
I2 = [[1.0, 0.0], [0.0, 1.0]]
I3 = np.eye(3).tolist()
PROBIT_ROWS = "y,x1,x2\n1,1.0,0.3\n0,1.0,-0.8\n1,1.0,{}\n0,1.0,0.1\n"
PROBIT_FITS = {
    "fit-mfvb": ["fit", "--model", "probit", "--method", "mfvb"],
    "fit-mp-dm": ["fit", "--model", "probit", "--method", "mp-dm"],
    "fit-mp-quad": ["fit", "--model", "probit", "--method", "mp-quad"],
    "compare": ["compare", "--model", "probit", "--methods", "mfvb,mp-dm"],
}

FINITE = "must be finite"
# id -> (argv with FILE for the input, C7 for the five-point CSV, PROBIT
# for a probit CSV (p = 3), D9 for a bivariate MVN summary and MISSING for
# a path in a missing directory, the input's content: text for a CSV,
# anything else written as JSON, exit code, a fragment of the message,
# FILE or MISSING for that path)
BAD_INPUTS = {
    **{f"probit-{cell}-{name}": (argv + ["--data", "FILE"],
                                 PROBIT_ROWS.format(cell), 2, FINITE)
       for cell in ("inf", "nan") for name, argv in PROBIT_FITS.items()},
    "linear-nan-y": (
        ["fit", "--model", "linear", "--method", "mfvb", "--data", "FILE"],
        "y,x1\nnan,1\n1.08,1\n-2.14,1\n", 2, FINITE),
    "mvn-raw-nan": (
        ["fit", "--model", "mvn", "--method", "exact", "--data", "FILE"],
        "x1,x2\n0.1,nan\n0.5,0.2\n-0.3,0.9\n", 2, FINITE),
    "toy-nan-mu": (
        ["fit", "--model", "toy", "--method", "mp", "--summary", "FILE"],
        {"mu": [NAN, 0.0], "Sigma": I2, "split": 1}, 2, FINITE),
    "toy-nan-Sigma": (
        ["fit", "--model", "toy", "--method", "mp", "--summary", "FILE"],
        {"mu": [0.0, 0.0], "Sigma": [[NAN, 0.0], [0.0, 1.0]], "split": 1}, 2,
        FINITE),
    "mvn-summary-n-fraction": (
        ["fit", "--model", "mvn", "--method", "exact", "--summary", "FILE"],
        {"n": 4.7, "xbar": [0.0, 0.0], "S": I2}, 2,
        "n must be a whole number"),
    "toy-split-fraction": (
        ["fit", "--model", "toy", "--method", "mp", "--summary", "FILE"],
        {"mu": [0.0, 0.0], "Sigma": I2, "split": 1.6}, 2,
        "split must be a whole number"),
    "init-from-nan-linear": (
        ["fit", "--model", "linear", "--method", "mp2", "--data", "C7",
         "--init-from", "FILE"],
        {"q": {"sigma2": {"family": "inverse_gamma", "shape": NAN,
                          "scale": 1.0}}}, 2,
        "--init-from q.sigma2 must be finite"),
    "init-from-inf-probit": (
        ["fit", "--model", "probit", "--method", "mp-dm", "--data", "PROBIT",
         "--init-from", "FILE"],
        {"q": {"beta": {"family": "gaussian", "mean": [INF, 0.0, 0.0]}}}, 2,
        "--init-from q.beta must be finite"),
    "gibbs-negative-warmup": (
        ["fit", "--model", "probit", "--method", "gibbs", "--data", "PROBIT",
         "--n-samples", "1000", "--n-warmup", "-5"], "", 2,
        "n_warmup must be non-negative"),
    "generate-negative-seed": (
        ["generate", "--model", "probit", "--n", "20", "--p", "2", "--seed",
         "-1", "--out", "FILE"], "", 2, "seed must be non-negative"),
    "gibbs-negative-seed": (
        ["fit", "--model", "probit", "--method", "gibbs", "--data", "PROBIT",
         "--n-samples", "1000", "--seed", "-1"], "", 2,
        "seed must be non-negative"),
    "mvn-summary-n-string": (
        ["fit", "--model", "mvn", "--method", "mp", "--summary", "FILE"],
        {"n": "abc", "xbar": [0.0, 0.0], "S": I2}, 3, "FILE"),
    "mvn-summary-xbar-string": (
        ["fit", "--model", "mvn", "--method", "mp", "--summary", "FILE"],
        {"n": 4, "xbar": "zz", "S": I2}, 3, "FILE"),
    "mvn-summary-ragged-S": (
        ["fit", "--model", "mvn", "--method", "mp", "--summary", "FILE"],
        {"n": 4, "xbar": [0.0, 0.0], "S": [[1.0, 0.0], [0.0]]}, 3, "FILE"),
    "toy-split-string": (
        ["fit", "--model", "toy", "--method", "mp", "--summary", "FILE"],
        {"mu": [0.0, 0.0], "Sigma": I2, "split": "x"}, 3, "FILE"),
    "init-from-missing-key": (
        ["fit", "--model", "linear", "--method", "mp2", "--data", "C7",
         "--init-from", "FILE"], {"q": {"sigma2": {"shape": 3}}}, 3, "FILE"),
    "init-from-shape-one-linear-mp1": (
        ["fit", "--model", "linear", "--method", "mp1", "--data", "C7",
         "--init-from", "FILE"],
        {"q": {"sigma2": {"family": "inverse_gamma", "shape": 1.0,
                          "scale": 1.0}}}, 2, "shape > 1"),
    **{f"init-from-shape-zero-linear-{method}": (
        ["fit", "--model", "linear", "--method", method, "--data", "C7",
         "--init-from", "FILE"],
        {"q": {"sigma2": {"family": "inverse_gamma", "shape": 0.0,
                          "scale": 1.0}}}, 2,
        "inverse-gamma shape and scale must be positive")
       for method in ("mfvb", "mp2")},
    "init-from-toy": (
        ["fit", "--model", "toy", "--method", "mp", "--summary", "FILE",
         "--init-from", "FILE"],
        {"mu": [0.0, 0.0], "Sigma": I2, "split": 1}, 2,
        "fit --model toy does not read --init-from"),
    "density-out-missing-dir": (
        ["fit", "--model", "mvn", "--method", "exact", "--summary", "FILE",
         "--emit-density", "mu0", "--density-out", "MISSING"],
        {"n": 4, "xbar": [0.0, 0.0], "S": I2}, 3, "MISSING"),
    "init-from-list": (
        ["fit", "--model", "linear", "--method", "mp2", "--data", "C7",
         "--init-from", "FILE"], [1, 2], 3, "FILE"),
    **{f"csv-not-utf8-{where}": (
        ["fit", "--model", "linear", "--method", "mfvb", "--data", "FILE"],
        raw, 3, "FILE")
       for where, raw in (("header", b"y,\xffx1\n1,2\n"),
                          ("row", b"y,x1\n1,\xff\n"))},
    "json-not-utf8": (
        ["fit", "--model", "mvn", "--method", "exact", "--summary", "FILE"],
        b'{"n": "\xff"}', 3, "FILE"),
    "generate-out-missing-dir": (
        ["generate", "--model", "mvn", "--out", "MISSING"], "", 3, "MISSING"),
    "fit-out-missing-dir": (
        ["fit", "--model", "linear", "--method", "mp2", "--data", "C7",
         "--out", "MISSING"], "", 3, "MISSING"),
    "density-unknown-name": (
        ["fit", "--model", "linear", "--method", "exact", "--data", "C7",
         "--emit-density", "nope", "--density-out", "MISSING"], "", 2,
        "available: beta0, sigma2"),
    # the grid and the report would share stdout
    "emit-density-without-density-out": (
        ["fit", "--model", "linear", "--method", "exact", "--data", "C7",
         "--emit-density", "beta0"], "", 2,
        "--emit-density needs --density-out"),
    "density-toy": (
        ["fit", "--model", "toy", "--method", "mp", "--summary", "FILE",
         "--emit-density", "block10"],
        {"mu": [0.0, 0.0], "Sigma": I2, "split": 1}, 2,
        "fit --model toy does not read --emit-density"),
    # a p = 3 CSV beside a p = 2 summary: neither is dropped in silence
    "mvn-data-and-summary": (
        ["fit", "--model", "mvn", "--method", "exact", "--data", "FILE",
         "--summary", "D9"], "x1,x2,x3\n0.1,0.2,0.3\n0.5,-0.2,0.9\n", 2,
        "mvn reads --data or --summary, not both"),
    "density-out-without-emit-density": (
        ["fit", "--model", "linear", "--method", "exact", "--data", "C7",
         "--density-out", "MISSING"], "", 2,
        "fit --model linear does not read --density-out"),
    "csv-no-y": (
        ["fit", "--model", "linear", "--method", "mfvb", "--data", "FILE"],
        "a,b\n1.0,2.0\n3.0,4.0\n", 3, "header must contain a 'y' column"),
    "csv-y-only": (
        ["fit", "--model", "linear", "--method", "mfvb", "--data", "FILE"],
        "y\n1.0\n2.0\n", 3, "no predictor columns"),
    "mvn-summary-invalid-json": (
        ["fit", "--model", "mvn", "--method", "exact", "--summary", "FILE"],
        "{", 3, "invalid JSON"),
    "init-from-no-q-block": (
        ["fit", "--model", "linear", "--method", "mp2", "--data", "C7",
         "--init-from", "FILE"], {"q": {}}, 3, "lacks q.sigma2"),
    "init-from-family-mismatch": (
        ["fit", "--model", "probit", "--method", "mp-dm", "--data", "PROBIT",
         "--init-from", "FILE"],
        {"q": {"beta": {"family": "student_t", "loc": [0.0, 0.0, 0.0],
                        "scale": I3, "dof": 5.0}}}, 3,
        "--init-from q.beta has family 'student_t', not gaussian or "
        "empirical"),
    **{f"init-from-wrong-dimension-probit-{method}": (
        ["fit", "--model", "probit", "--method", method, "--data", "PROBIT",
         "--init-from", "FILE"],
        {"q": {"beta": {"family": "gaussian", "mean": [0.0, 0.0],
                        "cov": I2}}}, 2,
        "init mean has shape (2,); the data needs (3,)")
       for method in ("laplace", "mfvb", "mp-dm", "mp-quad", "dmvb")},
    **{f"init-from-wrong-dimension-mvn-{method}": (
        ["fit", "--model", "mvn", "--method", method, "--summary", "D9",
         "--init-from", "FILE"],
        {"q": {"Sigma": {"family": "inverse_wishart", "scale_matrix": I3,
                         "dof": 7.0}}}, 2,
        "init scale matrix has shape (3, 3); the data needs (2, 2)")
       for method in ("mfvb", "mp")},
    **{f"mvn-psi0-scale-nan-{method}": (
        ["fit", "--model", "mvn", "--method", method, "--summary", "FILE",
         "--psi0-scale", "nan"],
        {"n": 4, "xbar": [0.0, 0.0], "S": I2}, 2, "Psi0 must be finite")
       for method in ("exact", "mp")},
    **{f"generate-{model}-short-beta": (
        ["generate", "--model", model, "--p", "3", "--beta", "1,2",
         "--out", "FILE"], "", 2, "beta has shape (2,); p = 3 needs (3,)")
       for model in ("linear", "probit")},
    "generate-probit-nan-beta": (
        ["generate", "--model", "probit", "--beta", "nan,1", "--out",
         "FILE"], "", 2, "beta must be finite"),
    "generate-linear-nan-sigma": (
        ["generate", "--model", "linear", "--sigma", "nan", "--out", "FILE"],
        "", 2, "generated y must be finite"),
    "generate-linear-negative-sigma": (
        ["generate", "--model", "linear", "--sigma", "-1", "--out", "FILE"],
        "", 2, "sigma must be non-negative"),
    # a flag the model does not read
    **{f"generate-{model}-unread-{flag[2:]}": (
        ["generate", "--model", model, flag, *value, "--out", "FILE"], "", 2,
        f"generate --model {model} does not read {flag}")
       for model, flag, value in (("probit", "--fixed", []),
                                  ("mvn", "--beta", ["1,2"]),
                                  ("probit", "--sigma", ["3"]),
                                  ("linear", "--no-intercept", []))},
    # the fixed five-point set reads none of the flags that shape a draw
    **{f"generate-linear-fixed-unread-{flag[2:]}": (
        ["generate", "--model", "linear", "--fixed", flag, value, "--out",
         "FILE"], "", 2,
        f"generate --model linear --fixed does not read {flag}")
       for flag, value in (("--n", "50"), ("--p", "4"), ("--seed", "3"),
                           ("--beta", "1,2,3,4"), ("--sigma", "9"))},
    **{f"generate-{model}-overflow": (
        ["generate", "--model", model, "--beta", "1e308,1e308", "--out",
         "FILE"], "", 2, f"generated {column} must be finite")
       for model, column in (("linear", "y"), ("probit", "X beta"))},
    # past the csv module's field limit (131,072), json's nesting depth and
    # int's 4,300-digit conversion limit
    **{f"csv-long-{where}": (
        ["fit", "--model", "linear", "--method", "mfvb", "--data", "FILE"],
        text, 3, "FILE")
       for where, text in (("cell", "y,x1\n1," + "a" * 200_000 + "\n"),
                           ("header", "y," + "x" * 200_000 + "\n1,2\n"))},
    **{f"json-deep-{flag}": (argv + [f"--{flag}", "FILE"],
                             "[" * 100_000 + "]" * 100_000, 3, "FILE")
       for flag, argv in (
           ("summary", ["fit", "--model", "mvn", "--method", "exact"]),
           ("init-from", ["fit", "--model", "linear", "--method", "mp2",
                          "--data", "C7"]))},
    "json-long-integer-summary": (
        ["fit", "--model", "mvn", "--method", "exact", "--summary", "FILE"],
        '{"n": ' + "1" * 5_000 + "}", 3, "FILE"),
    "init-from-iw-dof-half-mvn-mfvb": (
        ["fit", "--model", "mvn", "--method", "mfvb", "--summary", "D9",
         "--init-from", "FILE"],
        {"q": {"Sigma": {"family": "inverse_wishart", "scale_matrix": I2,
                         "dof": 0.5}}}, 2,
        "inverse-Wishart dof must be finite and exceed p - 1"),
}


class TestErrors:
    @pytest.mark.parametrize("argv,content,rc,fragment", BAD_INPUTS.values(),
                             ids=BAD_INPUTS.keys())
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_bad_input_is_typed_error(self, c7_csv, probit_csv, d9_json,
                                      tmp_path, capsys, argv, content, rc,
                                      fragment):
        """Out-of-domain input is a domain error (exit 2) and malformed JSON
        an input error naming the file (exit 3), never a traceback."""
        path = tmp_path / "input"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content if isinstance(content, str)
                            else json.dumps(content))
        names = {"FILE": str(path), "C7": c7_csv, "PROBIT": probit_csv,
                 "D9": d9_json,
                 "MISSING": str(tmp_path / "missing" / "density.csv")}
        assert run_cli([names.get(a, a) for a in argv]) == rc
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert names.get(fragment, fragment) in err

    @pytest.mark.parametrize("density", [False, True],
                             ids=["report", "density"])
    def test_closed_stdout_is_io_error(self, d9_json, tmp_path, density):
        """A reader that stops early, as `momprop fit ... | head -1` does,
        gets exit 3 and one error line, with no traceback at any flush; the
        whole report sits in the buffer flushed at exit, also after a
        density grid went to its file."""
        extra = ["--emit-density", "mu0", "--density-out",
                 str(tmp_path / "dens.csv")] if density else []
        _assert_closed_stdout_is_io_error(
            ["fit", "--model", "mvn", "--method", "exact",
             "--summary", d9_json, *extra], 0)

    def test_closed_stdout_mid_report_is_io_error(self, tmp_path):
        """The same while the report is being streamed: with --trace it
        takes 1.8 MB, far more than the pipe holds."""
        data = tmp_path / "probit.csv"
        assert run_cli(["generate", "--model", "probit", "--n", "4000",
                        "--p", "3", "--seed", "2", "--out", str(data)]) == 0
        _assert_closed_stdout_is_io_error(
            ["fit", "--model", "probit", "--method", "mp-dm", "--trace",
             "--data", str(data)], 1)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("model,method,flag,name", [
        ("linear", "mp1", "--g", "g"), ("linear", "mfvb", "--A", "A"),
        ("linear", "mfvb", "--B", "B"), ("mvn", "mp", "--lambda0", "lambda0"),
        ("mvn", "exact", "--nu0", "nu0"),
        ("probit", "laplace", "--lambda", "lambda"),
    ])
    def test_nonfinite_prior_hyperparameter_is_named(
            self, c7_csv, d9_json, probit_csv, capsys, model, method, flag,
            name, value):
        data = {"linear": ["--data", c7_csv], "mvn": ["--summary", d9_json],
                "probit": ["--data", probit_csv]}[model]
        rc = run_cli(["fit", "--model", model, "--method", method, *data,
                      flag, value])
        assert rc == 2
        assert f"{name} must be finite" in capsys.readouterr().err

    def test_invalid_method_model_pair(self, c7_csv):
        rc = run_cli(["fit", "--model", "linear", "--method", "mp-dm",
                      "--data", c7_csv])
        assert rc == 2

    def test_missing_file(self):
        rc = run_cli(["fit", "--model", "linear", "--method", "mfvb",
                      "--data", "/nonexistent/file.csv"])
        assert rc == 3

    def test_bad_csv_reports_row_col(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1.0,2.0\n3.0,oops\n")
        rc = run_cli(["fit", "--model", "linear", "--method", "mfvb",
                      "--data", str(path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "row 3" in err and "col 2" in err

    def test_rank_deficient_design_is_numeric_failure(self, tmp_path,
                                                      capsys):
        path = tmp_path / "dup.csv"
        path.write_text("y,x1,x2\n0.5,1,1\n1.5,2,2\n2.0,3,3\n4.5,4,4\n")
        rc = run_cli(["fit", "--model", "linear", "--method", "mp2",
                      "--data", str(path)])
        assert rc == 4
        assert (capsys.readouterr().err
                == "numeric failure: X is rank deficient\n")

    @pytest.mark.parametrize("method", ["laplace", "mfvb", "mp-dm",
                                        "mp-quad", "dmvb", "gibbs"])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_probit_design_is_numeric_failure(self, tmp_path,
                                                          capsys, method):
        """Finite entries whose Z^T Z overflows: every probit fit stops on
        its first Cholesky inverse, never on a traceback, a domain error
        about a later value, or a report of nulls."""
        path = tmp_path / "overflow.csv"
        path.write_text("y,x1,x2\n1,1.0,1e200\n0,1.0,-3e199\n1,1.0,0.5\n"
                        "0,1.0,0.1\n")
        rc = run_cli(["fit", "--model", "probit", "--method", method,
                      "--data", str(path)])
        out, err = capsys.readouterr()
        assert rc == 4 and out == ""
        assert err.startswith("numeric failure: ") and "Traceback" not in err

    @staticmethod
    def _separable(tmp_path, scale: float) -> str:
        """The separable 40-row set, y = 1{x > 0}, with x scaled."""
        x = np.random.default_rng(0).standard_normal(40)
        path = tmp_path / "separable.csv"
        path.write_text("y,x1\n" + "".join(
            f"{float(v > 0)!r},{float(scale * v)!r}\n" for v in x))
        return str(path)

    @staticmethod
    def _start(tmp_path, mean, cov) -> str:
        """A report holding only q(beta) = N(mean, cov), for --init-from."""
        path = tmp_path / "start.json"
        path.write_text(json.dumps({"q": {"beta": {
            "family": "gaussian", "mean": mean, "cov": cov}}}))
        return str(path)

    def test_dmvb_overflowing_gradient_is_numeric_failure(self, tmp_path,
                                                          capsys):
        """The separable set scaled by 1e160, started where every predictor
        is above 1e5: zeta_1 to zeta_3 vanish there, so M = D and every
        h_i = z_i^T M^-1 z_i overflows on the first step, which is a
        numeric failure naming the gradient, with no RuntimeWarning, not a
        domain error about the zeta argument."""
        data = self._separable(tmp_path, 1e160)
        start = self._start(tmp_path, [0.0, 1e-150], [[1.0, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(["fit", "--model", "probit", "--method", "dmvb",
                          "--intercept", "--lambda", "0.01",
                          "--data", data, "--init-from", start])
        out, err = capsys.readouterr()
        assert rc == 4 and out == ""
        assert err == ("numeric failure: gradient of the dmvb objective in "
                       "beta is not finite\n")
        assert not [w for w in caught if w.category is RuntimeWarning]

    @pytest.mark.parametrize("method", ["mp-dm", "mp-quad"])
    def test_mp_from_a_vast_start_mean_is_one_line(self, tmp_path, capsys,
                                                   method):
        """The separable set started at an intercept of 1e200, where every
        predictor mean is about -1e200: zeta_2 is -1 there, a numeric
        failure, printed alone, without the overflow warnings of the
        zeta_2 recursion that the continued fraction replaces."""
        start = self._start(tmp_path, [1e200, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(["fit", "--model", "probit", "--method", method,
                          "--intercept", "--data",
                          self._separable(tmp_path, 1.0),
                          "--init-from", start])
        out, err = capsys.readouterr()
        assert rc == 4 and out == ""
        assert err == ("numeric failure: zeta_2 left (-1, 0); iteration is "
                       "invalid\n")
        assert not [w for w in caught if w.category is RuntimeWarning]

    @pytest.mark.parametrize("method,scale,lam", [
        ("dmvb", 1e150, "0.01"), ("mp-quad", 1.0, "1e-8"),
        pytest.param("mp-quad", 1e150, "0.01", id="mp-quad-1e150-scaled")])
    def test_separable_extremes_end_cleanly(self, tmp_path, capsys, method,
                                            scale, lam):
        """The inputs these errors were once pinned on, reached there only
        through rounding: the 1e150-scaled set for dmvb, the unscaled one at
        a vanishing ridge for mp-quad. Each ends in a report or a numeric
        failure, with no traceback, NaN or RuntimeWarning. mp-quad ends in
        a report on both of its sets, the 1e150-scaled one too, where xi's
        mode search once failed."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(["fit", "--model", "probit", "--method", method,
                          "--intercept", "--lambda", lam,
                          "--data", self._separable(tmp_path, scale)])
        out, err = capsys.readouterr()
        assert rc == 0 if method == "mp-quad" else rc in (0, 4)
        assert "Traceback" not in err and "NaN" not in out
        if rc == 0:
            beta = json.loads(out)["q"]["beta"]
            assert np.isfinite(beta["mean"]).all()
            assert np.isfinite(beta["cov"]).all()
        assert not [w for w in caught if w.category is RuntimeWarning]

    def test_dmvb_invalid_fitted_density_is_numeric_failure(self, tmp_path,
                                                            capsys):
        """The 1e150-scaled separable set, dmvb started at mean (0, 1e-150):
        the last M^-1 is not positive definite, which the fit made, so the
        q-density's check is a numeric failure (exit 4) with no
        RuntimeWarning, not a domain error about the user's input."""
        start = self._start(tmp_path, [0.0, 1e-150], [[1.0, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(["fit", "--model", "probit", "--method", "dmvb",
                          "--intercept", "--lambda", "0.01",
                          "--data", self._separable(tmp_path, 1e150),
                          "--init-from", start])
        out, err = capsys.readouterr()
        assert rc == 4 and out == ""
        assert err == ("numeric failure: the fitted q-density is invalid: "
                       "cov is not positive definite\n")
        assert not [w for w in caught if w.category is RuntimeWarning]

    def test_mp_dm_gram_overflow_is_one_numeric_failure_line(self, tmp_path,
                                                             capsys):
        """The 1e150-scaled separable set, mp-dm started at mean (0, 1e-150)
        and unit covariance: the variances v_i are about 1e300, so walk 1's
        Gram matrix A overflows. That is a numeric failure printed alone,
        with no RuntimeWarning from the sums, and not a Stein solve that
        does not converge."""
        start = self._start(tmp_path, [0.0, 1e-150], [[1.0, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(["fit", "--model", "probit", "--method", "mp-dm",
                          "--intercept", "--lambda", "0.01",
                          "--data", self._separable(tmp_path, 1e150),
                          "--init-from", start])
        out, err = capsys.readouterr()
        assert rc == 4 and out == ""
        assert err == ("numeric failure: a Gram matrix of the covariance "
                       "equation is not finite\n")
        assert not caught

    @pytest.mark.parametrize("method", ["laplace", "mfvb", "dmvb"])
    def test_start_where_log_density_overflows_is_numeric_failure(
            self, tmp_path, capsys, method):
        """The separable set started at an intercept of 1e200: beta^T D beta
        overflows, so log p(y, beta) is -inf at the start. That is a numeric
        failure printed alone, with no RuntimeWarning, not 500 failed
        Armijo tests that end unconverged where they started."""
        start = self._start(tmp_path, [1e200, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(["fit", "--model", "probit", "--method", method,
                          "--intercept", "--data",
                          self._separable(tmp_path, 1.0),
                          "--init-from", start])
        out, err = capsys.readouterr()
        assert rc == 4 and out == ""
        assert err == ("numeric failure: log p(y, beta) is not finite at "
                       "the starting mean\n")
        assert not caught

    @pytest.mark.parametrize("fields,message", [
        ({"mean": [0.0, 1e-150]}, "missing a required argument: 'cov'"),
        ({"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]],
          "loc": [0.0, 0.0]}, "got an unexpected keyword argument 'loc'")],
        ids=["missing-cov", "unknown-loc"])
    def test_init_from_names_a_missing_or_unknown_field(
            self, probit_csv, tmp_path, capsys, fields, message):
        """A q.beta that lacks cov, or has a field its family does not, is
        an input error (exit 3) naming that field, not the constructor's
        signature."""
        path = tmp_path / "start.json"
        path.write_text(json.dumps({"q": {"beta": {"family": "gaussian",
                                                   **fields}}}))
        rc = run_cli(["fit", "--model", "probit", "--method", "dmvb",
                      "--data", probit_csv, "--init-from", str(path)])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {path}: malformed value: {message}\n")

    def test_mp_quad_from_a_vast_start_variance_converges(self, tmp_path,
                                                          capsys):
        """mp-quad on the separable set, started from a q(beta) whose
        intercept variance is 1e15, where xi's mode search once failed:
        xi's fixed rule has no search, so the fit converges, finite and
        within 10 eps of the fit from the default start, with no
        RuntimeWarning."""
        data = self._separable(tmp_path, 1.0)
        start = self._start(tmp_path, [0.0, 0.0], [[1e15, 0.0], [0.0, 1.0]])
        fits = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for init in (["--init-from", start], []):
                rc = run_cli(["fit", "--model", "probit", "--method",
                              "mp-quad", "--intercept", "--data", data]
                             + init)
                out = capsys.readouterr().out
                assert rc == 0
                fits.append(json.loads(out))
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert all(fit["converged"] for fit in fits)
        (far, near) = (fit["q"]["beta"] for fit in fits)
        for field in ("mean", "cov"):
            assert np.isfinite(far[field]).all()
            assert np.max(np.abs(np.subtract(far[field], near[field]))) \
                <= 10 * 1e-6

    @pytest.mark.parametrize("argv", [
        ["fit", "--model", "probit", "--method", "gibbs", "--data", "PROBIT",
         "--n-samples", "1000000000000000", "--out", "OUT"],
        ["compare", "--model", "probit", "--methods", "laplace,mfvb",
         "--data", "PROBIT", "--n-samples", "1000000000000000",
         "--out", "OUT"],
        *(["generate", "--model", model, "--n", "1000000000000000",
           "--out", "OUT"] for model in ("linear", "mvn", "probit"))],
        ids=["fit-gibbs", "compare-probit", "generate-linear",
             "generate-mvn", "generate-probit"])
    def test_allocation_that_cannot_be_made_is_numeric_failure(
            self, probit_csv, tmp_path, capsys, argv):
        """An array of 1e15 rows, which numpy refuses before touching any
        memory: exit 4 with one line, no traceback, and no --out file."""
        out = tmp_path / "out"
        names = {"PROBIT": probit_csv, "OUT": str(out)}
        assert run_cli([names.get(a, a) for a in argv]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: Unable to allocate ")
        assert err.count("\n") == 1 and not out.exists()

    def test_ragged_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1.0,2.0,9.9\n")
        rc = run_cli(["fit", "--model", "linear", "--method", "mfvb",
                      "--data", str(path)])
        assert rc == 3

    @pytest.mark.parametrize("raw", [b"y,\xffx1\n1,2\n", b"y,x1\n1,\xff\n"],
                             ids=["header", "row"])
    def test_csv_not_utf8_is_input_error(self, tmp_path, raw):
        """Both CSV readers name the file of undecodable text."""
        path = tmp_path / "in.csv"
        path.write_bytes(raw)
        for read in (cli._read_csv, cli._parse_csv_rows):
            with pytest.raises(cli.InputError) as err:
                read(str(path))
            assert str(err.value).startswith(f"{path}: not UTF-8 text")

    @pytest.mark.parametrize("exc,message", [
        (OSError("gone"), "cannot read {}: gone"),
        (csv.Error("line contains NUL"), "{}: invalid CSV: line contains NUL"),
        (RecursionError("too deep"), "{}: invalid CSV: too deep"),
        (ValueError("bad"), "{}: invalid CSV: bad"),
    ], ids=["os", "csv", "recursion", "value"])
    def test_reader_names_the_file_of_a_failure_in_its_body(
            self, tmp_path, exc, message):
        """What the parser raises inside the reader, as the csv module of
        Python 3.10 does on a NUL byte, is an InputError naming the file."""
        path = tmp_path / "in.csv"
        path.write_text("y\n1\n")
        with pytest.raises(cli.InputError) as err:
            with cli._reading(str(path), "CSV"):
                raise exc
        assert str(err.value) == message.format(path)

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device whose writes fail")
    @pytest.mark.parametrize("argv", [
        ["generate", "--model", "mvn", "--out"],
        ["fit", "--model", "linear", "--method", "exact", "--data", "C7",
         "--out"],
        ["fit", "--model", "linear", "--method", "exact", "--data", "C7",
         "--emit-density", "beta0", "--density-out"],
    ], ids=["generate", "report", "density"])
    def test_failed_write_is_io_error(self, c7_csv, capsys, argv):
        """A write that fails after the open, as on a full disk, names the
        file (exit 3), for the CSV writer as for the report."""
        rc = run_cli([c7_csv if a == "C7" else a for a in argv]
                     + ["/dev/full"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: cannot write "
                                                  "/dev/full: ")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs pipes")
    def test_csv_from_a_named_pipe_is_opened_once(self, tmp_path, c7_csv):
        """A pipe cannot be read twice, so its lines are not counted: the
        row parser reads it, opening it once, to the file's header and
        table."""
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(
            target=lambda: got.append(cli._read_csv(str(fifo))), daemon=True)
        reader.start()
        fifo.write_bytes(Path(c7_csv).read_bytes())  # once the reader opens
        reader.join(timeout=10)
        assert not reader.is_alive()
        header, table = cli._read_csv(c7_csv)
        assert got[0][0] == header and got[0][1].tobytes() == table.tobytes()

    def test_csv_reader_holds_no_copy_of_the_text(self, tmp_path):
        """The fast path streams the file into np.loadtxt: reading a
        20,000 x 6 CSV peaks below twice the bytes of the array it returns,
        where the whole text, as a string, takes 1.8 times them."""
        path = tmp_path / "probit.csv"
        assert run_cli(["generate", "--model", "probit", "--n", "20000",
                        "--p", "5", "--seed", "1", "--out", str(path)]) == 0
        tracemalloc.start()
        try:
            _, data = cli._read_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.shape == (20_000, 6)
        assert peak < 2 * data.nbytes

    @pytest.mark.parametrize("text,fast", CSV_CASES.values(),
                             ids=CSV_CASES.keys())
    def test_csv_fast_path_matches_row_parser(self, tmp_path, monkeypatch,
                                              text, fast):
        """Where np.loadtxt reads a CSV it gives the row parser's array;
        elsewhere the row parser reads it, with the same InputError. No
        warning escapes the reader."""
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())

        def outcome(read):
            try:
                return read(str(path))
            except cli.InputError as exc:
                return str(exc)

        want = outcome(cli._parse_csv_rows)
        fallbacks = []
        parse_rows = cli._parse_csv_rows
        monkeypatch.setattr(cli, "_parse_csv_rows",
                            lambda p: fallbacks.append(p) or parse_rows(p))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(cli._read_csv)
        assert (not fallbacks) == fast
        if isinstance(want, str):
            assert got == want
        else:
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1], equal_nan=True)
            assert got[1].shape == want[1].shape

    @pytest.mark.parametrize("argv", [
        ["fit", "--model", "linear", "--method", "mfvb"],
        ["fit", "--model", "linear", "--method", "mp2"],
        ["compare", "--model", "linear", "--methods", "mfvb,mp1",
         "--reference", "exact"],
    ])
    def test_zero_max_iter_is_usage_error(self, c7_csv, argv, capsys):
        rc = run_cli(argv + ["--data", c7_csv, "--max-iter", "0"])
        assert rc == 2
        assert "max_iter must be at least 1" in capsys.readouterr().err

    def test_toy_zero_max_iter_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "toy.json"
        spec.write_text(json.dumps({"mu": [0.0, 0.0],
                                    "Sigma": [[1.0, 0.9], [0.9, 1.0]],
                                    "split": 1}))
        rc = run_cli(["fit", "--model", "toy", "--method", "mp",
                      "--summary", str(spec), "--max-iter", "0"])
        assert rc == 2
        assert ("fit --model toy does not read --max-iter"
                in capsys.readouterr().err)

    def test_nonconvergence_still_exit_zero(self, c7_csv, tmp_path):
        out = tmp_path / "rep.json"
        rc = run_cli(["fit", "--model", "linear", "--method", "mfvb",
                      "--data", c7_csv, "--max-iter", "2",
                      "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["converged"] is False
        assert doc["termination"] == "max_iter"


def _table_options(command: str) -> list[argparse.Action]:
    """The options of command that are in cli._DEFAULTS."""
    parser = cli.build_parser()
    sub, = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    return [a for a in sub.choices[command]._actions
            if a.dest in cli._DEFAULTS]


# (command, model, flag, the flag's argv) for each option of the table that
# fit or compare offers and the model does not read; compare runs on the
# models with a reference
UNREAD_OPTIONS = [
    (command, model, action.option_strings[0],
     action.option_strings[:1] + ["1"] * (action.nargs != 0))
    for command in ("fit", "compare")
    for model, spec in cli.MODELS.items() if command == "fit" or spec.reference
    for action in _table_options(command) if action.dest not in spec.reads]


class TestOptions:
    @pytest.mark.parametrize(
        "command,model,flag,argv", UNREAD_OPTIONS,
        ids=[f"{c}-{m}-{f[2:]}" for c, m, f, _ in UNREAD_OPTIONS])
    def test_unread_option_is_usage_error(self, capsys, command, model, flag,
                                          argv):
        """An option the model does not read is a usage error that names
        it, raised before the (here missing) input is looked for."""
        methods = list(cli.MODELS[model].fits)
        head = (["fit", "--model", model, "--method", methods[0]]
                if command == "fit" else
                ["compare", "--model", model, "--methods",
                 ",".join(methods[:2])])
        assert run_cli(head + argv) == 2
        assert (f"{command} --model {model} does not read {flag}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv,want", [
        (["fit", "--model", "probit", "--method", "gibbs"],
         {"eps": 1e-6, "max_iter": 500, "g": 1e4, "A": 0.01, "B": 0.01,
          "lambda0": 0.01, "nu0": None, "psi0_scale": 1.0, "lam": 0.01,
          "seed": 0, "n_samples": 50_000, "n_warmup": 5_000}),
        (["generate", "--model", "linear", "--out", "unused.csv"],
         {"n": 100, "p": 2, "seed": 0, "sigma": 1.0}),
    ], ids=["fit", "generate"])
    def test_unset_options_take_their_defaults(self, argv, want):
        """What a command reads of each option left unset; repr tells 500
        from 500.0."""
        args = cli.build_parser().parse_args(argv)
        cli._options(args, cli.MODELS[args.model])
        assert repr({k: vars(args)[k] for k in want}) == repr(want)


class TestGenerate:
    def test_fixed_linear_dataset(self, tmp_path):
        path = tmp_path / "fixed.csv"
        rc = run_cli(["generate", "--model", "linear", "--fixed",
                      "--out", str(path)])
        assert rc == 0
        with open(path) as fh:
            rows = list(csv.reader(fh))
        y = [float(r[0]) for r in rows[1:]]
        assert y == [-1.48, 1.08, -2.14, 5.54, 1.54]

    def test_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            run_cli(["generate", "--model", "probit", "--n", "60",
                     "--p", "2", "--seed", "42", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_linear_with_coefficients(self, tmp_path):
        argv = ["generate", "--model", "linear", "--n", "40", "--p", "3",
                "--seed", "7", "--beta", "1,-2,0.5", "--sigma", "0.7"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli(argv + ["--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
        with open(a) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["y", "x1", "x2", "x3"]
        assert np.array(rows[1:], dtype=float).shape == (40, 4)

    def test_bad_coefficient_vector_is_usage_error(self, tmp_path, capsys):
        rc = run_cli(["generate", "--model", "linear", "--beta", "1,x",
                      "--out", str(tmp_path / "g.csv")])
        assert rc == 2
        assert "bad vector '1,x'" in capsys.readouterr().err

    def test_probit_has_both_classes(self, tmp_path):
        path = tmp_path / "p.csv"
        run_cli(["generate", "--model", "probit", "--n", "400", "--p", "3",
                 "--seed", "1", "--out", str(path)])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        y = np.array([float(r[0]) for r in rows[1:]])
        assert 0.0 < y.mean() < 1.0


def _csv_writer_text(header: list[str], rows) -> str:
    """What csv.writer gives for header and rows."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _xy_rows(y: np.ndarray | None, X: np.ndarray, y_cell) -> list[list]:
    """X's rows as lists of floats, after y's cell in each if there is y."""
    if y is None:
        return X.tolist()
    return [[y_cell(v), *row] for v, row in zip(y.tolist(), X.tolist())]


# id -> (generate's flags less --out, the y and X that datagen gives for
# them, y's cell type)
GENERATE_CASES = {
    "linear": (["--model", "linear", "--n", "40", "--p", "3", "--seed", "7",
                "--beta", "1,-2,0.5", "--sigma", "0.7"],
               lambda: datagen.generate_linear(
                   40, 3, 7, beta=np.array([1.0, -2.0, 0.5]), sigma=0.7),
               float),
    "linear-fixed": (["--model", "linear", "--fixed"],
                     datagen.fixed_linear_dataset, float),
    "probit": (["--model", "probit", "--n", "120", "--p", "3", "--seed", "5"],
               lambda: datagen.generate_probit(120, 3, 5), int),
    "probit-no-intercept": (
        ["--model", "probit", "--n", "80", "--p", "2", "--seed", "2",
         "--no-intercept"],
        lambda: datagen.generate_probit(80, 2, 2, intercept=False), int),
    "mvn": (["--model", "mvn", "--n", "30", "--p", "3", "--seed", "4"],
            lambda: (None, datagen.generate_mvn(30, 3, 4)), None),
}


class TestWriteCSV:
    """Every CSV momprop writes is what csv.writer gives for its cells."""

    @pytest.mark.parametrize("argv,arrays,y_cell", GENERATE_CASES.values(),
                             ids=GENERATE_CASES.keys())
    def test_generate_is_csv_writer(self, tmp_path, argv, arrays, y_cell):
        out = tmp_path / "g.csv"
        assert run_cli(["generate", *argv, "--out", str(out)]) == 0
        y, X = arrays()
        header = ([] if y is None else ["y"]) + [
            f"x{j + 1}" for j in range(X.shape[1])]
        want = _csv_writer_text(header, _xy_rows(y, X, y_cell))
        assert out.read_bytes() == want.encode()

    def test_density_is_csv_writer(self, c7_csv, tmp_path):
        dens = tmp_path / "dens.csv"
        rc = run_cli(["fit", "--model", "linear", "--method", "exact",
                      "--data", c7_csv, "--out", str(tmp_path / "rep.json"),
                      "--emit-density", "sigma2", "--density-out", str(dens)])
        assert rc == 0
        q = dict(zip(("beta", "sigma2"), linear_exact_posterior(
            LinearData(*fixed_linear_dataset()),
            LinearPrior(g=1e4, A=0.01, B=0.01))))
        grid = diagnostics.marginal_grids(q)["sigma2"]
        want = _csv_writer_text(["point", "value"], zip(
            grid.points.tolist(), grid.values.tolist()))
        assert dens.read_bytes().decode() == want

    def test_generate_holds_no_list_of_the_table(self, tmp_path,
                                                 monkeypatch):
        """Writing a 20,000 x 6 probit data set, drawn before the trace
        starts, peaks below a twentieth of the bytes written: the rows are
        formatted one at a time, and no list of the table's floats is
        built."""
        y, X = datagen.generate_probit(20_000, 6, 1)
        monkeypatch.setattr(datagen, "generate_probit",
                            lambda *args, **kwargs: (y, X))
        out = tmp_path / "p.csv"
        tracemalloc.start()
        try:
            assert run_cli(["generate", "--model", "probit", "--n", "20000",
                            "--p", "6", "--seed", "1", "--out",
                            str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.stat().st_size / 20
        want = _csv_writer_text(["y", *(f"x{j + 1}" for j in range(6))],
                                _xy_rows(y, X, int))
        assert out.read_bytes() == want.encode()


class TestCompare:
    def test_linear_methods_against_exact(self, c7_csv, tmp_path):
        out = tmp_path / "cmp.json"
        rc = run_cli(["compare", "--model", "linear",
                      "--methods", "mfvb,mp1,mp2", "--reference", "exact",
                      "--data", c7_csv, "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["reference"] == "exact"
        mp2 = doc["methods"]["mp2"]
        for val in mp2["accuracy"].values():
            assert val == pytest.approx(1.0, abs=1e-3)
        # mean-field underestimates the sigma2 spread
        assert doc["methods"]["mfvb"]["accuracy"]["sigma2"] < 0.999

    def test_mvn_methods_against_exact(self, d9_json, tmp_path):
        out = tmp_path / "cmp.json"
        rc = run_cli(["compare", "--model", "mvn", "--methods", "mfvb,mp",
                      "--reference", "exact", "--summary", d9_json,
                      "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        for val in doc["methods"]["mp"]["accuracy"].values():
            assert val == pytest.approx(1.0, abs=1e-3)
        for val in doc["methods"]["mfvb"]["accuracy"].values():
            assert val < 0.999

    def test_probit_against_gibbs(self, probit_csv, tmp_path):
        out = tmp_path / "cmp.json"
        rc = run_cli(["compare", "--model", "probit",
                      "--methods", "laplace,mfvb,mp-dm",
                      "--reference", "gibbs", "--data", probit_csv,
                      "--n-samples", "3000", "--n-warmup", "500",
                      "--seed", "4", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc["methods"]) == {"laplace", "mfvb", "mp-dm"}
        for m in doc["methods"].values():
            assert len(m["mean_err"]) == 3

    def test_reads_input_once(self, probit_csv, tmp_path, monkeypatch):
        calls = []
        read_csv = cli._read_csv

        def counting(path, *layout):
            calls.append(path)
            return read_csv(path, *layout)

        monkeypatch.setattr(cli, "_read_csv", counting)
        rc = run_cli(["compare", "--model", "probit",
                      "--methods", "laplace,mfvb,mp-dm",
                      "--reference", "gibbs", "--data", probit_csv,
                      "--n-samples", "1000", "--n-warmup", "100",
                      "--out", str(tmp_path / "cmp.json")])
        assert rc == 0
        assert calls == [probit_csv]

    def test_requires_two_methods(self, c7_csv):
        rc = run_cli(["compare", "--model", "linear", "--methods", "mp2",
                      "--reference", "exact", "--data", c7_csv])
        assert rc == 2

    def test_repeated_method_counts_once(self, c7_csv, capsys):
        rc = run_cli(["compare", "--model", "linear", "--methods",
                      "mfvb,mfvb", "--data", c7_csv])
        assert rc == 2
        assert "at least two methods" in capsys.readouterr().err

    def test_keeps_no_trace_of_a_returned_fit(self, tmp_path, monkeypatch):
        """compare writes no trace, so a fit's trace, one n-vector per MP
        iteration, is gone once the fit returns: from one fit's start to the
        next, the traced memory grows by less than two n-vectors (the fit's
        mean_a). Every fit takes at least 3 iterations, so a kept trace
        would break that bound."""
        n, data = 10_000, tmp_path / "probit.csv"
        methods = "mfvb,mp-dm,mp-quad"
        assert run_cli(["generate", "--model", "probit", "--n", str(n),
                        "--p", "3", "--seed", "3", "--out", str(data)]) == 0
        at_start = []

        def tracked(fit):
            def run(*args, **kwargs):
                at_start.append(tracemalloc.get_traced_memory()[0])
                return fit(*args, **kwargs)
            return run

        for fit in ("laplace", "mfvb", "mp"):
            name = f"probit_{fit}_fit"
            monkeypatch.setattr(cli, name, tracked(getattr(cli, name)))
        args = cli.build_parser().parse_args(
            ["compare", "--model", "probit", "--methods", methods,
             "--reference", "laplace", "--data", str(data)])
        tracemalloc.start()
        try:
            doc = cli.run_compare(args, methods.split(","), "laplace")
        finally:
            tracemalloc.stop()
        assert all(m["iterations"] >= 3 for m in doc["methods"].values())
        assert len(at_start) == 4
        assert max(np.diff(at_start)) < 2 * n * 8
