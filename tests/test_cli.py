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

import cli_cases
from momprop import cli, datagen, diagnostics
from momprop.cli import main
from momprop.datagen import fixed_linear_dataset
from momprop.linear import LinearData, LinearPrior, linear_exact_posterior
from momprop.probit import ProbitData


def run_cli(args) -> int:
    return main(args)


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory) -> Path:
    """The case table's input files, and the inputs its SETUP rows
    generate, in one directory."""
    root = tmp_path_factory.mktemp("cases")
    cli_cases.write_files(root)
    for case in cli_cases.SETUP:
        assert run_cli([cli_cases.resolve(a, str(root))
                        for a in case.argv]) == 0
    return root


@pytest.fixture()
def c7_csv(cli_dir):
    return str(cli_dir / "c7.csv")


@pytest.fixture()
def d9_json(cli_dir):
    return str(cli_dir / "d9.json")


@pytest.fixture()
def probit_csv(cli_dir):
    return str(cli_dir / "probit.csv")


def _assert_row(case: cli_cases.Case, root: Path, capsys) -> None:
    """The row's command exits with its code and prints nothing on stdout.
    It prints nothing on stderr at exit 0, else one line that starts with
    "error: " (exit 2 or 3) or "numeric failure: " (exit 4) and holds the
    row's err, and leaves no file where --out or --density-out point."""
    argv = [cli_cases.resolve(a, str(root)) for a in case.argv]
    rc = run_cli(argv)
    out, err = capsys.readouterr()
    assert (rc, out) == (case.rc, "")
    if rc == 0:
        assert err == ""
        return
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith("numeric failure: " if rc == 4 else "error: ")
    assert cli_cases.resolve(case.err, str(root)) in err
    for flag in ("--out", "--density-out"):
        if flag in argv:
            assert not Path(argv[argv.index(flag) + 1]).exists()


def _typed_errors(group: str):
    """A test that runs each table row of group through _assert_row, under
    filterwarnings("error"), with the row's id; a group of one row without
    an id is one plain test."""
    rows = {case.test.partition("[")[2][:-1]: case
            for case in cli_cases.CASES
            if case.test and case.test.partition("[")[0] == group}
    assert rows, group
    if list(rows) == [""]:
        def test(self, cli_dir, capsys):
            _assert_row(rows[""], cli_dir, capsys)
    else:
        @pytest.mark.parametrize("case", list(rows.values()), ids=list(rows))
        def test(self, cli_dir, capsys, case):
            _assert_row(case, cli_dir, capsys)
    return pytest.mark.filterwarnings("error")(test)


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

    @pytest.mark.filterwarnings("error")
    def test_unrepresentable_sigma2_variance_is_null(self, cli_dir,
                                                     tmp_path):
        """y of 1e80 gives a finite q(sigma2) of scale about 1e160, whose
        variance does not fit in a double: exact and mfvb fits report it as
        null with a warning, and compare runs both, with no RuntimeWarning
        or traceback."""
        data, out = cli_dir / "vast-linear.csv", tmp_path / "rep.json"
        for method in ("exact", "mfvb"):
            assert run_cli(["fit", "--model", "linear", "--method", method,
                            "--data", str(data), "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            assert np.isfinite(doc["moments"]["scalar_mean"])
            assert doc["moments"]["scalar_var"] is None
            assert doc["warnings"] == [
                "non-finite value at moments.scalar_var replaced by null"]
        assert run_cli(["compare", "--model", "linear", "--methods",
                        "exact,mfvb", "--data", str(data), "--out",
                        str(out)]) == 0

    test_density_a_grid_cannot_hold_is_numeric_failure = _typed_errors(
        "density-grid")

    @pytest.mark.filterwarnings("error")
    def test_vast_shape_and_scale_give_their_sigma2_variance(self, c7_csv,
                                                             tmp_path):
        """--A 1e300 --B 1e300: q(sigma2) has mean 1 and variance
        mean^2 / (shape - 2) = 1e-300, which is reported, with no warning,
        where scale^2 / ((shape - 1)^2 (shape - 2)) is inf / inf."""
        doc = _fit_doc(["--model", "linear", "--method", "exact", "--A",
                        "1e300", "--B", "1e300", "--data"], c7_csv, tmp_path)
        assert doc["moments"]["scalar_mean"] == 1.0
        assert doc["moments"]["scalar_var"] == pytest.approx(1e-300,
                                                             rel=1e-15)
        assert "warnings" not in doc

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

    def test_intercept_prepends_a_column_of_ones(self, cli_dir, tmp_path):
        data, out = cli_dir / "probit2.csv", tmp_path / "rep.json"
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

    def test_mfvb_does_not_run_the_mp_iteration(self, cli_dir, tmp_path,
                                                capsys):
        """At correlation 0.9999 MP needs more than its 10,000 sweeps; the
        mean-field blocks are the conditional variances 1 - 0.9999^2."""
        out = tmp_path / "rep.json"
        fit = ["fit", "--model", "toy", "--summary",
               str(cli_dir / "toy-rho9999.json")]
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

    def test_warnings_of_the_doc_come_first(self):
        """A doc's own warnings are kept, and the non-finite entries follow
        them; the doc passed in is not changed."""
        doc = {"x": float("inf"), "warnings": ["reference did not converge"]}
        assert cli._encode(doc) == {"x": None, "warnings": [
            "reference did not converge",
            "non-finite value at x replaced by null"]}
        assert doc["warnings"] == ["reference did not converge"]

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


class TestErrors:
    """The table's typed-error rows, by the test that runs them, and the
    errors that need more than one command or a pipe."""

    test_bad_input_is_typed_error = _typed_errors("bad-input")
    test_nonfinite_prior_hyperparameter_is_named = _typed_errors(
        "nonfinite-prior")
    test_invalid_method_model_pair = _typed_errors("method-model-pair")
    test_missing_file = _typed_errors("missing-file")
    test_bad_csv_reports_row_col = _typed_errors("bad-csv-row-col")
    test_ragged_csv = _typed_errors("ragged-csv")
    test_rank_deficient_design_is_numeric_failure = _typed_errors(
        "rank-deficient")
    test_overflowing_linear_gram_is_numeric_failure = _typed_errors(
        "linear-gram")
    test_overflowing_mvn_summary_is_numeric_failure = _typed_errors(
        "mvn-outer-overflow")
    test_vast_prior_shape_stops_mp_on_one_line = _typed_errors(
        "vast-prior-mp")
    test_vast_data_scale_stops_mp_on_one_line = _typed_errors("vast-data-mp")
    test_start_whose_predictor_overflows_is_numeric_failure = _typed_errors(
        "predictor-overflow")
    test_overflowing_probit_design_is_numeric_failure = _typed_errors(
        "probit-design")
    test_dmvb_overflowing_gradient_is_numeric_failure = _typed_errors(
        "dmvb-gradient")
    test_mp_from_a_vast_start_mean_is_one_line = _typed_errors(
        "vast-start-mean")
    test_dmvb_invalid_fitted_density_is_numeric_failure = _typed_errors(
        "dmvb-invalid-density")
    test_mp_dm_gram_overflow_is_one_numeric_failure_line = _typed_errors(
        "mp-dm-gram")
    test_start_where_log_density_overflows_is_numeric_failure = (
        _typed_errors("log-density-start"))
    test_init_from_names_a_missing_or_unknown_field = _typed_errors(
        "init-field")
    test_allocation_that_cannot_be_made_is_numeric_failure = _typed_errors(
        "allocation")
    test_zero_max_iter_is_usage_error = _typed_errors("zero-max-iter")
    test_toy_zero_max_iter_is_usage_error = _typed_errors("toy-zero-max-iter")

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

    @pytest.mark.parametrize("method", ["exact", "mfvb"])
    @pytest.mark.filterwarnings("error")
    def test_vast_prior_shape_reports_a_zero_sigma2_variance(
            self, c7_csv, tmp_path, method):
        """--A 1e300 gives a finite q(sigma2) whose variance underflows to
        0: exact and mfvb report it, with no warning of any kind."""
        doc = _fit_doc(["--model", "linear", "--method", method, "--A",
                        "1e300", "--data"], c7_csv, tmp_path)
        ig = doc["q"]["sigma2"]
        assert ig["shape"] == 1e300
        assert doc["moments"]["scalar_mean"] == ig["scale"] / ig["shape"] > 0
        assert doc["moments"]["scalar_var"] == 0.0 and "warnings" not in doc

    @pytest.mark.parametrize("model,method,rows", [
        ("linear", "mp1", cli_cases.VAST_LINEAR),
        ("linear", "mp2", cli_cases.VAST_LINEAR),
        ("mvn", "mp", cli_cases.VAST_MVN)],
        ids=["linear-mp1", "linear-mp2", "mvn-mp"])
    @pytest.mark.filterwarnings("error")
    def test_data_scale_below_the_cut_still_fits(self, tmp_path, model,
                                                 method, rows):
        """The same rows at 1e76 fit as before, with no warning and a
        finite report."""
        path = tmp_path / "big.csv"
        path.write_text(rows.format(76))
        doc = _fit_doc(["--model", model, "--method", method, "--data"],
                       str(path), tmp_path)
        assert doc["iterations"] > 1 and "warnings" not in doc

    @pytest.mark.parametrize("method,scale,lam", [
        ("dmvb", 1e150, "0.01"), ("mp-quad", 1.0, "1e-8"),
        pytest.param("mp-quad", 1e150, "0.01", id="mp-quad-1e150-scaled")])
    @pytest.mark.filterwarnings("error")
    def test_separable_extremes_end_cleanly(self, cli_dir, capsys, method,
                                            scale, lam):
        """The inputs these errors were once pinned on, reached there only
        through rounding: the 1e150-scaled set for dmvb, the unscaled one at
        a vanishing ridge for mp-quad. Each ends in a report or a numeric
        failure, with no traceback, NaN or RuntimeWarning. mp-quad ends in
        a report on both of its sets, the 1e150-scaled one too, where xi's
        mode search once failed."""
        data = {1.0: "separable.csv", 1e150: "separable-1e150.csv"}[scale]
        rc = run_cli(["fit", "--model", "probit", "--method", method,
                      "--intercept", "--lambda", lam,
                      "--data", str(cli_dir / data)])
        out, err = capsys.readouterr()
        assert rc == 0 if method == "mp-quad" else rc in (0, 4)
        assert "Traceback" not in err and "NaN" not in out
        if rc == 0:
            beta = json.loads(out)["q"]["beta"]
            assert np.isfinite(beta["mean"]).all()
            assert np.isfinite(beta["cov"]).all()

    @pytest.mark.filterwarnings("error")
    def test_mp_quad_from_a_vast_start_variance_converges(self, cli_dir,
                                                          capsys):
        """mp-quad on the separable set, started from a q(beta) whose
        intercept variance is 1e15, where xi's mode search once failed:
        xi's fixed rule has no search, so the fit converges, finite and
        within 10 eps of the fit from the default start, with no
        RuntimeWarning."""
        start = cli_dir / "init-probit-vast-variance.json"
        fits = []
        for init in (["--init-from", str(start)], []):
            rc = run_cli(["fit", "--model", "probit", "--method", "mp-quad",
                          "--intercept", "--data",
                          str(cli_dir / "separable.csv")] + init)
            out = capsys.readouterr().out
            assert rc == 0
            fits.append(json.loads(out))
        assert all(fit["converged"] for fit in fits)
        (far, near) = (fit["q"]["beta"] for fit in fits)
        for field in ("mean", "cov"):
            assert np.isfinite(far[field]).all()
            assert np.max(np.abs(np.subtract(far[field], near[field]))) \
                <= 10 * 1e-6

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

    def test_nonconvergence_still_exit_zero(self, c7_csv, tmp_path):
        out = tmp_path / "rep.json"
        rc = run_cli(["fit", "--model", "linear", "--method", "mfvb",
                      "--data", c7_csv, "--max-iter", "2",
                      "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["converged"] is False
        assert doc["termination"] == "max_iter"


class TestOptions:
    test_unread_option_is_usage_error = _typed_errors("unread")

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

    test_bad_coefficient_vector_is_usage_error = _typed_errors("bad-vector")

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

    def test_unconverged_reference_is_named(self, cli_dir, tmp_path):
        """dmvb stops at max_iter on this set, where laplace and mp-dm
        converge: the scores stand, exit 0, and warnings name the reference;
        a reference that converged adds no warnings."""
        data, out = cli_dir / "probit-50.csv", tmp_path / "cmp.json"
        argv = ["compare", "--model", "probit", "--methods", "laplace,mp-dm",
                "--data", str(data), "--out", str(out), "--reference"]
        assert run_cli(argv + ["dmvb"]) == 0
        doc = json.loads(out.read_text())
        assert [m["converged"] for m in doc["methods"].values()] == [True,
                                                                     True]
        assert doc["warnings"] == ["reference dmvb did not converge: 500 "
                                   "iterations, termination max_iter"]
        assert run_cli(argv + ["laplace"]) == 0
        assert "warnings" not in json.loads(out.read_text())

    @pytest.mark.parametrize("methods,A,left_out", [
        ("mfvb,mp2", "1e16", ["sigma2"]),
        ("mfvb,exact", "1e300", ["beta0", "sigma2"])],
        ids=["A-1e16", "A-1e300"])
    @pytest.mark.filterwarnings("error")
    def test_marginal_a_grid_cannot_hold_is_left_out(self, cli_dir, tmp_path,
                                                     methods, A, left_out):
        """q(sigma2) of shape 1e16 cancels on its grid (mp2 scored -2.9e12),
        and at shape 1e300 the sigma2 and beta0 grids collapse (empty grid
        range): each such marginal is left out of every method's accuracy
        and named in one warning, and the rest are scored."""
        data, out = cli_dir / "linear4.csv", tmp_path / "cmp.json"
        assert run_cli(["compare", "--model", "linear", "--methods", methods,
                        "--A", A, "--data", str(data), "--out",
                        str(out)]) == 0
        doc = json.loads(out.read_text())
        for m in doc["methods"].values():
            assert list(m["accuracy"]) == [n for n in ("beta0",)
                                           if n not in left_out]
            assert all(0.0 <= v <= 1.0 for v in m["accuracy"].values())
        assert doc["warnings"] == [
            f"marginal {name} is left out of every accuracy: a 4001-point "
            "double-precision grid cannot hold it" for name in left_out]

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

    test_requires_two_methods = _typed_errors("two-methods")
    test_repeated_method_counts_once = _typed_errors("repeated-method")
    test_undefined_sd_gives_no_warning = _typed_errors("undefined-sd")

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
