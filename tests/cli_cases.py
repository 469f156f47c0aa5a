"""Every CLI case that tests/test_cli.py and scripts/cli_digest.py run, in
one table.

FILES holds the input files by name: text is written as it is, bytes as
they are, anything else as JSON. CASES holds the commands in run order. In
an argv, FILE/<name> names a file in the directory FILES is written to; the
SETUP rows, which come first, generate the inputs that later rows read.

A row with an exit code is a typed-error case, which test_cli runs under
filterwarnings("error"): the command exits with that code and prints
nothing on stdout. At exit 2 or 3 it prints exactly one stderr line that
starts with "error: ", and at exit 4 one that starts with "numeric
failure: "; that line contains err, with FILE/ as in argv, so an err that
is the whole line pins it. At exit 0 it prints nothing on stderr. A failed
command leaves no --out or --density-out file. The row's test, "group[id]"
or "group", names the test_cli test that runs it and the row's id there.
Rows without an exit code are run by the digest alone. Each label is
unique; the digest prints one line per row, under its label.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from momprop import cli


class Case(NamedTuple):
    label: str
    argv: list[str]
    rc: int | None = None
    err: str = ""
    test: str | None = None


def write_files(root: Path) -> None:
    for name, content in FILES.items():
        path = Path(root, name)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content if isinstance(content, str)
                            else json.dumps(content))


def resolve(text: str, root: str) -> str:
    """text with each FILE/ naming root."""
    return text.replace("FILE/", f"{root}/")


NAN, INF = float("nan"), float("inf")
I2 = [[1.0, 0.0], [0.0, 1.0]]
I3 = np.eye(3).tolist()
D9 = {"n": 4, "xbar": [-0.9724726, 1.3202681],
      "S": [[0.8144316, 0.5688416], [0.5688416, 1.9682059]]}
MVN4 = {"n": 4, "xbar": [0.0, 0.0], "S": I2}
TOY = {"mu": [0.5, -1.0, 2.0], "Sigma": [[1.0, 0.6, 0.2], [0.6, 1.5, 0.4],
                                         [0.2, 0.4, 2.0]], "split": 1}
TOY2 = {"mu": [0.0, 0.0], "Sigma": I2, "split": 1}
GIBBS = ["--n-samples", "1000", "--n-warmup", "100", "--seed", "3"]
# the separable 40-row set, y = 1{x > 0}, x ~ N(0, 1), scaled
SEPARABLE = np.random.default_rng(0).standard_normal(40)
PROBIT_ROWS = "y,x1,x2\n1,1.0,0.3\n0,1.0,-0.8\n1,1.0,{}\n0,1.0,0.1\n"
# rows whose large entries are 1e{} (linear y; MVN x1); exact and mfvb
# report them at 1e80 and 1e150, where an MP sweep's squares overflow
VAST_LINEAR = "y,x1\n1e{0},1\n-1e{0},2\n1e{0},3\n5,4\n"
VAST_MVN = "x1,x2\n1e{0},1\n-2e{0},2\n1e{0},3\n3,3\n"
FINITE = "must be finite"


def _start(mean, cov=I2, **more) -> dict:
    """A report holding only q(beta) = N(mean, cov), for --init-from."""
    return {"q": {"beta": {"family": "gaussian", "mean": mean, "cov": cov,
                           **more}}}


FILES = {
    "d9.json": D9,
    "toy.json": TOY,
    "toy2.json": {**TOY, "split": 2},
    "probit-nan.csv": PROBIT_ROWS.format("nan"),
    "probit-inf.csv": PROBIT_ROWS.format("inf"),
    # finite entries whose Z^T Z overflows
    "probit-overflow.csv": ("y,x1,x2\n1,1.0,1e200\n0,1.0,-3e199\n1,1.0,0.5\n"
                            "0,1.0,0.1\n"),
    "separable-1e150.csv": "y,x1\n" + "".join(
        f"{float(v > 0)!r},{float(1e150 * v)!r}\n" for v in SEPARABLE),
    "separable-1e160.csv": "y,x1\n" + "".join(
        f"{float(v > 0)!r},{float(1e160 * v)!r}\n" for v in SEPARABLE),
    "separable.csv": "y,x1\n" + "".join(
        f"{float(v > 0)!r},{float(v)!r}\n" for v in SEPARABLE),
    "linear-nan.csv": "y,x1\nnan,1\n1.08,1\n-2.14,1\n",
    "bad-cell.csv": "y,x1\n1.0,2.0\n3.0,oops\n",
    "ragged.csv": "y,x1\n1.0,2.0,9.9\n",
    "empty.csv": "",
    "header-only.csv": "y,x1\n",
    # bare-CR line ends, as old Mac programs save them; with a blank row
    "linear-cr.csv": ("y,x1,x2\r1.2,0.5,1.0\r-0.3,1.5,0.2\r2.1,-0.7,1.1\r"
                      "0.4,0.9,-1.3\r1.7,2.2,0.6\r-1.1,-0.4,0.8\r"),
    "cr-blank.csv": "y,x1\r1,2\r\r3,4\r",
    "no-y.csv": "a,b\n1.0,2.0\n3.0,4.0\n",
    "y-only.csv": "y\n1.0\n2.0\n",
    "dup-column.csv": "y,x1,x2\n0.5,1,1\n1.5,2,2\n2.0,3,3\n4.5,4,4\n",
    "mvn-nan.csv": "x1,x2\n0.1,nan\n0.5,0.2\n-0.3,0.9\n",
    "not-json.json": "{",
    "list.json": [1, 2],
    "mvn-n-float.json": {**MVN4, "n": 4.7},
    "mvn-n-string.json": {**MVN4, "n": "abc"},
    "mvn-n-negative.json": {**MVN4, "n": -1},
    "mvn-xbar-string.json": {**MVN4, "xbar": "zz"},
    "mvn-ragged-S.json": {**MVN4, "S": [[1.0, 0.0], [0.0]]},
    "mvn-missing-S.json": {"n": 4, "xbar": [0.0, 0.0]},
    # xbar xbar' overflows, xbar does not
    "mvn-xbar-1e300.json": {**MVN4, "xbar": [1e300, 1.0]},
    # no data: S = 0, and q(mu)'s t has no variance
    "mvn-n0.json": {**MVN4, "n": 0, "S": [[0.0, 0.0], [0.0, 0.0]]},
    "toy-split-float.json": {**TOY2, "split": 1.6},
    "toy-split-string.json": {**TOY2, "split": "x"},
    "toy-split-out.json": {**TOY, "split": 3},
    "toy-nan-mu.json": {**TOY2, "mu": [NAN, 0.0]},
    # MP needs more than its 10,000 sweeps; the mean-field fit none
    "toy-rho9999.json": {"mu": [0.0, 0.0], "Sigma": [[1.0, 0.9999],
                                                     [0.9999, 1.0]],
                         "split": 1},
    "init-missing-key.json": {"q": {"sigma2": {"shape": 3}}},
    "init-no-block.json": {"q": {}},
    "init-linear-nan.json": {"q": {"sigma2": {"family": "inverse_gamma",
                                              "shape": NAN, "scale": 1.0}}},
    "init-probit-inf.json": {"q": {"beta": {"family": "gaussian",
                                            "mean": [INF, 0.0, 0.0]}}},
    "init-mvn-inf.json": {"q": {"Sigma": {"family": "inverse_wishart",
                                          "scale_matrix": I2, "dof": INF}}},
    "init-probit-p2.json": _start([0.0, 0.0]),
    "init-shape-zero.json": {"q": {"sigma2": {
        "family": "inverse_gamma", "shape": 0.0, "scale": 1.0}}},
    "init-mvn-p3.json": {"q": {"Sigma": {
        "family": "inverse_wishart", "scale_matrix": I3, "dof": 7.0}}},
    "init-mvn-dof-half.json": {"q": {"Sigma": {"family": "inverse_wishart",
                                               "scale_matrix": I2,
                                               "dof": 0.5}}},
    "init-probit-tiny-slope.json": _start([0.0, 1e-150]),
    # log p(y, beta) is -inf here, as beta' D beta overflows
    "init-probit-huge-intercept.json": _start([1e200, 0.0]),
    "init-probit-vast-mean.json": _start([1e308, 1e308]),
    "init-probit-no-cov.json": {"q": {"beta": {"family": "gaussian",
                                               "mean": [0.0, 1e-150]}}},
    "init-probit-loc.json": _start([0.0, 0.0], loc=[0.0, 0.0]),
    # an intercept variance of 1e15, where xi's mode search once failed
    "init-probit-vast-variance.json": _start([0.0, 0.0],
                                             [[1e15, 0.0], [0.0, 1.0]]),
    # finite starting shapes whose squares overflow a double
    "init-linear-shape-1e300.json": {"q": {"sigma2": {
        "family": "inverse_gamma", "shape": 1e300, "scale": 1.0}}},
    "init-linear-scale-1e160.json": {"q": {"sigma2": {
        "family": "inverse_gamma", "shape": 3.0, "scale": 1e160}}},
    "init-mvn-dof-1e160.json": {"q": {"Sigma": {
        "family": "inverse_wishart", "scale_matrix": I2, "dof": 1e160}}},
    # rows whose q-density scales a double holds but not their squares
    "vast-linear.csv": VAST_LINEAR.format(80),
    "vast-mvn.csv": VAST_MVN.format(150),
    # rows on which linear mp2's first t dof is 4.02 and its quadratic
    # form's variance overflows
    "t-dof-near-four.csv": "y,x1\n1.8e76,-1.5\n1.2e76,0.84\n3.5e75,0.13\n",
    # finite entries near 1e160: X'X overflows where x1 holds them, y'y
    # where y does
    "XtX-overflow.csv": "y,x1\n1,1e160\n2,-1e160\n3,1e160\n4,4\n",
    "yty-overflow.csv": "y,x1\n1e160,1\n-1e160,2\n1e160,3\n5,4\n",
    "linear4.csv": "y,x1\n-1.48,1\n1.08,1\n-2.14,1\n5.54,1\n",
    "linear1.csv": "y,x1\n1,2\n",
    # past the csv module's field limit (131,072), json's nesting depth and
    # int's 4,300-digit conversion limit
    "long-cell.csv": "y,x1\n1," + "a" * 200_000 + "\n",
    "long-header.csv": "y," + "x" * 200_000 + "\n1,2\n",
    "deep.json": "[" * 100_000 + "]" * 100_000,
    "long-integer.json": '{"n": ' + "1" * 5_000 + "}",
}

SETUP = [Case(label, argv) for label, argv in [
    ("generate linear fixed", ["generate", "--model", "linear", "--fixed",
                               "--out", "FILE/c7.csv"]),
    ("generate linear", ["generate", "--model", "linear", "--n", "40",
                         "--p", "3", "--seed", "7", "--beta", "1,-2,0.5",
                         "--sigma", "0.7", "--out", "FILE/linear.csv"]),
    ("generate probit", ["generate", "--model", "probit", "--n", "120",
                         "--p", "3", "--seed", "5",
                         "--out", "FILE/probit.csv"]),
    ("generate probit no intercept", [
        "generate", "--model", "probit", "--n", "80", "--p", "2",
        "--seed", "2", "--no-intercept", "--out", "FILE/probit2.csv"]),
    ("generate mvn", ["generate", "--model", "mvn", "--n", "30", "--p",
                      "3", "--seed", "4", "--out", "FILE/mvn.csv"]),
    # a file of thousands of rows, pinned byte for byte
    ("generate probit 5000x20", [
        "generate", "--model", "probit", "--n", "5000", "--p", "20",
        "--seed", "1", "--out", "FILE/probit-5000.csv"]),
    # dmvb stops at max_iter on this set; laplace and mp-dm converge
    ("generate probit seed 50", [
        "generate", "--model", "probit", "--n", "32", "--p", "4",
        "--seed", "50", "--out", "FILE/probit-50.csv"])]]

INPUTS = {
    "linear": [["--data", "FILE/c7.csv"], ["--data", "FILE/linear.csv"],
               ["--data", "FILE/linear.csv", "--intercept", "--g", "100"]],
    "mvn": [["--summary", "FILE/d9.json"], ["--data", "FILE/mvn.csv"],
            ["--summary", "FILE/d9.json", "--nu0", "5",
             "--psi0-scale", "2", "--lambda0", "0.5"]],
    "probit": [["--data", "FILE/probit.csv"],
               ["--data", "FILE/probit2.csv", "--intercept",
                "--lambda", "1"]],
    "toy": [["--summary", "FILE/toy.json"], ["--summary", "FILE/toy2.json"]],
}
METHODS = {model: list(spec.fits) for model, spec in cli.MODELS.items()}


def _fits() -> list[tuple]:
    fits = []
    for model, methods in METHODS.items():
        for i, inp in enumerate(INPUTS[model]):
            for method in methods:
                base = ["fit", "--model", model, "--method", method, *inp,
                        *(GIBBS if method == "gibbs" else [])]
                label = f"fit {model}#{i} {method}"
                fits.append((label, base))
                if i == 0:
                    fits += [(f"{label} --trace", base + ["--trace"]),
                             (f"{label} --pretty", base + ["--pretty"]),
                             (f"{label} --max-iter 2",
                              base + ["--max-iter", "2"])]
    return fits


def _init() -> list[tuple]:
    init = []
    for model, method, inp in [
            ("linear", "mfvb", 0), ("linear", "mp1", 0), ("linear", "mp2", 1),
            ("mvn", "mfvb", 0), ("mvn", "mp", 0), ("mvn", "mp", 1),
            ("probit", "laplace", 0), ("probit", "mfvb", 0),
            ("probit", "mp-dm", 0), ("probit", "mp-quad", 0),
            ("probit", "dmvb", 0), ("probit", "gibbs", 0)]:
        first = f"FILE/init-{model}-{method}-{inp}.json"
        fit = ["fit", "--model", model, "--method", method,
               *INPUTS[model][inp]]
        extra = GIBBS if method == "gibbs" else []
        init.append((f"init write {model}#{inp} {method}",
                     fit + extra + ["--out", first]))
        # a Gibbs report starts the MP fit; every other report its own method
        again = fit if method != "gibbs" else fit[:4] + ["mp-dm"] + fit[5:]
        init.append((f"init from {model}#{inp} {method}",
                     again + ["--init-from", first]))
    return init


def _unread_options() -> list[tuple]:
    """Each option of cli._DEFAULTS that fit or compare offers and the
    model does not read: a usage error that names it, raised before the
    (here missing) input is looked for. compare runs on the models with a
    reference."""
    sub, = [a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    rows = []
    for command in ("fit", "compare"):
        for model, spec in cli.MODELS.items():
            if command == "compare" and not spec.reference:
                continue
            methods = METHODS[model]
            head = (["fit", "--model", model, "--method", methods[0]]
                    if command == "fit" else
                    ["compare", "--model", model, "--methods",
                     ",".join(methods[:2])])
            for action in sub.choices[command]._actions:
                if action.dest in cli._DEFAULTS and action.dest not in \
                        spec.reads:
                    flag = action.option_strings[0]
                    rows.append((
                        f"usage: {command} {model} unread {flag}",
                        head + [flag] + ["1"] * (action.nargs != 0), 2,
                        f"{command} --model {model} does not read {flag}",
                        f"unread[{command}-{model}-{flag[2:]}]"))
    return rows


LINEAR_FIT = ["fit", "--model", "linear", "--method", "mp2",
              "--data", "FILE/c7.csv"]
# (label, argv[, rc, err, test]) in run order, as Case takes them
ROWS = [
    *_fits(),
    # toy reads neither option, and is rejected for --emit-density alone
    *((f"density {model} {method} {name}",
       ["fit", "--model", model, "--method", method, *INPUTS[model][0],
        *(GIBBS if method == "gibbs" else []), "--emit-density", name,
        *([] if model == "toy" else
          ["--density-out", f"FILE/dens-{model}-{method}-{name}.csv"])],
       *expect)
      for model, method, name, *expect in [
          ("linear", "exact", "beta0"), ("linear", "mp1", "sigma2"),
          ("linear", "mp2", "beta0"), ("mvn", "exact", "mu1"),
          ("mvn", "mfvb", "Sigma00"), ("mvn", "mp", "Sigma11"),
          ("probit", "mp-dm", "beta2"), ("probit", "gibbs", "beta0"),
          ("linear", "exact", "nope", 2, "available: beta0, sigma2",
           "bad-input[density-unknown-name]"),
          ("toy", "mp", "block1", 2,
           "fit --model toy does not read --emit-density",
           "bad-input[density-toy]")]),
    ("density to file", [
        "fit", "--model", "linear", "--method", "mfvb", "--data",
        "FILE/c7.csv", "--emit-density", "beta0", "--density-out",
        "FILE/dens.csv", "--out", "FILE/dens-report.json"]),
    ("density to missing dir", [
        "fit", "--model", "linear", "--method", "mfvb", "--data",
        "FILE/c7.csv", "--emit-density", "beta0", "--density-out",
        "FILE/no/dens.csv"], 3, "FILE/no/dens.csv",
     "bad-input[density-out-missing-dir]"),
    ("compare linear", ["compare", "--model", "linear", "--methods",
                        "mfvb,mp1,mp2", "--data", "FILE/c7.csv"]),
    ("compare linear vs mp2", ["compare", "--model", "linear",
                               "--methods", "mfvb,exact", "--reference",
                               "mp2", "--data", "FILE/linear.csv"]),
    ("compare mvn", ["compare", "--model", "mvn", "--methods", "mfvb,mp",
                     "--summary", "FILE/d9.json"]),
    ("compare mvn raw", ["compare", "--model", "mvn", "--methods",
                         "exact,mfvb,mp", "--data", "FILE/mvn.csv"]),
    ("compare probit", ["compare", "--model", "probit", "--methods",
                        "laplace,mfvb,mp-dm,mp-quad,dmvb",
                        "--data", "FILE/probit.csv", *GIBBS]),
    ("compare probit vs laplace", [
        "compare", "--model", "probit", "--methods", "mfvb,mp-dm",
        "--reference", "laplace", "--data", "FILE/probit2.csv"]),
    ("compare capped", ["compare", "--model", "linear", "--methods",
                        "mfvb,mp1", "--max-iter", "2",
                        "--data", "FILE/c7.csv"]),
    ("compare probit vs unconverged dmvb", [
        "compare", "--model", "probit", "--methods", "laplace,mp-dm",
        "--reference", "dmvb", "--data", "FILE/probit-50.csv"]),
    *_init(),
    ("init write linear#0 exact", [
        "fit", "--model", "linear", "--method", "exact", "--data",
        "FILE/c7.csv", "--out", "FILE/init-exact.json"]),
    ("init from linear#0 exact", [
        "fit", "--model", "linear", "--method", "mp2", "--data",
        "FILE/c7.csv", "--init-from", "FILE/init-exact.json"]),
    ("init toy rejected", [
        "fit", "--model", "toy", "--method", "mp", "--summary",
        "FILE/toy.json", "--init-from", "FILE/toy.json"], 2,
     "fit --model toy does not read --init-from", "bad-input[init-from-toy]"),
    # a linear report's q.beta is a t density, which no probit fit starts from
    ("init from linear#1 mp2 to probit", [
        "fit", "--model", "probit", "--method", "mp-dm", "--data",
        "FILE/probit.csv", "--init-from", "FILE/init-linear-mp2-1.json"]),
    # the d9 report is bivariate, mvn.csv has three columns
    ("init from mvn#0 mp to mvn#1", [
        "fit", "--model", "mvn", "--method", "mp", "--data", "FILE/mvn.csv",
        "--init-from", "FILE/init-mvn-mp-0.json"]),
    ("usage: no command", []),
    ("usage: unknown model", ["fit", "--model", "nope", "--method", "mp"]),
    ("usage: method not of model", ["fit", "--model", "linear",
                                    "--method", "mp-dm", "--data",
                                    "FILE/c7.csv"], 2,
     "method 'mp-dm' is not valid for model 'linear'", "method-model-pair"),
    ("usage: linear without data", ["fit", "--model", "linear",
                                    "--method", "mfvb"], 2,
     "linear needs --data CSV", "bad-input[linear-without-data]"),
    ("usage: mvn without input", ["fit", "--model", "mvn", "--method",
                                  "exact"], 2,
     "mvn needs --data (raw CSV) or --summary (JSON)",
     "bad-input[mvn-without-input]"),
    ("usage: toy without summary", ["fit", "--model", "toy", "--method",
                                    "mp"], 2,
     "toy needs --summary (JSON with mu, Sigma, split)",
     "bad-input[toy-without-summary]"),
    ("usage: max-iter 0", LINEAR_FIT + ["--max-iter", "0"], 2,
     "max_iter must be at least 1", "zero-max-iter[argv1]"),
    ("usage: eps 0", LINEAR_FIT + ["--eps", "0"]),
    ("usage: bad --max-iter", LINEAR_FIT + ["--max-iter", "x"]),
    ("usage: compare one method", ["compare", "--model", "linear",
                                   "--methods", "mp2", "--reference",
                                   "exact", "--data", "FILE/c7.csv"], 2,
     "compare needs at least two methods", "two-methods"),
    ("usage: compare bad reference", ["compare", "--model", "linear",
                                      "--methods", "mfvb,mp1",
                                      "--reference", "gibbs", "--data",
                                      "FILE/c7.csv"]),
    ("usage: compare toy", ["compare", "--model", "toy", "--methods",
                            "mp,mfvb", "--summary", "FILE/toy.json"]),
    ("usage: gibbs too few draws", [
        "fit", "--model", "probit", "--method", "gibbs", "--data",
        "FILE/probit.csv", "--n-samples", "500"]),
    ("usage: gibbs negative warmup", [
        "fit", "--model", "probit", "--method", "gibbs", "--data",
        "FILE/probit.csv", "--n-samples", "1000", "--n-warmup", "-5"], 2,
     "n_warmup must be non-negative", "bad-input[gibbs-negative-warmup]"),
    ("usage: generate toy", ["generate", "--model", "toy", "--out",
                             "FILE/x.csv"]),
    ("usage: generate fixed with shape flags", [
        "generate", "--model", "linear", "--fixed", "--n", "50", "--p",
        "4", "--seed", "3", "--beta", "1,2,3,4", "--sigma", "9", "--out",
        "FILE/fixed-flags.csv"]),
    ("usage: generate bad beta", ["generate", "--model", "linear",
                                  "--beta", "1,x", "--out",
                                  "FILE/bad-beta.csv"], 2,
     "bad vector '1,x'", "bad-vector"),
    *((f"usage: generate {model} short beta", [
        "generate", "--model", model, "--p", "3", "--beta", "1,2",
        "--out", "FILE/short-beta.csv"], 2,
       "beta has shape (2,); p = 3 needs (3,)",
       f"bad-input[generate-{model}-short-beta]")
      for model in ("linear", "probit")),
    ("usage: generate nan sigma", ["generate", "--model", "linear",
                                   "--sigma", "nan", "--out",
                                   "FILE/nan-sigma.csv"], 2,
     "generated y must be finite", "bad-input[generate-linear-nan-sigma]"),
    ("usage: generate negative sigma", [
        "generate", "--model", "linear", "--sigma", "-1", "--out",
        "FILE/negative-sigma.csv"], 2, "sigma must be non-negative",
     "bad-input[generate-linear-negative-sigma]"),
    # a flag the model does not read
    *((f"usage: generate {model} {flag}", [
        "generate", "--model", model, flag, *value, "--out",
        f"FILE/unread-{model}-{flag[2:]}.csv"], 2,
       f"generate --model {model} does not read {flag}",
       f"bad-input[generate-{model}-unread-{flag[2:]}]")
      for model, flag, value in (("probit", "--fixed", []),
                                 ("mvn", "--beta", ["1,2"]),
                                 ("probit", "--sigma", ["3"]),
                                 ("linear", "--no-intercept", []))),
    *_unread_options(),
    # a p = 3 CSV beside a p = 2 summary: neither is dropped in silence
    ("usage: mvn data and summary", [
        "fit", "--model", "mvn", "--method", "exact", "--data",
        "FILE/mvn.csv", "--summary", "FILE/d9.json"], 2,
     "mvn reads --data or --summary, not both",
     "bad-input[mvn-data-and-summary]"),
    ("usage: density-out without emit-density", [
        "fit", "--model", "linear", "--method", "exact", "--data",
        "FILE/c7.csv", "--density-out", "FILE/unread-density.csv"], 2,
     "fit --model linear does not read --density-out",
     "bad-input[density-out-without-emit-density]"),
    # the grid and the report would share stdout
    ("usage: emit-density without density-out", [
        "fit", "--model", "linear", "--method", "exact", "--data",
        "FILE/c7.csv", "--emit-density", "beta0"], 2,
     "--emit-density needs --density-out",
     "bad-input[emit-density-without-density-out]"),
    *((f"usage: generate {model} beta overflow", [
        "generate", "--model", model, "--beta", "1e308,1e308", "--out",
        "FILE/overflow.csv"], 2, f"generated {column} must be finite",
       f"bad-input[generate-{model}-overflow]")
      for model, column in (("linear", "y"), ("probit", "X beta"))),
    ("usage: negative seed generate", [
        "generate", "--model", "probit", "--n", "20", "--p", "2",
        "--seed", "-1", "--out", "FILE/negative-seed.csv"], 2,
     "seed must be non-negative", "bad-input[generate-negative-seed]"),
    ("usage: negative seed gibbs", [
        "fit", "--model", "probit", "--method", "gibbs", "--data",
        "FILE/probit.csv", "--n-samples", "1000", "--seed", "-1"], 2,
     "seed must be non-negative", "bad-input[gibbs-negative-seed]"),
    ("domain: mvn negative n", ["fit", "--model", "mvn", "--method",
                                "exact", "--summary",
                                "FILE/mvn-n-negative.json"], 2,
     "negative sample count", "bad-input[mvn-summary-n-negative]"),
    # psi0-scale times I once gave inf * 0 a RuntimeWarning
    *(("domain: mvn psi0 nan" if (method, s) == ("exact", "nan") else
       f"bad-input[mvn-psi0-scale-{s}-{method}]",
       ["fit", "--model", "mvn", "--method", method, "--summary",
        "FILE/d9.json", f"--psi0-scale={s}"], 2, "Psi0 must be finite",
       f"bad-input[mvn-psi0-scale-{s}-{method}]")
      for s in ("nan", "inf", "-inf") for method in ("exact", "mp")),
    ("domain: toy split out of range", [
        "fit", "--model", "toy", "--method", "mp", "--summary",
        "FILE/toy-split-out.json"]),
    # every probit fit stops on its first Cholesky inverse, never on a
    # traceback, a domain error about a later value, or a report of nulls
    *((f"numeric: probit overflow {method}", [
        "fit", "--model", "probit", "--method", method, "--data",
        "FILE/probit-overflow.csv"], 4, "numeric failure: ",
       f"probit-design[{method}]") for method in METHODS["probit"]),
    # the fit's last M^-1 is not positive definite, which the fit made, so
    # the q-density's check is a numeric failure, not a domain error
    ("numeric: dmvb invalid fitted density", [
        "fit", "--model", "probit", "--method", "dmvb", "--intercept",
        "--lambda", "0.01", "--data", "FILE/separable-1e150.csv",
        "--init-from", "FILE/init-probit-tiny-slope.json"], 4,
     "numeric failure: the fitted q-density is invalid: cov is not positive "
     "definite\n", "dmvb-invalid-density"),
    # the variances v_i are about 1e300, so walk 1's Gram matrix A
    # overflows: a numeric failure, not a Stein solve that does not converge
    ("numeric: mp-dm Gram overflow", [
        "fit", "--model", "probit", "--method", "mp-dm", "--intercept",
        "--lambda", "0.01", "--data", "FILE/separable-1e150.csv",
        "--init-from", "FILE/init-probit-tiny-slope.json"], 4,
     "numeric failure: a Gram matrix of the covariance equation is not "
     "finite\n", "mp-dm-gram"),
    # beta^T D beta overflows, so log p(y, beta) is -inf at the start: a
    # numeric failure, not 500 failed Armijo tests that end unconverged
    *((f"numeric: {method} start not finite", [
        "fit", "--model", "probit", "--method", method, "--intercept",
        "--data", "FILE/separable.csv",
        "--init-from", "FILE/init-probit-huge-intercept.json"], 4,
       "numeric failure: log p(y, beta) is not finite at the starting "
       "mean\n", f"log-density-start[{method}]")
      for method in ("laplace", "mfvb", "dmvb")),
    # finite prior shapes whose squares overflow a double: exact and
    # mfvb report, the MP fits stop on one line, before their first sweep
    *((f"vast prior: linear {method} A 1e300", [
        "fit", "--model", "linear", "--method", method, "--data",
        "FILE/c7.csv", "--A", "1e300"],
       *(() if method in ("exact", "mfvb") else
         (4, "numeric failure: q(sigma2) shape 1e+300 is too large for "
          "moment matching\n", f"vast-prior-mp[linear-{method}]")))
      for method in METHODS["linear"]),
    ("vast prior: mvn mp nu0 1e160", [
        "fit", "--model", "mvn", "--method", "mp", "--summary",
        "FILE/d9.json", "--nu0", "1e160"], 4,
     "numeric failure: q(mu) dof 1e+160 is too large for moment matching\n",
     "vast-prior-mp[mvn-mp]"),
    # data whose MP sweeps square a scale past a double, marginals that a
    # grid of doubles cannot hold, an IG variance of inf / inf
    *((f"vast data: {m} {f}", ["fit", "--model", m, "--method", f,
                               "--data", f"FILE/vast-{m}.csv"], 4,
       "numeric failure: map 1 is not representable: overflow encountered "
       f"in {op}\n", f"vast-data-mp[{m}-{f}]")
      for m, f, op in (("linear", "mp1", "scalar power"),
                       ("linear", "mp2", "scalar power"),
                       ("mvn", "mp", "square"))),
    ("vast data: linear mp2 t dof near 4", [
        "fit", "--model", "linear", "--method", "mp2", "--data",
        "FILE/t-dof-near-four.csv"], 4,
     "numeric failure: map 1 is not representable: overflow encountered in "
     "scalar divide\n", "vast-data-mp[linear-mp2-t-dof-near-four]"),
    *((f"vast shape: compare {f} A {a}", ["compare", "--model", "linear",
        "--methods", f, "--data", "FILE/linear4.csv", "--A", a])
      for f, a in (("mfvb,mp2", "1e16"), ("mfvb,mp2", "1e20"),
                   ("mfvb,exact", "1e300"))),
    # an inverse-gamma marginal of shape 1e20 (490 inf densities) or 5e15
    # (grid mass 2.5e4)
    *((f"vast shape: density {m} {name}", [
        "fit", "--model", m, "--method", "exact", *inp.split(),
        "--emit-density", name, "--density-out", "FILE/dens-vast.csv"], 4,
       f"numeric failure: marginal {name} has no density grid: a 4001-point "
       "double-precision grid cannot hold it\n", f"density-grid[{test}]")
      for m, name, inp, test in (
          ("linear", "sigma2", "--A 1e20 --data FILE/c7.csv", "linear-A-1e20"),
          ("mvn", "Sigma00", "--nu0 1e16 --summary FILE/d9.json",
           "mvn-nu0-1e16"))),
    ("vast prior: linear exact A B 1e300", LINEAR_FIT[:4] + [
        "exact", "--data", "FILE/c7.csv", "--A", "1e300", "--B", "1e300"]),
    # numpy refuses the array of 1e15 rows before touching any memory
    *((label, argv + ["--n-samples" if argv[0] != "generate" else "--n",
                      "1000000000000000", "--out", f"FILE/{test}.out"], 4,
       "numeric failure: Unable to allocate ", f"allocation[{test}]")
      for label, test, argv in (
          ("numeric: gibbs chain too large", "fit-gibbs",
           ["fit", "--model", "probit", "--method", "gibbs", "--data",
            "FILE/probit.csv"]),
          ("allocation[compare-probit]", "compare-probit",
           ["compare", "--model", "probit", "--methods", "laplace,mfvb",
            "--data", "FILE/probit.csv"]),
          *((f"allocation[generate-{model}]", f"generate-{model}",
             ["generate", "--model", model])
            for model in ("linear", "mvn", "probit")))),
    *((f"toy rho 0.9999 {method}", [
        "fit", "--model", "toy", "--method", method, "--summary",
        "FILE/toy-rho9999.json"]) for method in ("mp", "mfvb")),
    ("io: missing file", ["fit", "--model", "linear", "--method", "mfvb",
                          "--data", "FILE/missing.csv"], 3,
     "cannot read FILE/missing.csv", "missing-file"),
    ("io: unwritable --out", LINEAR_FIT + ["--out", "FILE/no/dir.json"], 3,
     "FILE/no/dir.json", "bad-input[fit-out-missing-dir]"),
    ("io: generate unwritable", ["generate", "--model", "mvn", "--out",
                                 "FILE/no/dir.csv"], 3, "FILE/no/dir.csv",
     "bad-input[generate-out-missing-dir]"),
    ("fit --pretty --out", LINEAR_FIT + ["--pretty", "--out",
                                         "FILE/pretty.json"]),
    # name -> (model, method, input flag, and the test's expectation if any)
    *((f"input: {name}", ["fit", "--model", model, "--method", method, flag,
                          f"FILE/{name}"], *expect)
      for name, (model, method, flag, *expect) in {
          "probit-nan.csv": ("probit", "mp-dm", "--data", 2, FINITE,
                             "bad-input[probit-nan-fit-mp-dm]"),
          "linear-nan.csv": ("linear", "mfvb", "--data", 2, FINITE,
                             "bad-input[linear-nan-y]"),
          "bad-cell.csv": ("linear", "mfvb", "--data", 3,
                           "row 3, col 2", "bad-csv-row-col"),
          "ragged.csv": ("linear", "mfvb", "--data", 3, "FILE/ragged.csv",
                         "ragged-csv"),
          "empty.csv": ("linear", "mfvb", "--data"),
          "header-only.csv": ("linear", "mfvb", "--data"),
          "linear-cr.csv": ("linear", "exact", "--data"),
          "cr-blank.csv": ("linear", "mfvb", "--data"),
          "no-y.csv": ("linear", "mfvb", "--data", 3,
                       "header must contain a 'y' column",
                       "bad-input[csv-no-y]"),
          "y-only.csv": ("linear", "mfvb", "--data", 3,
                         "no predictor columns", "bad-input[csv-y-only]"),
          "dup-column.csv": ("linear", "mp2", "--data", 4,
                             "numeric failure: X is rank deficient\n",
                             "rank-deficient"),
          "mvn-nan.csv": ("mvn", "exact", "--data", 2, FINITE,
                          "bad-input[mvn-raw-nan]"),
          "not-json.json": ("mvn", "exact", "--summary", 3, "invalid JSON",
                            "bad-input[mvn-summary-invalid-json]"),
          "list.json": ("mvn", "exact", "--summary"),
          "mvn-n-float.json": ("mvn", "exact", "--summary", 2,
                               "n must be a whole number",
                               "bad-input[mvn-summary-n-fraction]"),
          "mvn-n-string.json": ("mvn", "mp", "--summary", 3,
                                "FILE/mvn-n-string.json",
                                "bad-input[mvn-summary-n-string]"),
          "mvn-xbar-string.json": ("mvn", "mp", "--summary", 3,
                                   "FILE/mvn-xbar-string.json",
                                   "bad-input[mvn-summary-xbar-string]"),
          "mvn-ragged-S.json": ("mvn", "mp", "--summary", 3,
                                "FILE/mvn-ragged-S.json",
                                "bad-input[mvn-summary-ragged-S]"),
          "mvn-missing-S.json": ("mvn", "mp", "--summary"),
          "toy-split-float.json": ("toy", "mp", "--summary", 2,
                                   "split must be a whole number",
                                   "bad-input[toy-split-fraction]"),
          "toy-split-string.json": ("toy", "mp", "--summary", 3,
                                    "FILE/toy-split-string.json",
                                    "bad-input[toy-split-string]"),
          "toy-nan-mu.json": ("toy", "mp", "--summary", 2, FINITE,
                              "bad-input[toy-nan-mu]"),
          "long-cell.csv": ("linear", "mfvb", "--data", 3,
                            "FILE/long-cell.csv", "bad-input[csv-long-cell]"),
          "long-header.csv": ("linear", "mfvb", "--data", 3,
                              "FILE/long-header.csv",
                              "bad-input[csv-long-header]"),
          "deep.json": ("mvn", "exact", "--summary", 3, "FILE/deep.json",
                        "bad-input[json-deep-summary]"),
          "long-integer.json": ("mvn", "exact", "--summary", 3,
                                "FILE/long-integer.json",
                                "bad-input[json-long-integer-summary]"),
      }.items()),
    # name -> (the fit, and the test's expectation if any)
    *((f"init-from: {name}", argv + ["--init-from", f"FILE/{name}"], *expect)
      for name, (argv, *expect) in {
          "init-missing-key.json": (LINEAR_FIT, 3,
                                    "FILE/init-missing-key.json",
                                    "bad-input[init-from-missing-key]"),
          "init-no-block.json": (LINEAR_FIT, 3, "lacks q.sigma2",
                                 "bad-input[init-from-no-q-block]"),
          "list.json": (LINEAR_FIT, 3, "FILE/list.json",
                        "bad-input[init-from-list]"),
          "not-json.json": (LINEAR_FIT,),
          "init-linear-nan.json": (LINEAR_FIT, 2,
                                   "--init-from q.sigma2 must be finite",
                                   "bad-input[init-from-nan-linear]"),
          "init-probit-inf.json": (
              ["fit", "--model", "probit", "--method", "mp-dm", "--data",
               "FILE/probit.csv"], 2, "--init-from q.beta must be finite",
              "bad-input[init-from-inf-probit]"),
          "init-mvn-inf.json": (["fit", "--model", "mvn", "--method", "mp",
                                 "--summary", "FILE/d9.json"],),
          "init-probit-p2.json": (
              ["fit", "--model", "probit", "--method", "laplace", "--data",
               "FILE/probit.csv"], 2,
              "init mean has shape (2,); the data needs (3,)",
              "bad-input[init-from-wrong-dimension-probit-laplace]"),
          # a q.beta that lacks cov is an input error naming that field,
          # not the constructor's signature
          "init-probit-no-cov.json": (
              ["fit", "--model", "probit", "--method", "dmvb", "--data",
               "FILE/probit.csv"], 3,
              "error: FILE/init-probit-no-cov.json: malformed value: missing "
              "a required argument: 'cov'\n", "init-field[missing-cov]"),
          "init-mvn-dof-half.json": (
              ["fit", "--model", "mvn", "--method", "mfvb", "--summary",
               "FILE/d9.json"], 2,
              "inverse-Wishart dof must be finite and exceed p - 1",
              "bad-input[init-from-iw-dof-half-mvn-mfvb]"),
          "deep.json": (LINEAR_FIT, 3, "FILE/deep.json",
                        "bad-input[json-deep-init-from]"),
      }.items()),
]

# id -> (argv, with IN for the case's own input, that input's content or
# None for no file, exit code, err)
BAD_INPUTS = {
    **{f"probit-{cell}-{name}": (argv + ["--data", f"FILE/probit-{cell}.csv"],
                                 None, 2, FINITE)
       for cell in ("inf", "nan")
       for name, argv in (
           ("fit-mfvb", ["fit", "--model", "probit", "--method", "mfvb"]),
           ("fit-mp-dm", ["fit", "--model", "probit", "--method", "mp-dm"]),
           ("fit-mp-quad", ["fit", "--model", "probit", "--method",
                            "mp-quad"]),
           ("compare", ["compare", "--model", "probit", "--methods",
                        "mfvb,mp-dm"]))
       if (cell, name) != ("nan", "fit-mp-dm")},
    "toy-nan-Sigma": (
        ["fit", "--model", "toy", "--method", "mp", "--summary", "IN"],
        {**TOY2, "Sigma": [[NAN, 0.0], [0.0, 1.0]]}, 2, FINITE),
    "init-from-shape-one-linear-mp1": (
        ["fit", "--model", "linear", "--method", "mp1", "--data",
         "FILE/c7.csv", "--init-from", "IN"],
        {"q": {"sigma2": {"family": "inverse_gamma", "shape": 1.0,
                          "scale": 1.0}}}, 2, "shape > 1"),
    **{f"init-from-shape-zero-linear-{method}": (
        ["fit", "--model", "linear", "--method", method, "--data",
         "FILE/c7.csv", "--init-from", "FILE/init-shape-zero.json"],
        None, 2, "inverse-gamma shape and scale must be positive")
       for method in ("mfvb", "mp2")},
    **{f"csv-not-utf8-{where}": (
        ["fit", "--model", "linear", "--method", "mfvb", "--data", "IN"],
        raw, 3, "IN")
       for where, raw in (("header", b"y,\xffx1\n1,2\n"),
                          ("row", b"y,x1\n1,\xff\n"))},
    "json-not-utf8": (
        ["fit", "--model", "mvn", "--method", "exact", "--summary", "IN"],
        b'{"n": "\xff"}', 3, "IN"),
    "init-from-family-mismatch": (
        ["fit", "--model", "probit", "--method", "mp-dm", "--data",
         "FILE/probit.csv", "--init-from", "IN"],
        {"q": {"beta": {"family": "student_t", "loc": [0.0, 0.0, 0.0],
                        "scale": I3, "dof": 5.0}}}, 3,
        "--init-from q.beta has family 'student_t', not gaussian or "
        "empirical"),
    **{f"init-from-wrong-dimension-probit-{method}": (
        ["fit", "--model", "probit", "--method", method, "--data",
         "FILE/probit.csv", "--init-from", "FILE/init-probit-p2.json"],
        None, 2, "init mean has shape (2,); the data needs (3,)")
       for method in ("mfvb", "mp-dm", "mp-quad", "dmvb")},
    **{f"init-from-wrong-dimension-mvn-{method}": (
        ["fit", "--model", "mvn", "--method", method, "--summary",
         "FILE/d9.json", "--init-from", "FILE/init-mvn-p3.json"],
        None, 2, "init scale matrix has shape (3, 3); the data needs (2, 2)")
       for method in ("mfvb", "mp")},
    "generate-probit-nan-beta": (
        ["generate", "--model", "probit", "--beta", "nan,1", "--out", "IN"],
        None, 2, "beta must be finite"),
    # the fixed five-point set reads none of the flags that shape a draw
    **{f"generate-linear-fixed-unread-{flag[2:]}": (
        ["generate", "--model", "linear", "--fixed", flag, value, "--out",
         "IN"], None, 2,
        f"generate --model linear --fixed does not read {flag}")
       for flag, value in (("--n", "50"), ("--p", "4"), ("--seed", "3"),
                           ("--beta", "1,2,3,4"), ("--sigma", "9"))},
    # rows whose centred cross-products overflow
    "mvn-data-overflow": (
        ["fit", "--model", "mvn", "--method", "mp", "--data", "IN"],
        "x1,x2\n1e200,1\n-2e200,2\n1e200,3\n3,3\n", 2, "S must be finite"),
    # generator sizes and a beta that gives one class only
    **{f"generate-{model}-{flag[2:]}-{value}": (
        ["generate", "--model", model, flag, value, "--out", "IN"], None, 2,
        err)
       for model, flag, value, err in (
           ("linear", "--n", "0", "n and p must be >= 1"),
           ("mvn", "--p", "0", "n and p must be >= 1"),
           ("probit", "--n", "1", "need n >= 2 and p >= 1"))},
    "generate-probit-one-class": (
        ["generate", "--model", "probit", "--p", "2", "--beta", "1e6,0",
         "--out", "IN"], None, 2,
        "could not generate both classes; check beta scale"),
    # prior values outside their domain
    **{f"{model}-{flag[2:]}-{value}": (
        ["fit", "--model", model, "--method", method, *INPUTS[model][0],
         flag, value], None, 2, err)
       for model, method, flag, value, err in (
           ("linear", "mfvb", "--g", "0",
            "prior hyperparameter g must be > 0"),
           ("mvn", "exact", "--lambda0", "0", "lambda0 must be > 0"),
           ("mvn", "exact", "--nu0", "0.5", "nu0 must exceed p - 1"),
           ("probit", "laplace", "--lambda", "0",
            "lambda must be positive"))},
    # MVN summaries outside the model's domain
    **{f"mvn-summary-{name}": (
        ["fit", "--model", "mvn", "--method", "exact", "--summary", "IN"],
        {**MVN4, **doc}, 2, err)
       for name, doc, err in (
           ("S-3x3", {"S": I3}, "S must be p x p with p = len(xbar)"),
           ("S-indefinite", {"S": [[1.0, 0.0], [0.0, -1.0]]},
            "S must be positive semidefinite"))},
    # nu_n = 4.5 > p + 2, but q(mu)'s first dof is 3.5
    "mvn-mp-dof-below-four": (
        ["fit", "--model", "mvn", "--method", "mp", "--summary", "IN",
         "--nu0", "1.5"], {**MVN4, "n": 3}, 2,
        "fourth-moment matching needs q(mu) dof >= 4; reached dof 3.5"),
}


def _tested(test: str, argv: list[str], rc: int, err: str = "") -> Case:
    """A row that only test_cli had, labelled by its test."""
    return Case(test, argv, rc, err, test)


FILES.update((id_, content) for id_, (_, content, _, _) in BAD_INPUTS.items()
             if content is not None)


PROBIT_FIT = ["fit", "--model", "probit", "--method"]
# the other rows that only test_cli had
TESTED = [
    *(_tested(f"nonfinite-prior[{model}-{method}-{flag}-{name}-{value}]",
              ["fit", "--model", model, "--method", method,
               *INPUTS[model][0], flag, value], 2, f"{name} {FINITE}")
      for value in ("inf", "nan")
      for model, method, flag, name in (
          ("linear", "mp1", "--g", "g"), ("linear", "mfvb", "--A", "A"),
          ("linear", "mfvb", "--B", "B"),
          ("mvn", "mp", "--lambda0", "lambda0"),
          ("mvn", "exact", "--nu0", "nu0"),
          ("probit", "laplace", "--lambda", "lambda"))),
    # X, which has full rank, is not called rank deficient
    *(_tested(f"linear-gram[{name}-{method}]",
              ["fit", "--model", "linear", "--method", method, "--data",
               f"FILE/{name}-overflow.csv"], 4,
              f"numeric failure: {product} is not finite\n")
      for name, product in (("XtX", "X'X"), ("yty", "y'y"))
      for method in METHODS["linear"]),
    *(_tested(f"vast-prior-mp[{model}-{method}-init]",
              ["fit", "--model", model, "--method", method, *inp,
               "--init-from", f"FILE/{start}"], 4,
              f"numeric failure: {what} is too large for moment "
              "matching\n")
      for model, method, inp, start, what in (
          ("linear", "mp2", INPUTS["linear"][0],
           "init-linear-shape-1e300.json", "q(sigma2) shape 1e+300"),
          ("mvn", "mp", INPUTS["mvn"][0], "init-mvn-dof-1e160.json",
           "q(mu) dof 1e+160"))),
    _tested("vast-data-mp[linear-mp1-init]",
            LINEAR_FIT[:4] + ["mp1", "--data", "FILE/c7.csv",
                              "--init-from",
                              "FILE/init-linear-scale-1e160.json"], 4,
            "numeric failure: map 1 is not representable: overflow "
            "encountered in scalar power\n"),
    # Z beta overflows, which every fit names before any other value
    *(_tested(f"predictor-overflow[{method}]",
              PROBIT_FIT + [method, "--intercept", "--data",
                        "FILE/separable.csv", "--init-from",
                        "FILE/init-probit-vast-mean.json"], 4,
              "numeric failure: linear predictor Z beta is not finite\n")
      for method in ("laplace", "mfvb", "mp-dm", "mp-quad", "dmvb")),
    # every predictor is above 1e5, where zeta_1 to zeta_3 vanish, so
    # M = D and every h_i = z_i^T M^-1 z_i overflows on the first step:
    # a failure naming the gradient, not a domain error about zeta
    _tested("dmvb-gradient",
            PROBIT_FIT + ["dmvb", "--intercept", "--lambda", "0.01",
                      "--data", "FILE/separable-1e160.csv",
                      "--init-from", "FILE/init-probit-tiny-slope.json"],
            4, "numeric failure: gradient of the dmvb objective in beta "
            "is not finite\n"),
    # every predictor mean is about -1e200, where zeta_2 is -1: printed
    # alone, without the overflow warnings of the zeta_2 recursion that
    # the continued fraction replaces
    *(_tested(f"vast-start-mean[{method}]",
              PROBIT_FIT + [method, "--intercept", "--data",
                        "FILE/separable.csv", "--init-from",
                        "FILE/init-probit-huge-intercept.json"], 4,
              "numeric failure: zeta_2 left (-1, 0); iteration is "
              "invalid\n")
      for method in ("mp-dm", "mp-quad")),
    _tested("init-field[unknown-loc]",
            PROBIT_FIT + ["dmvb", "--data", "FILE/probit.csv", "--init-from",
                      "FILE/init-probit-loc.json"], 3,
            "error: FILE/init-probit-loc.json: malformed value: got an "
            "unexpected keyword argument 'loc'\n"),
    *(_tested(f"zero-max-iter[argv{i}]",
              argv + ["--data", "FILE/c7.csv", "--max-iter", "0"], 2,
              "max_iter must be at least 1")
      for i, argv in ((0, ["fit", "--model", "linear", "--method",
                           "mfvb"]),
                      (2, ["compare", "--model", "linear", "--methods",
                           "mfvb,mp1", "--reference", "exact"]))),
    _tested("toy-zero-max-iter",
            ["fit", "--model", "toy", "--method", "mp", "--summary",
             "FILE/toy.json", "--max-iter", "0"], 2,
            "fit --model toy does not read --max-iter"),
    _tested("repeated-method",
            ["compare", "--model", "linear", "--methods", "mfvb,mfvb",
             "--data", "FILE/c7.csv"], 2, "at least two methods"),
# xbar xbar' overflows: every fit names Psi_n, with no RuntimeWarning
    *(_tested(f"mvn-outer-overflow[{name}]",
              argv + ["--summary", "FILE/mvn-xbar-1e300.json"], 4,
              "numeric failure: Psi_n is not finite\n")
      for name, argv in (
          *((method, ["fit", "--model", "mvn", "--method", method])
            for method in METHODS["mvn"]),
          ("compare", ["compare", "--model", "mvn", "--methods",
                       "mfvb,mp"]))),
    # no SD on either side: the SD error is null with a warning entry,
    # and no RuntimeWarning
    *(_tested(f"undefined-sd[{model}]",
              ["compare", "--model", model, "--methods", methods, *inp,
               "--out", f"FILE/undefined-sd-{model}.json"], 0)
      for model, methods, inp in (
          ("linear", "mfvb,exact", ["--A", "0.5", "--data",
                                    "FILE/linear1.csv"]),
          ("mvn", "exact,mfvb", ["--summary", "FILE/mvn-n0.json"]))),
]


CASES = [*SETUP, *(Case(*row) for row in ROWS),
         *(_tested(f"bad-input[{id_}]",
                   [f"FILE/{id_}" if a == "IN" else a for a in argv], rc,
                   f"FILE/{id_}" if err == "IN" else err)
           for id_, (argv, _, rc, err) in BAD_INPUTS.items()),
         *TESTED]
