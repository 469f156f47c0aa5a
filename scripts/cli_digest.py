"""Digest of the CLI's observable behaviour on a fixed command list.

Runs every command in-process through `momprop.cli.main` on fixtures it
writes itself into a temporary directory, and prints one line per command:
its label, exit code, and the first 16 hex digits of the sha256 of its
stdout (followed by the files it wrote through `--out` and
`--density-out`) and of its stderr. A command that raises instead of
exiting prints `rc=traceback`, with the exception's type and message
added to its stderr. The temporary directory's path is
replaced by `TMP`, and every `wall_time_s` value and the file and line of
every Python warning are masked before hashing, so two trees that behave
the same print the same lines. Each command runs under its own warnings
filter, so it shows every warning it raises, once per source line, whichever
commands ran before it. Run it on two trees and diff the output to
see which commands changed behaviour.

Usage: python scripts/cli_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np

from momprop import cli

NAN, INF = float("nan"), float("inf")
I2 = [[1.0, 0.0], [0.0, 1.0]]
D9 = {"n": 4, "xbar": [-0.9724726, 1.3202681],
      "S": [[0.8144316, 0.5688416], [0.5688416, 1.9682059]]}
TOY = {"mu": [0.5, -1.0, 2.0], "Sigma": [[1.0, 0.6, 0.2], [0.6, 1.5, 0.4],
                                         [0.2, 0.4, 2.0]], "split": 1}
GIBBS = ["--n-samples", "1000", "--n-warmup", "100", "--seed", "3"]
# the separable 40-row set, y = 1{x > 0}, x ~ N(0, 1) scaled by 1e150
SEPARABLE = np.random.default_rng(0).standard_normal(40)

# input file name -> content: text written as it is, anything else as JSON
FILES = {
    "d9.json": D9,
    "toy.json": TOY,
    "toy2.json": {**TOY, "split": 2},
    "probit-nan.csv": "y,x1,x2\n1,1.0,0.3\n0,1.0,-0.8\n1,1.0,nan\n0,1.0,0.1\n",
    # finite entries whose Z^T Z overflows
    "probit-overflow.csv": ("y,x1,x2\n1,1.0,1e200\n0,1.0,-3e199\n1,1.0,0.5\n"
                            "0,1.0,0.1\n"),
    "separable-1e150.csv": "y,x1\n" + "".join(
        f"{float(v > 0)!r},{float(1e150 * v)!r}\n" for v in SEPARABLE),
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
    "mvn-n-float.json": {**D9, "n": 4.7},
    "mvn-n-string.json": {**D9, "n": "abc"},
    "mvn-n-negative.json": {**D9, "n": -1},
    "mvn-xbar-string.json": {**D9, "xbar": "zz"},
    "mvn-ragged-S.json": {**D9, "S": [[1.0, 0.0], [0.0]]},
    "mvn-missing-S.json": {"n": 4, "xbar": [0.0, 0.0]},
    "toy-split-float.json": {**TOY, "split": 1.6},
    "toy-split-string.json": {**TOY, "split": "x"},
    "toy-split-out.json": {**TOY, "split": 3},
    "toy-nan-mu.json": {**TOY, "mu": [NAN, 0.0, 0.0]},
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
    "init-probit-p2.json": {"q": {"beta": {"family": "gaussian",
                                           "mean": [0.0, 0.0], "cov": I2}}},
    "init-mvn-dof-half.json": {"q": {"Sigma": {"family": "inverse_wishart",
                                               "scale_matrix": I2,
                                               "dof": 0.5}}},
    "init-probit-tiny-slope.json": {"q": {"beta": {"family": "gaussian",
                                                   "mean": [0.0, 1e-150],
                                                   "cov": I2}}},
    # log p(y, beta) is -inf here, as beta' D beta overflows
    "init-probit-huge-intercept.json": {"q": {"beta": {
        "family": "gaussian", "mean": [1e200, 0.0], "cov": I2}}},
    "init-probit-no-cov.json": {"q": {"beta": {"family": "gaussian",
                                               "mean": [0.0, 1e-150]}}},
    # past the csv module's field limit (131,072), json's nesting depth and
    # int's 4,300-digit conversion limit
    "long-cell.csv": "y,x1\n1," + "a" * 200_000 + "\n",
    "long-header.csv": "y," + "x" * 200_000 + "\n1,2\n",
    "deep.json": "[" * 100_000 + "]" * 100_000,
    "long-integer.json": '{"n": ' + "1" * 5_000 + "}",
}


def _commands() -> list[tuple[str, list[str]]]:
    """(label, argv) in run order; FILE/<name> names a file in the
    temporary directory, and earlier commands write the files later ones
    read."""
    gen = [
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
    ]
    inputs = {
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
    methods = {model: list(spec.fits) for model, spec in cli.MODELS.items()}
    fits = []
    for model, methods_ in methods.items():
        for i, inp in enumerate(inputs[model]):
            for method in methods_:
                base = ["fit", "--model", model, "--method", method, *inp,
                        *(GIBBS if method == "gibbs" else [])]
                label = f"fit {model}#{i} {method}"
                fits.append((label, base))
                if i == 0:
                    fits += [(f"{label} --trace", base + ["--trace"]),
                             (f"{label} --pretty", base + ["--pretty"]),
                             (f"{label} --max-iter 2",
                              base + ["--max-iter", "2"])]
    # toy reads neither option, and is rejected for --emit-density alone
    density = [
        (f"density {model} {method} {name}",
         ["fit", "--model", model, "--method", method, *inputs[model][0],
          *(GIBBS if method == "gibbs" else []), "--emit-density", name,
          *([] if model == "toy" else
            ["--density-out", f"FILE/dens-{model}-{method}-{name}.csv"])])
        for model, method, name in [
            ("linear", "exact", "beta0"), ("linear", "mp1", "sigma2"),
            ("linear", "mp2", "beta0"), ("mvn", "exact", "mu1"),
            ("mvn", "mfvb", "Sigma00"), ("mvn", "mp", "Sigma11"),
            ("probit", "mp-dm", "beta2"), ("probit", "gibbs", "beta0"),
            ("linear", "exact", "nope"), ("toy", "mp", "block1")]]
    density.append(("density to file", [
        "fit", "--model", "linear", "--method", "mfvb", "--data",
        "FILE/c7.csv", "--emit-density", "beta0", "--density-out",
        "FILE/dens.csv", "--out", "FILE/dens-report.json"]))
    density.append(("density to missing dir", [
        "fit", "--model", "linear", "--method", "mfvb", "--data",
        "FILE/c7.csv", "--emit-density", "beta0", "--density-out",
        "FILE/no/dens.csv"]))
    compare = [
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
    ]
    init = []
    for model, method, inp in [
            ("linear", "mfvb", 0), ("linear", "mp1", 0), ("linear", "mp2", 1),
            ("mvn", "mfvb", 0), ("mvn", "mp", 0), ("mvn", "mp", 1),
            ("probit", "laplace", 0), ("probit", "mfvb", 0),
            ("probit", "mp-dm", 0), ("probit", "mp-quad", 0),
            ("probit", "dmvb", 0), ("probit", "gibbs", 0)]:
        first = f"FILE/init-{model}-{method}-{inp}.json"
        fit = ["fit", "--model", model, "--method", method,
               *inputs[model][inp]]
        extra = GIBBS if method == "gibbs" else []
        init.append((f"init write {model}#{inp} {method}",
                     fit + extra + ["--out", first]))
        # a Gibbs report starts the MP fit; every other report its own method
        again = fit if method != "gibbs" else fit[:4] + ["mp-dm"] + fit[5:]
        init.append((f"init from {model}#{inp} {method}",
                     again + ["--init-from", first]))
    init.append(("init write linear#0 exact", [
        "fit", "--model", "linear", "--method", "exact", "--data",
        "FILE/c7.csv", "--out", "FILE/init-exact.json"]))
    init.append(("init from linear#0 exact", [
        "fit", "--model", "linear", "--method", "mp2", "--data",
        "FILE/c7.csv", "--init-from", "FILE/init-exact.json"]))
    init.append(("init toy rejected", [
        "fit", "--model", "toy", "--method", "mp", "--summary",
        "FILE/toy.json", "--init-from", "FILE/init-exact.json"]))
    # a linear report's q.beta is a t density, which no probit fit starts from
    init.append(("init from linear#1 mp2 to probit", [
        "fit", "--model", "probit", "--method", "mp-dm", "--data",
        "FILE/probit.csv", "--init-from", "FILE/init-linear-mp2-1.json"]))
    # the d9 report is bivariate, mvn.csv has three columns
    init.append(("init from mvn#0 mp to mvn#1", [
        "fit", "--model", "mvn", "--method", "mp", "--data", "FILE/mvn.csv",
        "--init-from", "FILE/init-mvn-mp-0.json"]))
    linear_fit = ["fit", "--model", "linear", "--method", "mp2",
                  "--data", "FILE/c7.csv"]
    errors = [
        ("usage: no command", []),
        ("usage: unknown model", ["fit", "--model", "nope", "--method", "mp"]),
        ("usage: method not of model", ["fit", "--model", "linear",
                                        "--method", "mp-dm", "--data",
                                        "FILE/c7.csv"]),
        ("usage: linear without data", ["fit", "--model", "linear",
                                        "--method", "mfvb"]),
        ("usage: mvn without input", ["fit", "--model", "mvn", "--method",
                                      "mp"]),
        ("usage: toy without summary", ["fit", "--model", "toy", "--method",
                                        "mp"]),
        ("usage: max-iter 0", linear_fit + ["--max-iter", "0"]),
        ("usage: eps 0", linear_fit + ["--eps", "0"]),
        ("usage: bad --max-iter", linear_fit + ["--max-iter", "x"]),
        ("usage: compare one method", ["compare", "--model", "linear",
                                       "--methods", "mp2", "--data",
                                       "FILE/c7.csv"]),
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
            "FILE/probit.csv", *GIBBS, "--n-warmup", "-5"]),
        ("usage: generate toy", ["generate", "--model", "toy", "--out",
                                 "FILE/x.csv"]),
        ("usage: generate fixed with shape flags", [
            "generate", "--model", "linear", "--fixed", "--n", "50", "--p",
            "4", "--seed", "3", "--beta", "1,2,3,4", "--sigma", "9", "--out",
            "FILE/fixed-flags.csv"]),
        ("usage: generate bad beta", ["generate", "--model", "linear",
                                      "--beta", "1,x", "--out",
                                      "FILE/bad-beta.csv"]),
        *((f"usage: generate {model} short beta", [
            "generate", "--model", model, "--p", "3", "--beta", "1,2",
            "--out", "FILE/short-beta.csv"]) for model in ("linear", "probit")),
        ("usage: generate nan sigma", ["generate", "--model", "linear",
                                       "--sigma", "nan", "--out",
                                       "FILE/nan-sigma.csv"]),
        ("usage: generate negative sigma", [
            "generate", "--model", "linear", "--sigma", "-1", "--out",
            "FILE/negative-sigma.csv"]),
        *((f"usage: generate {model} {flag}", [
            "generate", "--model", model, flag, *value, "--out",
            f"FILE/unread-{model}-{flag[2:]}.csv"])
          for model, flag, value in (("probit", "--fixed", []),
                                     ("mvn", "--beta", ["1,2"]),
                                     ("probit", "--sigma", ["3"]),
                                     ("linear", "--no-intercept", []))),
        # an option the model does not read, in fit and in compare
        *((f"usage: fit {model} unread {flag}", [
            "fit", "--model", model, "--method", methods[model][0],
            *inputs[model][0], flag, *value])
          for model, flag, value in (("linear", "--lambda", ["5"]),
                                     ("mvn", "--intercept", []),
                                     ("probit", "--g", ["100"]),
                                     ("toy", "--eps", ["1e-3"]))),
        *((f"usage: compare {model} unread {flag}", [
            "compare", "--model", model, "--methods",
            ",".join(methods[model][:2]), *inputs[model][0], flag, value])
          for model, flag, value in (("linear", "--n-samples", "9"),
                                     ("mvn", "--seed", "3"),
                                     ("probit", "--psi0-scale", "3"))),
        ("usage: mvn data and summary", [
            "fit", "--model", "mvn", "--method", "exact", "--data",
            "FILE/mvn.csv", "--summary", "FILE/d9.json"]),
        ("usage: density-out without emit-density",
         linear_fit + ["--density-out", "FILE/unread-density.csv"]),
        ("usage: emit-density without density-out",
         linear_fit + ["--emit-density", "beta0"]),
        *((f"usage: generate {model} beta overflow", [
            "generate", "--model", model, "--beta", "1e308,1e308", "--out",
            "FILE/overflow.csv"]) for model in ("linear", "probit")),
        ("usage: negative seed generate", [
            "generate", "--model", "probit", "--n", "20", "--p", "2",
            "--seed", "-1", "--out", "FILE/negative-seed.csv"]),
        ("usage: negative seed gibbs", [
            "fit", "--model", "probit", "--method", "gibbs", "--data",
            "FILE/probit.csv", *GIBBS[:4], "--seed", "-1"]),
        ("domain: mvn negative n", ["fit", "--model", "mvn", "--method",
                                    "exact", "--summary",
                                    "FILE/mvn-n-negative.json"]),
        ("domain: mvn psi0 nan", ["fit", "--model", "mvn", "--method",
                                  "exact", "--summary", "FILE/d9.json",
                                  "--psi0-scale", "nan"]),
        ("domain: toy split out of range", [
            "fit", "--model", "toy", "--method", "mp", "--summary",
            "FILE/toy-split-out.json"]),
        *((f"numeric: probit overflow {method}", [
            "fit", "--model", "probit", "--method", method, "--data",
            "FILE/probit-overflow.csv"]) for method in methods["probit"]),
        # the fit's last M^-1 is not positive definite
        ("numeric: dmvb invalid fitted density", [
            "fit", "--model", "probit", "--method", "dmvb", "--intercept",
            "--lambda", "0.01", "--data", "FILE/separable-1e150.csv",
            "--init-from", "FILE/init-probit-tiny-slope.json"]),
        # walk 1's Gram matrix A overflows
        ("numeric: mp-dm Gram overflow", [
            "fit", "--model", "probit", "--method", "mp-dm", "--intercept",
            "--lambda", "0.01", "--data", "FILE/separable-1e150.csv",
            "--init-from", "FILE/init-probit-tiny-slope.json"]),
        *((f"numeric: {method} start not finite", [
            "fit", "--model", "probit", "--method", method, "--intercept",
            "--data", "FILE/separable.csv",
            "--init-from", "FILE/init-probit-huge-intercept.json"])
          for method in ("laplace", "mfvb", "dmvb")),
        # numpy refuses the chain's array before touching any memory
        ("numeric: gibbs chain too large", [
            "fit", "--model", "probit", "--method", "gibbs", "--data",
            "FILE/probit.csv", "--n-samples", "1000000000000000"]),
        *((f"toy rho 0.9999 {method}", [
            "fit", "--model", "toy", "--method", method, "--summary",
            "FILE/toy-rho9999.json"]) for method in ("mp", "mfvb")),
        ("io: missing file", ["fit", "--model", "linear", "--method", "mfvb",
                              "--data", "FILE/missing.csv"]),
        ("io: unwritable --out", linear_fit + ["--out", "FILE/no/dir.json"]),
        ("io: generate unwritable", ["generate", "--model", "mvn", "--out",
                                     "FILE/no/dir.csv"]),
        ("fit --pretty --out", linear_fit + ["--pretty", "--out",
                                             "FILE/pretty.json"]),
    ]
    for name, (model, method, flag) in {
            "probit-nan.csv": ("probit", "mp-dm", "--data"),
            "linear-nan.csv": ("linear", "mfvb", "--data"),
            "bad-cell.csv": ("linear", "mfvb", "--data"),
            "ragged.csv": ("linear", "mfvb", "--data"),
            "empty.csv": ("linear", "mfvb", "--data"),
            "header-only.csv": ("linear", "mfvb", "--data"),
            "linear-cr.csv": ("linear", "exact", "--data"),
            "cr-blank.csv": ("linear", "mfvb", "--data"),
            "no-y.csv": ("linear", "mfvb", "--data"),
            "y-only.csv": ("linear", "mfvb", "--data"),
            "dup-column.csv": ("linear", "mp2", "--data"),
            "mvn-nan.csv": ("mvn", "exact", "--data"),
            "not-json.json": ("mvn", "exact", "--summary"),
            "list.json": ("mvn", "exact", "--summary"),
            "mvn-n-float.json": ("mvn", "exact", "--summary"),
            "mvn-n-string.json": ("mvn", "exact", "--summary"),
            "mvn-xbar-string.json": ("mvn", "mp", "--summary"),
            "mvn-ragged-S.json": ("mvn", "mp", "--summary"),
            "mvn-missing-S.json": ("mvn", "mp", "--summary"),
            "toy-split-float.json": ("toy", "mp", "--summary"),
            "toy-split-string.json": ("toy", "mp", "--summary"),
            "toy-nan-mu.json": ("toy", "mfvb", "--summary"),
            "long-cell.csv": ("linear", "mfvb", "--data"),
            "long-header.csv": ("linear", "mfvb", "--data"),
            "deep.json": ("mvn", "exact", "--summary"),
            "long-integer.json": ("mvn", "exact", "--summary")}.items():
        errors.append((f"input: {name}", [
            "fit", "--model", model, "--method", method, flag,
            f"FILE/{name}"]))
    for name, argv in {
            "init-missing-key.json": linear_fit,
            "init-no-block.json": linear_fit,
            "list.json": linear_fit,
            "not-json.json": linear_fit,
            "init-linear-nan.json": linear_fit,
            "init-probit-inf.json": ["fit", "--model", "probit", "--method",
                                     "mp-dm", "--data", "FILE/probit.csv"],
            "init-mvn-inf.json": ["fit", "--model", "mvn", "--method", "mp",
                                  "--summary", "FILE/d9.json"],
            "init-probit-p2.json": ["fit", "--model", "probit", "--method",
                                    "laplace", "--data",
                                    "FILE/probit.csv"],
            "init-probit-no-cov.json": ["fit", "--model", "probit",
                                        "--method", "dmvb", "--data",
                                        "FILE/probit.csv"],
            "init-mvn-dof-half.json": ["fit", "--model", "mvn", "--method",
                                       "mfvb", "--summary", "FILE/d9.json"],
            "deep.json": linear_fit}.items():
        errors.append((f"init-from: {name}",
                       argv + ["--init-from", f"FILE/{name}"]))
    return gen + fits + density + compare + init + errors


_WALL = re.compile(r'("wall_time_s": )[^,\n}]+|(wall time: )\S+ s')
# a Python warning's "file:line: category: message" and its source line
_WARNING = re.compile(r"^\S+\.py:\d+: (\w+: .*)\n  .*\n", re.M)


def _mask(text: str, tmp: str) -> str:
    """text without what moves between runs and trees that behave alike:
    wall times, the temporary directory and where a warning was raised."""
    text = _WALL.sub(lambda m: (m.group(1) or m.group(2)) + "MASKED", text)
    return _WARNING.sub(r"\1\n", text).replace(tmp, "TMP")


def _run(argv: list[str], tmp: str) -> tuple[int | str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        # each command shows its own warnings, whatever ran before it
        warnings.simplefilter("default")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
        except Exception as exc:  # a crash; the digest goes on
            rc = "traceback"
            err.write(f"{type(exc).__name__}: {exc}\n")
    for flag in ("--out", "--density-out"):
        path = Path(argv[argv.index(flag) + 1]) if flag in argv else None
        if path is not None and path.exists():
            out.write(f"--- {flag}\n{path.read_text()}")
    return rc, _mask(out.getvalue(), tmp), _mask(err.getvalue(), tmp)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in FILES.items():
            Path(tmp, name).write_text(
                content if isinstance(content, str) else json.dumps(content))
        for label, argv in _commands():
            argv = [a.replace("FILE", tmp, 1) if a.startswith("FILE/") else a
                    for a in argv]
            rc, out, err = _run(argv, tmp)
            print(f"{label:46s} rc={rc} out={_sha(out)} err={_sha(err)}")


if __name__ == "__main__":
    main()
