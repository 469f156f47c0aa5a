"""Command-line front end: fit, compare, and generate subcommands.

Reports are JSON (schema field "schema": 1) with every numeric finite or
null (a warning entry names any replaced value). Exit codes: 0 success
(including non-converged fits, flagged in the body), 2 usage, 3 I/O,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import datagen, diagnostics
from .diagnostics import DensityGrid, ToyGaussianSpec, toy_gaussian_mp
from .exceptions import DomainError, NumericError
from .linear import (LinearData, LinearPrior, linear_exact_posterior,
                     linear_mfvb_fit, linear_mp1_fit, linear_mp2_fit)
from .moments import (GaussianApprox, InverseGammaApprox,
                      InverseWishartApprox, StudentTApprox)
from .mvn import (MVNData, MVNPrior, iw_diag_marginal, mvn_exact_posterior,
                  mvn_mfvb_fit, mvn_mp_fit)
from .probit import (ProbitData, ProbitPrior, probit_dmvb_fit,
                     probit_gibbs_oracle, probit_laplace_fit,
                     probit_mfvb_fit, probit_mp_fit)
from .reports import FitReport, MomentSummary, moment_summary

SCHEMA_VERSION = 1
_PRETTY_DIGITS = 4  # significant digits in --pretty output


class UsageError(Exception):
    pass


class InputError(Exception):
    """I/O or parse failure on user-supplied files."""


# ---------------------------------------------------------------------------
# input handling


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """The stripped header and the data rows of a CSV of numbers.

    np.loadtxt reads the rows when it surely reads them as the row parser
    below would; otherwise that parser reads them and names the first bad
    row or cell.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            rest = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    except csv.Error:  # a NUL byte
        return _parse_csv_rows(path)
    data = None if header is None else _loadtxt_rows(rest, len(header))
    if data is None:
        return _parse_csv_rows(path)
    return [h.strip() for h in header], data


def _loadtxt_rows(text: str, width: int) -> np.ndarray | None:
    """text's rows by np.loadtxt, or None where they might differ from what
    the row parser reads: loadtxt raises, skipped a blank line (the row
    parser rejects it) or found a width other than the header's."""
    if not text or text.isspace():
        return None
    raw = text.encode()  # a quarter of the memory a StringIO would take
    try:
        data = np.loadtxt(io.BytesIO(raw), delimiter=",", ndmin=2,
                          comments=None, encoding="utf-8")
    except ValueError:
        return None
    lines = raw.count(b"\n") + (not raw.endswith(b"\n"))
    return data if data.shape == (lines, width) else None


def _parse_csv_rows(path: str) -> tuple[list[str], np.ndarray]:
    """Row-by-row CSV parser that names the first bad row or cell."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    if not rows:
        raise InputError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    data = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise InputError(f"{path}: row {i} has {len(row)} fields, "
                             f"expected {len(header)}")
        data.append(values := [])
        for j, cell in enumerate(row, start=1):
            try:
                values.append(float(cell))
            except ValueError as exc:
                raise InputError(f"{path}: row {i}, col {j}: "
                                 f"not a number: {cell!r}") from exc
    if not data:
        raise InputError(f"{path}: no data rows")
    return header, np.array(data)


def _not_utf8(path: str, exc: UnicodeDecodeError) -> InputError:
    return InputError(f"{path}: not UTF-8 text ({exc.reason})")


def _load_regression(args: argparse.Namespace, data_type):
    """data_type(y, X) from the --data CSV: y is its "y" column and X the
    others, after a column of ones with --intercept."""
    if not args.data:
        raise UsageError(f"{args.model} needs --data CSV")
    header, data = _read_csv(args.data)
    if "y" not in header:
        raise InputError(f"{args.data}: header must contain a 'y' column")
    yi = header.index("y")
    X = np.delete(data, yi, axis=1)
    if args.intercept:
        X = np.column_stack([np.ones(X.shape[0]), X])
    if X.shape[1] == 0:
        raise InputError(f"{args.data}: no predictor columns "
                         "(pass --intercept for an intercept-only fit)")
    return data_type(data[:, yi], X)


def _from_json(path: str, build: Callable[[dict], Any]):
    """build(doc) on the JSON object in path. A missing key or a value of the
    wrong type or shape is an InputError naming the file; a well-formed but
    out-of-domain value stays a DomainError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    try:
        return build(doc)
    except (DomainError, np.linalg.LinAlgError):
        raise
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed value: {exc}") from exc


def _load_mvn(data_path: str | None, summary_path: str | None) -> MVNData:
    if summary_path:
        return _from_json(summary_path, lambda doc: MVNData(
            n=doc["n"], xbar=doc["xbar"], S=doc["S"]))
    if data_path:
        _, data = _read_csv(data_path)
        return MVNData.from_raw(data)
    raise UsageError("mvn needs --data (raw CSV) or --summary (JSON)")


def _load_toy(summary_path: str | None) -> ToyGaussianSpec:
    if not summary_path:
        raise UsageError("toy needs --summary (JSON with mu, Sigma, split)")
    return _from_json(summary_path, lambda doc: ToyGaussianSpec(
        mu=doc["mu"], Sigma=doc["Sigma"], split=doc["split"]))


# ---------------------------------------------------------------------------
# JSON encoding


def _jsonify(obj, warnings: list[str], path: str = ""):
    """Dicts and lists are walked; every other value, an array or a scalar,
    becomes its list or Python scalar whole, each non-finite float null."""
    if isinstance(obj, dict):
        return {k: _jsonify(v, warnings, f"{path}.{k}" if path else k)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v, warnings, f"{path}[{i}]")
                for i, v in enumerate(obj)]
    arr = np.asarray(obj)
    if arr.dtype.kind != "f":
        return arr.tolist()
    bad = ~np.isfinite(arr)
    for idx in np.argwhere(bad):
        where = "".join(f"[{i}]" for i in idx)
        warnings.append(f"non-finite value at {path}{where} replaced by null")
    return (np.where(bad, None, arr) if bad.any() else arr).tolist()


# q-density type -> family name in the report; any other record is "moments"
_FAMILY_NAMES = {GaussianApprox: "gaussian", StudentTApprox: "student_t",
                 InverseGammaApprox: "inverse_gamma",
                 InverseWishartApprox: "inverse_wishart",
                 MomentSummary: "empirical"}
_FAMILY_TYPES = {name: q_type for q_type, name in _FAMILY_NAMES.items()}


def _fields(record) -> dict:
    """A record's own fields as reported, less the unset ones."""
    return {k: v for k, v in vars(record).items() if v is not None}


def _q_to_json(q: dict) -> dict:
    return {name: {"family": _FAMILY_NAMES.get(type(approx), "moments"),
                   **_fields(approx)}
            for name, approx in q.items()}


# ---------------------------------------------------------------------------
# fitting dispatch


def _closed_form(q: dict) -> FitReport:
    return FitReport(q, iterations=0, converged=True,
                     termination="closed_form", trace=None)


def _toy(args: argparse.Namespace, spec: ToyGaussianSpec,
         method: str) -> FitReport:
    if args.max_iter < 1:
        raise UsageError(f"max_iter must be at least 1; got {args.max_iter}")
    q1, q2, m1, m2 = toy_gaussian_mp(spec, eps=min(args.eps, 1e-10),
                                     max_iter=max(args.max_iter, 10_000))
    block1, block2 = (q1, q2) if method == "mp" else (m1, m2)
    return _closed_form({"block1": block1, "block2": block2})


def _parse_vector(text: str | None) -> np.ndarray | None:
    if not text:
        return None
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise UsageError(f"bad vector {text!r}: {exc}") from exc


def _xy_table(y: np.ndarray, X: np.ndarray, y_cell: Callable):
    header = ["y"] + [f"x{j + 1}" for j in range(X.shape[1])]
    return header, ([y_cell(yi)] + [repr(float(v)) for v in xi]
                    for yi, xi in zip(y, X))


def _generate_linear(args):
    if args.fixed:
        y, X = datagen.fixed_linear_dataset()
    else:
        y, X = datagen.generate_linear(args.n, args.p, args.seed,
                                       beta=_parse_vector(args.beta),
                                       sigma=args.sigma)
    return _xy_table(y, X, lambda v: repr(float(v)))


def _generate_probit(args):
    y, X = datagen.generate_probit(args.n, args.p, args.seed,
                                   beta=_parse_vector(args.beta),
                                   intercept=not args.no_intercept)
    return _xy_table(y, X, int)


def _generate_mvn(args):
    X = datagen.generate_mvn(args.n, args.p, args.seed)
    return ([f"x{j + 1}" for j in range(X.shape[1])],
            ([repr(float(v)) for v in xi] for xi in X))


@dataclass(frozen=True)
class Model:
    """What the CLI knows about one model.

    fits maps each method to fit(args, data, prior, init), args being the
    parsed command line and init the starting q-density or None, which
    returns a FitReport. The entries name the library fitters of this
    module, looked up at call time, so a wrapper installed under such a
    name sees every CLI fit. init_from names the q block --init-from reads
    and the q-density types the model's fits start from; a model without
    one rejects --init-from. reference is compare's default
    reference method; a model without one supports neither compare nor
    --emit-density.
    """

    load: Callable[[argparse.Namespace], Any]
    prior: Callable[[argparse.Namespace, Any], Any]
    fits: dict[str, Callable[..., FitReport]]
    init_from: tuple[str, tuple[type, ...]] | None = None
    reference: str | None = None
    generate: Callable[[argparse.Namespace], tuple[list, Any]] | None = None


MODELS = {
    "linear": Model(
        load=lambda args: _load_regression(args, LinearData),
        prior=lambda args, data: LinearPrior(g=args.g, A=args.A, B=args.B),
        fits={
            "exact": lambda args, data, prior, init: _closed_form(
                dict(zip(("beta", "sigma2"),
                         linear_exact_posterior(data, prior)))),
            "mfvb": lambda args, data, prior, init: linear_mfvb_fit(
                data, prior, args.eps, args.max_iter, init),
            "mp1": lambda args, data, prior, init: linear_mp1_fit(
                data, prior, args.eps, args.max_iter, init),
            "mp2": lambda args, data, prior, init: linear_mp2_fit(
                data, prior, args.eps, args.max_iter, init),
        },
        init_from=("sigma2", (InverseGammaApprox,)),
        reference="exact",
        generate=_generate_linear),
    "mvn": Model(
        load=lambda args: _load_mvn(args.data, args.summary),
        prior=lambda args, data: MVNPrior(
            lambda0=args.lambda0, nu0=args.nu0,
            Psi0=args.psi0_scale * np.eye(data.p)),
        fits={
            "exact": lambda args, data, prior, init: _closed_form(
                dict(zip(("mu", "Sigma"), mvn_exact_posterior(data, prior)))),
            "mfvb": lambda args, data, prior, init: mvn_mfvb_fit(
                data, prior, args.eps, args.max_iter, init),
            "mp": lambda args, data, prior, init: mvn_mp_fit(
                data, prior, args.eps, args.max_iter, init),
        },
        init_from=("Sigma", (InverseWishartApprox,)),
        reference="exact",
        generate=_generate_mvn),
    "probit": Model(
        load=lambda args: _load_regression(args, ProbitData),
        prior=lambda args, data: ProbitPrior.ridge(args.lam, data.p),
        fits={
            "laplace": lambda args, data, prior, init: probit_laplace_fit(
                data, prior, args.eps, args.max_iter, init),
            "mfvb": lambda args, data, prior, init: probit_mfvb_fit(
                data, prior, args.eps, args.max_iter, init),
            "mp-dm": lambda args, data, prior, init: probit_mp_fit(
                data, prior, "dm", args.eps, args.max_iter, init),
            "mp-quad": lambda args, data, prior, init: probit_mp_fit(
                data, prior, "quad", args.eps, args.max_iter, init),
            "dmvb": lambda args, data, prior, init: probit_dmvb_fit(
                data, prior, args.eps, args.max_iter, init),
            "gibbs": lambda args, data, prior, init: FitReport(
                {"beta": probit_gibbs_oracle(
                    data, prior, n_samples=args.n_samples,
                    n_warmup=args.n_warmup, seed=args.seed)},
                iterations=args.n_samples, converged=True,
                termination="sampling", trace=None),
        },
        init_from=("beta", (GaussianApprox, MomentSummary)),
        reference="gibbs",
        generate=_generate_probit),
    "toy": Model(
        load=lambda args: _load_toy(args.summary),
        prior=lambda args, spec: None,
        fits={
            "mp": lambda args, spec, prior, init: _toy(args, spec, "mp"),
            "mfvb": lambda args, spec, prior, init: _toy(args, spec, "mfvb"),
        }),
}


def _model(name: str, method: str) -> Model:
    """The table entry of a model, once the method is known to be its own."""
    if name not in MODELS:
        raise UsageError(f"unknown model {name!r}")
    model = MODELS[name]
    if method not in model.fits:
        raise UsageError(
            f"method {method!r} is not valid for model {name!r}; "
            f"choose from {', '.join(model.fits)}")
    return model


def _load(args: argparse.Namespace, model: Model) -> tuple[Any, Any, Any]:
    """Data, prior and the --init-from starting q-density, each read once."""
    init = None
    if args.init_from:
        if model.init_from is None:
            raise UsageError(
                f"--init-from is not supported for model {args.model!r}")
        init = _from_json(args.init_from, lambda doc: _init_values(doc, model))
    data = model.load(args)
    return data, model.prior(args, data), init


def _init_values(report: dict, model: Model):
    """The model's q block of an earlier report, built as the q-density
    type its family names."""
    key, types = model.init_from
    block = report.get("q", {}).get(key)
    if block is None:
        raise InputError(f"--init-from report lacks q.{key}")
    fields = dict(block)
    family = fields.pop("family")
    if _FAMILY_TYPES.get(family) not in types:
        raise InputError(f"--init-from q.{key} has family {family!r}, not "
                         f"{' or '.join(_FAMILY_NAMES[t] for t in types)}")
    if not all(np.all(np.isfinite(np.asarray(v, float)))
               for v in fields.values()):
        raise DomainError(f"--init-from q.{key} must be finite")
    return _FAMILY_TYPES[family](**fields)


def _fit(args: argparse.Namespace, model: Model, method: str, data, prior,
         init) -> tuple[FitReport, MomentSummary, float]:
    """The fit's report, its moment summary and the fit call's wall time."""
    t0 = time.perf_counter()
    report = model.fits[method](args, data, prior, init)
    wall_time_s = time.perf_counter() - t0
    return report, moment_summary(report.params), wall_time_s


# ---------------------------------------------------------------------------
# marginal densities for accuracy comparisons


def _marginals(q: dict) -> list[tuple[str, str, tuple]]:
    """(name, family, params) for each scalar marginal of a fitted q: entry
    j of a vector block "beta" is "beta<j>", diagonal entry j of an
    inverse-Wishart block "Sigma" is "Sigma<j><j>", and an inverse-gamma
    block keeps its name. Other blocks have none."""
    out = []
    for key, approx in q.items():
        if isinstance(approx, StudentTApprox):
            out += [(f"{key}{j}", "t",
                     (approx.loc[j], approx.scale[j, j], approx.dof))
                    for j in range(approx.dim)]
        elif isinstance(approx, (GaussianApprox, MomentSummary)):
            out += [(f"{key}{j}", "normal", (approx.mean[j], approx.cov[j, j]))
                    for j in range(approx.mean.shape[0])]
        elif isinstance(approx, InverseGammaApprox):
            out.append((key, "ig", (approx.shape, approx.scale)))
        elif isinstance(approx, InverseWishartApprox):
            for j in range(approx.dim):
                ig = iw_diag_marginal(approx, j)
                out.append((f"{key}{j}{j}", "ig", (ig.shape, ig.scale)))
    return out


def _t_grid_range(loc: float, scale: float, dof: float) -> tuple[float, float]:
    var = dof / (dof - 2.0) * scale if dof > 2 else 4.0 * scale
    return diagnostics.gaussian_grid_range(loc, var)


# marginal family -> (density on given points, default grid range)
_FAMILIES = {
    "normal": (diagnostics.gaussian_density, diagnostics.gaussian_grid_range),
    "t": (diagnostics.t_density, _t_grid_range),
    "ig": (diagnostics.ig_density, diagnostics.ig_grid_range),
}


def _density_grid(family: str, params: tuple,
                  points: np.ndarray | None = None) -> DensityGrid:
    """A marginal density on the given points, or on its own default grid."""
    density, grid_range = _FAMILIES[family]
    if points is None:
        points = diagnostics.make_points(*grid_range(*params))
    return density(points, *params)


def run_compare(args: argparse.Namespace, methods: list[str],
                reference: str) -> dict:
    if len(methods) < 2:
        raise UsageError("compare needs at least two methods")
    all_methods = list(dict.fromkeys(methods + [reference]))
    for m in all_methods:
        model = _model(args.model, m)
    data, prior, init = _load(args, model)
    outcomes = {m: _fit(args, model, m, data, prior, init)
                for m in all_methods}

    ref, ref_summary, _ = outcomes[reference]
    grids = {name: _density_grid(family, params)
             for name, family, params in _marginals(ref.params)}

    table = {}
    for method in methods:
        report, summary, wall_time_s = outcomes[method]
        accs = {}
        for name, family, params in _marginals(report.params):
            if name in grids:
                accs[name] = diagnostics.accuracy(grids[name], _density_grid(
                    family, params, grids[name].points))
        mean_err, sd_err = diagnostics.moment_errors(summary, ref_summary)
        table[method] = {
            "accuracy": accs,
            "mean_err": mean_err,
            "sd_err": sd_err,
            "iterations": report.iterations,
            "converged": report.converged,
            "wall_time_s": wall_time_s,
        }
    return {"schema": SCHEMA_VERSION, "model": args.model,
            "reference": reference, "methods": table}


# ---------------------------------------------------------------------------
# rendering


def _round_sig(x: float) -> float:
    """x rounded to _PRETTY_DIGITS significant digits."""
    return float(f"{x:.{_PRETTY_DIGITS}g}")


def _pretty_fit(doc: dict) -> str:
    lines = [f"model: {doc['model']}   method: {doc['method']}",
             f"converged: {doc['converged']}   iterations: {doc['iterations']}"]
    moments = doc.get("moments") or {}
    if "mean" in moments:
        mean = [_round_sig(v) for v in moments["mean"]]
        sds = [_round_sig(float(np.sqrt(moments["cov"][j][j])))
               for j in range(len(mean))]
        lines.append("coef   mean        sd")
        for j, (m, s) in enumerate(zip(mean, sds)):
            lines.append(f"[{j}]   {m:<10} {s:<10}")
    if moments.get("scalar_mean") is not None:
        lines.append(f"scalar mean: {_round_sig(moments['scalar_mean'])}   "
                     f"variance: {_round_sig(moments['scalar_var'])}")
    lines.append(f"wall time: {doc['wall_time_s']:.4g} s")
    return "\n".join(lines)


def _emit_density(q: dict, model: str, name: str, path: str | None) -> None:
    if MODELS[model].reference is None:
        raise UsageError(f"compare and --emit-density do not support the "
                         f"{model} model")
    marginals = _marginals(q)
    for mname, family, params in marginals:
        if mname == name:
            grid = _density_grid(family, params)
            _write_csv(path, ["point", "value"],
                       ([repr(float(pt)), repr(float(val))]
                        for pt, val in zip(grid.points, grid.values)))
            return
    raise UsageError(f"no marginal named {name!r}; available: "
                     f"{', '.join(m[0] for m in marginals)}")


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="input CSV (header row required)")
    p.add_argument("--summary", help="JSON summary input (mvn/toy)")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--g", type=float, default=1e4)
    p.add_argument("--A", type=float, default=0.01)
    p.add_argument("--B", type=float, default=0.01)
    p.add_argument("--lambda0", type=float, default=0.01)
    p.add_argument("--nu0", type=float, default=None)
    p.add_argument("--psi0-scale", type=float, default=1.0,
                   help="Psi0 = scale * I")
    p.add_argument("--lambda", dest="lam", type=float, default=0.01,
                   help="probit ridge prior precision")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-samples", type=int, default=50_000)
    p.add_argument("--n-warmup", type=int, default=5_000)
    p.add_argument("--intercept", action="store_true",
                   help="prepend a column of ones to the design")
    p.add_argument("--out", help="write the JSON report here (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="momprop")
    sub = ap.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit one method and emit a JSON report")
    fit.add_argument("--model", required=True, choices=tuple(MODELS))
    fit.add_argument("--method", required=True)
    _add_common(fit)
    fit.add_argument("--trace", action="store_true",
                     help="include the per-iteration parameter trace")
    fit.add_argument("--emit-density", metavar="NAME",
                     help="write a density grid CSV for one marginal")
    fit.add_argument("--density-out", help="path for --emit-density output")
    fit.add_argument("--init-from", help="JSON report to initialize from")
    fit.add_argument("--pretty", action="store_true",
                     help="print a rounded human-readable summary")

    cmp_p = sub.add_parser("compare", help="fit several methods and score "
                                           "them against a reference")
    cmp_p.add_argument("--model", required=True,
                       choices=[m for m, spec in MODELS.items()
                                if spec.reference])
    cmp_p.add_argument("--methods", required=True,
                       help="comma-separated method list")
    cmp_p.add_argument("--reference", default=None,
                       help="reference method (default: exact, or gibbs "
                            "for probit)")
    _add_common(cmp_p)
    cmp_p.set_defaults(init_from=None)  # read by _load, settable by fit only

    gen = sub.add_parser("generate", help="write a synthetic dataset CSV")
    gen.add_argument("--model", required=True,
                     choices=[m for m, spec in MODELS.items()
                              if spec.generate])
    gen.add_argument("--n", type=int, default=100)
    gen.add_argument("--p", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--beta", help="comma-separated true coefficients")
    gen.add_argument("--sigma", type=float, default=1.0)
    gen.add_argument("--fixed", action="store_true",
                     help="emit the fixed five-point reference dataset "
                          "(linear only)")
    gen.add_argument("--no-intercept", action="store_true")
    gen.add_argument("--out", required=True)
    return ap


def _encode(doc: dict) -> dict:
    warnings: list[str] = []
    doc = _jsonify(doc, warnings)
    if warnings:
        doc["warnings"] = warnings
    return doc


def _write_csv(path: str | None, header: list[str], rows) -> None:
    """header and rows as CSV into path, or onto stdout without one."""
    try:
        fh = (open(path, "w", newline="") if path
              else contextlib.nullcontext(sys.stdout))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    with fh as out:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)


def _write_report(doc: dict, out: str | None, pretty: bool) -> None:
    text = json.dumps(doc, indent=2)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from exc
        if pretty:
            print(_pretty_fit(doc))
    else:
        print(_pretty_fit(doc) if pretty else text)
    sys.stdout.flush()  # a closed stdout fails here, not at exit


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "generate":
            _write_csv(args.out, *MODELS[args.model].generate(args))
            return 0
        if args.command == "fit":
            model = _model(args.model, args.method)
            report, summary, wall_time_s = _fit(args, model, args.method,
                                                *_load(args, model))
            doc = {
                "schema": SCHEMA_VERSION,
                "model": args.model,
                "method": args.method,
                "converged": report.converged,
                "iterations": report.iterations,
                "termination": report.termination,
                "q": _q_to_json(report.params),
                "moments": _fields(summary),
                "wall_time_s": wall_time_s,
            }
            if report.wrong_basin is not None:
                doc["wrong_basin"] = report.wrong_basin
            if args.trace and report.trace is not None:
                doc["trace"] = report.trace
            doc = _encode(doc)
            if args.emit_density:
                _emit_density(report.params, args.model, args.emit_density,
                              args.density_out)
            _write_report(doc, args.out, args.pretty)
            return 0
        # compare
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        reference = args.reference or MODELS[args.model].reference
        _write_report(_encode(run_compare(args, methods, reference)),
                      args.out, pretty=False)
        return 0
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader of stdout is gone. Point stdout at devnull, so that the
        # interpreter's flush of what is still buffered cannot fail at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written",
              file=sys.stderr)
        return 3
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
