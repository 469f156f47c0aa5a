"""Command-line front end: fit, compare, and generate subcommands.

Reports are JSON (schema field "schema": 1) with every numeric finite or
null (a warning entry names any replaced value). Exit codes: 0 success
(including non-converged fits, flagged in the body), 2 usage, 3 I/O,
4 numeric failure (an allocation that cannot be made included).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import datagen, diagnostics
from .diagnostics import ToyGaussianSpec, toy_gaussian_mfvb, toy_gaussian_mp
from .exceptions import DomainError, NumericError
from .linear import (LinearData, LinearPrior, linear_exact_posterior,
                     linear_mfvb_fit, linear_mp1_fit, linear_mp2_fit)
from .moments import (GaussianApprox, InverseGammaApprox,
                      InverseWishartApprox, StudentTApprox)
from .mvn import (MVNData, MVNPrior, mvn_exact_posterior, mvn_mfvb_fit,
                  mvn_mp_fit)
from .probit import (ProbitData, ProbitPrior, probit_dmvb_fit,
                     probit_gibbs_oracle, probit_laplace_fit,
                     probit_mfvb_fit, probit_mp_fit)
from .reports import FitReport, MomentSummary, moment_summary

SCHEMA_VERSION = 1
_PRETTY_DIGITS = 4  # significant digits in --pretty output
# why a marginal that diagnostics.marginal_grids gives as None has no score
_UNHELD = (f"a {diagnostics.GRID_POINTS}-point double-precision grid "
           "cannot hold it")
_DUMP_FLOATS = 4096  # floats of a report row formatted at a time
_CSV_CHUNK = 4096  # CSV rows parsed at a time
_encode_scalar = json.JSONEncoder().encode  # what json.dumps gives a scalar


class UsageError(Exception):
    pass


class InputError(Exception):
    """I/O or parse failure on user-supplied files."""


# ---------------------------------------------------------------------------
# input handling


@contextlib.contextmanager
def _reading(path: str, kind: str):
    """path open as UTF-8 text. Failing to open, decode or parse it as kind,
    in the with body too, is an InputError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # before ValueError, its base class
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except (csv.Error, RecursionError, ValueError) as exc:
        raise InputError(f"{path}: invalid {kind}: {exc}") from exc


def _table(header: list[str], n: int):  # _read_csv's default layout
    return (header, t := np.empty((n, len(header)))), [(t, slice(None))]


def _count_lines(raw) -> int:
    """The lines of the binary file raw as the text layer splits them (at
    \\n, \\r\\n or \\r, and after an unterminated last one); rewinds raw."""
    n, tail = 0, b""  # tail: the last byte of an unterminated piece
    while block := raw.read(1 << 16):
        lines = (tail + block).splitlines(keepends=True)
        tail = b"" if lines[-1].endswith(b"\n") else lines.pop()[-1:]
        n += len(lines)
    raw.seek(0)
    return n + bool(tail)


def _read_csv(path: str, layout=_table):
    """The first item of layout(header, n), whose second lists (array,
    columns) pairs: each array's rows get those columns of the n data rows
    of a CSV of numbers; by default, the stripped header and a table.
    Once the lines are counted, np.loadtxt parses _CSV_CHUNK rows at a time
    into the arrays, unless it raises, warns, gives another width than the
    header's or fewer rows than lines (as at a blank line, which it skips)
    or the file is a pipe: then the row parser below names any bad cell."""
    if os.path.isfile(path):  # not a pipe, which cannot be read twice
        with _reading(path, "CSV") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # such as loadtxt's on no data
            n = _count_lines(fh.buffer)
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is not None and (n := n - reader.line_num) > 0:
                out, targets = layout([h.strip() for h in header], n)
                lines = (line for line in fh)  # loadtxt reads a file ahead
                try:
                    for s in range(0, n, _CSV_CHUNK):
                        chunk = np.loadtxt(lines, delimiter=",", ndmin=2,
                                           comments=None, encoding="utf-8",
                                           max_rows=_CSV_CHUNK)
                        if chunk.shape != (min(_CSV_CHUNK, n - s),
                                           len(header)):
                            raise ValueError("not the row parser's rows")
                        for array, columns in targets:
                            array[s:s + _CSV_CHUNK] = chunk[:, columns]
                        del chunk  # before the next is parsed
                    return out
                except (ValueError, UserWarning):
                    pass
    header, data = _parse_csv_rows(path)
    out, targets = layout(header, len(data))
    for array, columns in targets:
        array[:] = data[:, columns]
    return out


def _parse_csv_rows(path: str) -> tuple[list[str], np.ndarray]:
    """Row-by-row CSV parser that names the first bad row or cell."""
    with _reading(path, "CSV") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise InputError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise InputError(f"{path}: row {i} has {len(row)} fields, "
                             f"expected {len(header)}")
        for j, cell in enumerate(row):
            try:
                row[j] = float(cell)
            except ValueError as exc:
                raise InputError(f"{path}: row {i}, col {j + 1}: "
                                 f"not a number: {cell!r}") from exc
    if len(rows) == 1:
        raise InputError(f"{path}: no data rows")
    return header, np.array(rows[1:])


def _load_regression(args: argparse.Namespace, data_type, order: str = "C"):
    """data_type(y, X) from the --data CSV: its "y" column and, after a
    column of ones with --intercept, the others, parsed into X in the given
    memory order (probit's Fortran order is Z's, and linear's C order keeps
    X'X's rounding); data_type may take X over and sign it in place."""
    if not args.data:
        raise UsageError(f"{args.model} needs --data CSV")
    lead = int(args.intercept)

    def layout(header: list[str], n: int):
        if "y" not in header:
            raise InputError(f"{args.data}: header must contain a 'y' column")
        if lead + len(header) == 1:
            raise InputError(f"{args.data}: no predictor columns "
                             "(pass --intercept for an intercept-only fit)")
        yi = header.index("y")
        y, X = np.empty(n), np.empty((n, lead + len(header) - 1), order=order)
        X[:, :lead] = 1.0
        # basic slices, which copy without a fancy index's temporary
        return (y, X), [(y, yi), (X[:, lead:lead + yi], slice(yi)),
                        (X[:, lead + yi:], slice(yi + 1, None))]
    return data_type(*_read_csv(args.data, layout))


def _from_json(path: str, build: Callable[[dict], Any]):
    """build(doc) on the JSON object in path. A missing key or a value of the
    wrong type or shape is an InputError naming the file; a well-formed but
    out-of-domain value stays a DomainError."""
    with _reading(path, "JSON") as fh:
        doc = json.load(fh)
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
    if data_path and summary_path:
        raise UsageError("mvn reads --data or --summary, not both")
    if summary_path:
        return _from_json(summary_path, lambda doc: MVNData(
            n=doc["n"], xbar=doc["xbar"], S=doc["S"]))
    if data_path:
        return MVNData.from_raw(_read_csv(data_path)[1])
    raise UsageError("mvn needs --data (raw CSV) or --summary (JSON)")


def _load_toy(summary_path: str | None) -> ToyGaussianSpec:
    if not summary_path:
        raise UsageError("toy needs --summary (JSON with mu, Sigma, split)")
    return _from_json(summary_path, lambda doc: ToyGaussianSpec(
        mu=doc["mu"], Sigma=doc["Sigma"], split=doc["split"]))


# ---------------------------------------------------------------------------
# JSON encoding


def _jsonify(obj, warnings: list[str], path: str = ""):
    """Dicts and lists are walked; finite float arrays (size > 1) stay whole,
    other values become their lists or Python scalars, non-finites null."""
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
    return (np.where(bad, None, arr).tolist() if bad.any() or arr.size < 2
            else arr)


def _dump(obj, write: Callable[[str], Any], indent: str = "\n") -> None:
    """What json.dumps(obj, indent=2) gives, passed to write in pieces, for
    an obj that _jsonify returned: a 1-d float array in pieces of
    _DUMP_FLOATS floats."""
    inner, keyed = indent + "  ", isinstance(obj, dict)
    if not isinstance(obj, (dict, list, np.ndarray)) or not len(obj):
        write(_encode_scalar(obj))
    elif isinstance(obj, np.ndarray) and obj.ndim == 1:
        sep = f",{inner}"
        write(f"[{inner}")
        for i in range(0, len(obj), _DUMP_FLOATS):
            write((sep if i else "") + sep.join(
                map(float.__repr__, obj[i:i + _DUMP_FLOATS].tolist())))
        write(f"{indent}]")
    else:
        for i, item in enumerate(obj.items() if keyed else obj):
            write(("," if i else "{" if keyed else "[") + inner)
            if keyed:
                write(_encode_scalar(item[0]) + ": ")
            _dump(item[1] if keyed else item, write, inner)
        write(indent + ("}" if keyed else "]"))


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


def _parse_vector(text: str | None) -> np.ndarray | None:
    if not text:
        return None
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise UsageError(f"bad vector {text!r}: {exc}") from exc


def _generate_linear(args):
    if args.fixed:
        y, X = datagen.fixed_linear_dataset()
    else:
        y, X = datagen.generate_linear(
            args.n, args.p, args.seed, beta=_parse_vector(args.beta),
            sigma=args.sigma)
    return X, y


def _generate_probit(args):
    y, X = datagen.generate_probit(args.n, args.p, args.seed,
                                   beta=_parse_vector(args.beta),
                                   intercept=not args.no_intercept)
    return X, y, int


@dataclass(frozen=True)
class Model:
    """What the CLI knows about one model.

    fits maps each method to fit(args, data, prior, init), args being the
    parsed command line and init the starting q-density or None, which
    returns a FitReport. The entries name the library fitters of this
    module, looked up at call time, so a wrapper installed under such a
    name sees every CLI fit. reads names the options of _DEFAULTS that the
    model reads, in any command; _options rejects the others. init_from
    names the q block --init-from reads and the q-density types the
    model's fits start from. reference is compare's default reference
    method; a model without one has no compare. generate gives the model's
    data set as _write_csv's X, y and y_cell.
    """

    load: Callable[[argparse.Namespace], Any]
    prior: Callable[[argparse.Namespace, Any], Any]
    fits: dict[str, Callable[..., FitReport]]
    reads: tuple[str, ...]
    init_from: tuple[str, tuple[type, ...]] | None = None
    reference: str | None = None
    generate: Callable[[argparse.Namespace], tuple] | None = None


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
        reads=("data", "intercept", "eps", "max_iter", "g", "A", "B",
               "emit_density", "density_out", "init_from",
               "n", "p", "beta", "sigma", "fixed"),
        init_from=("sigma2", (InverseGammaApprox,)),
        reference="exact",
        generate=_generate_linear),
    "mvn": Model(
        load=lambda args: _load_mvn(args.data, args.summary),
        prior=lambda args, data: MVNPrior(
            lambda0=args.lambda0, nu0=args.nu0,
            Psi0=np.diag(np.full(data.p, args.psi0_scale))),
        fits={
            "exact": lambda args, data, prior, init: _closed_form(
                dict(zip(("mu", "Sigma"), mvn_exact_posterior(data, prior)))),
            "mfvb": lambda args, data, prior, init: mvn_mfvb_fit(
                data, prior, args.eps, args.max_iter, init),
            "mp": lambda args, data, prior, init: mvn_mp_fit(
                data, prior, args.eps, args.max_iter, init),
        },
        reads=("data", "summary", "eps", "max_iter", "lambda0", "nu0",
               "psi0_scale", "emit_density", "density_out", "init_from",
               "n", "p"),
        init_from=("Sigma", (InverseWishartApprox,)),
        reference="exact",
        generate=lambda args: (
            datagen.generate_mvn(args.n, args.p, args.seed),)),
    "probit": Model(
        load=lambda args: _load_regression(args, ProbitData._taking, "F"),
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
        reads=("data", "intercept", "eps", "max_iter", "lam", "seed",
               "n_samples", "n_warmup", "emit_density", "density_out",
               "init_from", "n", "p", "beta", "no_intercept"),
        init_from=("beta", (GaussianApprox, MomentSummary)),
        reference="gibbs",
        generate=_generate_probit),
    "toy": Model(
        load=lambda args: _load_toy(args.summary),
        prior=lambda args, spec: None,
        fits={
            "mp": lambda args, spec, prior, init: _closed_form(dict(zip(
                ("block1", "block2"), toy_gaussian_mp(spec)[:2]))),
            "mfvb": lambda args, spec, prior, init: _closed_form(dict(zip(
                ("block1", "block2"), toy_gaussian_mfvb(spec)))),
        },
        reads=("summary",)),
}

# each option that a model may or may not read, by the attribute it is parsed
# into, in the order an error lists them, with the value it takes when unset
_DEFAULTS = {
    "data": None, "summary": None, "eps": 1e-6, "max_iter": 500, "g": 1e4,
    "A": 0.01, "B": 0.01, "lambda0": 0.01, "nu0": None, "psi0_scale": 1.0,
    "lam": 0.01, "n": 100, "p": 2, "seed": 0, "n_samples": 50_000,
    "n_warmup": 5_000, "intercept": False, "emit_density": None,
    "density_out": None, "init_from": None, "beta": None, "sigma": 1.0,
    "fixed": False, "no_intercept": False}


def _options(args: argparse.Namespace, model: Model) -> None:
    """Reject each option of _DEFAULTS that is set but that the model does
    not read in this command, then give every unset one its default. Every
    model's generate reads --seed, --fixed reads no other option, and
    --emit-density and --density-out are read together."""
    values = {name: vars(args).get(name) for name in _DEFAULTS}
    fixed = bool(values["fixed"]) and "fixed" in model.reads
    reads = {"fixed"} if fixed else set(model.reads)
    if args.command == "generate" and not fixed:
        reads.add("seed")
    if values["emit_density"] is None:
        reads.discard("density_out")
    unread = ["--lambda" if name == "lam" else "--" + name.replace("_", "-")
              for name, value in values.items()
              if value is not None and name not in reads]
    if unread:
        raise UsageError(f"{args.command} --model {args.model}"
                         f"{' --fixed' * fixed} does not read "
                         f"{', '.join(unread)}")
    if values["emit_density"] is not None and values["density_out"] is None:
        raise UsageError("--emit-density needs --density-out")
    vars(args).update((name, _DEFAULTS[name] if value is None else value)
                      for name, value in values.items())


def _model(name: str, method: str) -> Model:
    """The table entry of a model, once the method is known to be its own."""
    model = MODELS[name]
    if method not in model.fits:
        raise UsageError(
            f"method {method!r} is not valid for model {name!r}; "
            f"choose from {', '.join(model.fits)}")
    return model


def _load(args: argparse.Namespace, model: Model) -> tuple[Any, Any, Any]:
    """Data, prior and the --init-from starting q-density, each read once."""
    _options(args, model)
    init = (_from_json(args.init_from, lambda doc: _init_values(doc, model))
            if args.init_from else None)
    data = model.load(args)
    return data, model.prior(args, data), init


def _init_values(report: dict, model: Model):
    """The model's q block of an earlier report, built as the q-density
    type its family names."""
    key, types = model.init_from
    block = report.get("q", {}).get(key)
    if block is None:
        raise InputError(f"--init-from report lacks q.{key}")
    values = dict(block)
    family = values.pop("family")
    if (q_type := _FAMILY_TYPES.get(family)) not in types:
        raise InputError(f"--init-from q.{key} has family {family!r}, not "
                         f"{' or '.join(_FAMILY_NAMES[t] for t in types)}")
    if not all(np.all(np.isfinite(np.asarray(v, float)))
               for v in values.values()):
        raise DomainError(f"--init-from q.{key} must be finite")
    inspect.signature(q_type).bind(**values)  # a TypeError names the field
    return q_type(**values)


def _fit(args: argparse.Namespace, model: Model, method: str, data, prior,
         init, trace: bool) -> tuple[FitReport, MomentSummary, float]:
    """The fit's report, its moment summary and the fit call's wall time.
    The report keeps its trace only where trace says it will be written."""
    t0 = time.perf_counter()
    report = model.fits[method](args, data, prior, init)
    wall_time_s = time.perf_counter() - t0
    if not trace:
        report.trace = None
    return report, moment_summary(report.params), wall_time_s


def run_compare(args: argparse.Namespace, methods: list[str],
                reference: str) -> dict:
    methods = list(dict.fromkeys(methods))
    if len(methods) < 2:
        raise UsageError("compare needs at least two methods")
    all_methods = list(dict.fromkeys(methods + [reference]))
    for m in all_methods:
        _model(args.model, m)
    model = MODELS[args.model]
    data, prior, init = _load(args, model)
    outcomes = {}
    for m in all_methods:
        outcomes[m] = _fit(args, model, m, data, prior, init, trace=False)
        outcomes[m][0].params.pop("aux", None)  # an n-vector no score reads

    ref, ref_summary, _ = outcomes[reference]
    grids = diagnostics.marginal_grids(ref.params)
    scores = {m: diagnostics.accuracies(outcomes[m][0].params, grids)
              for m in methods}
    # a marginal that a grid cannot hold, in the reference or in a method,
    # is scored for no method
    unheld = [name for name, grid in grids.items() if grid is None
              or any(score.get(name, 0.0) is None
                     for score in scores.values())]

    table = {}
    for method in methods:
        report, summary, wall_time_s = outcomes[method]
        mean_err, sd_err = diagnostics.moment_errors(summary, ref_summary)
        table[method] = {
            "accuracy": {name: value for name, value in scores[method].items()
                         if name not in unheld},
            "mean_err": mean_err, "sd_err": sd_err,
            "iterations": report.iterations, "converged": report.converged,
            "wall_time_s": wall_time_s}
    doc = {"schema": SCHEMA_VERSION, "model": args.model,
           "reference": reference, "methods": table}
    notes = [] if ref.converged else [
        f"reference {reference} did not converge: {ref.iterations} "
        f"iterations, termination {ref.termination}"]
    notes += [f"marginal {name} is left out of every accuracy: {_UNHELD}"
              for name in unheld]
    if notes:
        doc["warnings"] = notes
    return doc


# ---------------------------------------------------------------------------
# rendering


def _round_sig(x: float | None) -> float | None:
    """x rounded to _PRETTY_DIGITS significant digits; None stays None."""
    return None if x is None else float(f"{x:.{_PRETTY_DIGITS}g}")


def _pretty_fit(doc: dict) -> str:
    moments = doc["moments"]
    lines = [f"model: {doc['model']}   method: {doc['method']}",
             f"converged: {doc['converged']}   "
             f"iterations: {doc['iterations']}", "coef   mean        sd"]
    for j, (m, row) in enumerate(zip(moments["mean"], moments["cov"])):
        sd = None if row[j] is None else float(np.sqrt(row[j]))
        lines.append(f"[{j}]   {_round_sig(m)!s:<10} {_round_sig(sd)!s:<10}")
    if "scalar_mean" in moments:
        lines.append(f"scalar mean: {_round_sig(moments['scalar_mean'])}   "
                     f"variance: {_round_sig(moments['scalar_var'])}")
    lines.append(f"wall time: {doc['wall_time_s']:.4g} s")
    return "\n".join(lines)


def _emit_density(q: dict, name: str, path: str) -> None:
    grids = diagnostics.marginal_grids(q)
    if name not in grids:
        raise UsageError(f"no marginal named {name!r}; available: "
                         f"{', '.join(grids)}")
    if grids[name] is None:
        raise NumericError(f"marginal {name} has no density grid: "
                           f"{_UNHELD}")
    _write_csv(path, ["point", "value"],
               np.column_stack((grids[name].points, grids[name].values)))


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    # options of _DEFAULTS, here and in generate, read None until _options
    p.add_argument("--data", help="input CSV (header row required)")
    p.add_argument("--summary", help="JSON summary input (mvn/toy)")
    p.add_argument("--eps", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--g", type=float)
    p.add_argument("--A", type=float)
    p.add_argument("--B", type=float)
    p.add_argument("--lambda0", type=float)
    p.add_argument("--nu0", type=float)
    p.add_argument("--psi0-scale", type=float, help="Psi0 = scale * I")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="probit ridge prior precision")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-samples", type=int)
    p.add_argument("--n-warmup", type=int)
    p.add_argument("--intercept", action="store_true", default=None,
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

    gen = sub.add_parser("generate", help="write a synthetic dataset CSV")
    gen.add_argument("--model", required=True,
                     choices=[m for m, spec in MODELS.items()
                              if spec.generate])
    gen.add_argument("--n", type=int)
    gen.add_argument("--p", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--beta", help="comma-separated true coefficients")
    gen.add_argument("--sigma", type=float,
                     help="noise standard deviation (linear only; default 1)")
    gen.add_argument("--fixed", action="store_true", default=None,
                     help="emit the fixed five-point reference dataset "
                          "(linear only)")
    gen.add_argument("--no-intercept", action="store_true", default=None,
                     help="draw x1 as the other columns, not as "
                          "ones (probit only)")
    gen.add_argument("--out", required=True)
    return ap


def _encode(doc: dict) -> dict:
    """doc as _jsonify gives it, its "warnings" list, if it has one, followed
    by an entry for each non-finite value replaced by null."""
    doc = dict(doc)
    warnings = list(doc.pop("warnings", []))
    doc = _jsonify(doc, warnings)
    if warnings:
        doc["warnings"] = warnings
    return doc


@contextlib.contextmanager
def _open_out(path: str | None):
    """path open for writing, or stdout; OSError on path is an InputError."""
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _write_csv(path: str, header: list[str], X: np.ndarray,
               y: np.ndarray | None = None, y_cell=float.__repr__) -> None:
    """header and X's rows, each after its y cell if there is y, as CSV
    with CRLF line ends into path; a float is its shortest repr. Rows are
    formatted one at a time."""
    rows = (",".join(map(float.__repr__, row.tolist())) for row in X)
    if y is not None:
        rows = (f"{y_cell(v)},{row}" for v, row in zip(y, rows))
    with _open_out(path) as out:
        out.write(",".join(header) + "\r\n")
        out.writelines(row + "\r\n" for row in rows)


def _generate(args: argparse.Namespace, model: Model) -> None:
    """The model's data set as a CSV of columns y (where it has one) and
    x1, x2, ... into --out, once _options has checked the options."""
    _options(args, model)
    X, *label = model.generate(args)
    header = ["y"] * bool(label) + [f"x{j + 1}" for j in range(X.shape[1])]
    _write_csv(args.out, header, X, *label)


def _write_report(doc: dict, out: str | None, pretty: bool) -> None:
    if out or not pretty:
        with _open_out(out) as fh:
            _dump(doc, fh.write)
            fh.write("\n")
    if pretty:
        print(_pretty_fit(doc))
    sys.stdout.flush()  # a closed stdout fails here, not at exit


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "generate":
            _generate(args, MODELS[args.model])
            return 0
        if args.command == "fit":
            model = _model(args.model, args.method)
            report, summary, wall_time_s = _fit(args, model, args.method,
                                                *_load(args, model),
                                                trace=args.trace)
            doc = {"schema": SCHEMA_VERSION, "model": args.model,
                   "method": args.method, "converged": report.converged,
                   "iterations": report.iterations,
                   "termination": report.termination,
                   "q": _q_to_json(report.params),
                   "moments": _fields(summary), "wall_time_s": wall_time_s}
            if report.wrong_basin is not None:
                doc["wrong_basin"] = report.wrong_basin
            if report.trace is not None:
                doc["trace"] = report.trace
            doc = _encode(doc)
            if args.emit_density:
                _emit_density(report.params, args.emit_density,
                              args.density_out)
            _write_report(doc, args.out, args.pretty)
            return 0
        # compare
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        reference = args.reference or MODELS[args.model].reference
        _write_report(_encode(run_compare(args, methods, reference)),
                      args.out, pretty=False)
        return 0
    except (UsageError, DomainError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InputError) else 2
    except BrokenPipeError:
        # The reader of stdout is gone. Point stdout at devnull, so that the
        # interpreter's flush of what is still buffered cannot fail at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written",
              file=sys.stderr)
        return 3
    except (NumericError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
