"""Traced mode: spans around calls into each momprop module.

Wrappers replace module attributes under the names their callers look
up (`momprop.probit.xi`, `momprop.cli.probit_mp_fit`, ...), so a span
covers exactly the calls one layer makes into another. Each span records
its name, start, end, parent and a few counts taken from the call's
arguments or result. Spans stay in memory; run.py writes them out when
the run ends. Nothing is wrapped in an untraced run.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict
from pathlib import Path

import numpy as np

import momprop.cli
import momprop.datagen
import momprop.diagnostics
import momprop.linear
import momprop.mvn
import momprop.probit
import momprop.specfun

PROBIT_METHODS = ("laplace", "mfvb", "mp_dm", "mp_quad", "dmvb")
LINEAR_METHODS = ("exact", "mfvb", "mp1", "mp2")
MVN_METHODS = ("exact", "mfvb", "mp")
SPECFUN_SPANS = ("specfun.zeta_orders", "specfun.xi")


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _fit_counts(args, kwargs, out) -> dict:
    trace = getattr(out, "trace", None) or []
    return {"sweeps": getattr(out, "iterations", 0),
            "floats": int(sum(np.size(t) for t in trace))}


def _elems(pos: int):
    return lambda args, kwargs, out: {"elems": int(np.size(args[pos]))}


def _gibbs_counts(args, kwargs, out) -> dict:
    return {"draws": _arg(args, kwargs, 2, "n_samples", 50_000)
            + _arg(args, kwargs, 3, "n_warmup", 5_000)}


def _mp_name(args, kwargs) -> str:
    return "probit.mp_" + str(_arg(args, kwargs, 2, "variant", "dm")).lower()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.passes = 0

    # -- recording ----------------------------------------------------------

    def _wrap(self, module, attr: str, name, counts=None, outer_only=False):
        orig = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name,
                    0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if outer_only:  # recursive calls reach the original directly
                setattr(module, attr, orig)
            span[1] = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if outer_only:
                    setattr(module, attr, wrapper)
            if counts is not None:
                span[4] = counts(args, kwargs, out)
            return out

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, orig))

    def install(self) -> None:
        cli, probit, specfun = momprop.cli, momprop.probit, momprop.specfun
        linear, mvn = momprop.linear, momprop.mvn
        diagnostics, datagen = momprop.diagnostics, momprop.datagen
        w = self._wrap
        w(cli, "main", "cli.main")
        w(cli, "_read_csv", "cli.read_csv")
        w(cli, "_jsonify", "cli.encode", outer_only=True)
        json_proxy = types.SimpleNamespace(**vars(cli.json))
        cli.json, json_proxy_orig = json_proxy, cli.json
        self._undo.append((cli, "json", json_proxy_orig))
        w(json_proxy, "dumps", "cli.encode",
          lambda a, k, out: {"bytes": len(out)})
        for mod in (cli, probit):
            w(mod, "probit_laplace_fit", "probit.laplace", _fit_counts)
            w(mod, "probit_mfvb_fit", "probit.mfvb", _fit_counts)
            w(mod, "probit_mp_fit", _mp_name, _fit_counts)
            w(mod, "probit_dmvb_fit", "probit.dmvb", _fit_counts)
            w(mod, "probit_gibbs_oracle", "probit.gibbs", _gibbs_counts)
        w(probit, "_zeta_orders", "specfun.zeta_orders", _elems(1))
        w(probit, "xi", "specfun.xi", _elems(1))
        w(specfun, "xi_taylor", "specfun.xi_taylor", _elems(1))
        w(specfun, "xi_quad", "specfun.xi_quad", _elems(1))
        for mod in (cli, linear):
            w(mod, "linear_exact_posterior", "linear.exact")
            for m in ("mfvb", "mp1", "mp2"):
                w(mod, f"linear_{m}_fit", f"linear.{m}", _fit_counts)
        for mod in (cli, mvn):
            w(mod, "mvn_exact_posterior", "mvn.exact")
            for m in ("mfvb", "mp"):
                w(mod, f"mvn_{m}_fit", f"mvn.{m}", _fit_counts)
        for mod, attr in ((linear, "ig_moment_match"),
                          (mvn, "ig_moment_match"),
                          (mvn, "iw_moment_match")):
            if hasattr(mod, attr):
                w(mod, attr, "moments.match")
        w(diagnostics, "accuracy", "diagnostics.accuracy")
        for mod in (cli, diagnostics):
            w(mod, "toy_gaussian_mp", "diagnostics.toy_gaussian_mp")
        for attr in ("generate_linear", "generate_probit", "generate_mvn",
                     "fixed_linear_dataset"):
            w(datagen, attr, "datagen")

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

    def mark(self, label: str) -> None:
        """A zero-length span that separates phases of the run."""
        t = time.perf_counter()
        self.spans.append([label, t, t, -1, None])

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, **(counts or {})})
                         + "\n")

    # -- per-layer metrics --------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the spans recorded after mark("passes").

        Counts and times are per timed pass; ratios are over all passes.
        datagen.s comes from the spans recorded during set-up.
        """
        start = next(i for i, s in enumerate(self.spans) if s[0] == "passes")
        k = max(self.passes, 1)
        dur = defaultdict(float)
        calls = defaultdict(int)
        tot = defaultdict(lambda: defaultdict(float))
        children_specfun = defaultdict(float)
        main_ms = []
        for i, (name, t0, t1, parent, counts) in enumerate(self.spans):
            if name == "datagen" and i < start:
                dur["datagen.setup"] += t1 - t0
            if i <= start:
                continue
            dur[name] += t1 - t0
            calls[name] += 1
            for key, val in (counts or {}).items():
                tot[name][key] += val
            if name in SPECFUN_SPANS and parent >= 0:
                children_specfun[parent] += t1 - t0
            if name == "cli.main":
                main_ms.append(1e3 * (t1 - t0))
        self_s = defaultdict(float, dur)
        for parent, child_s in children_specfun.items():
            self_s[self.spans[parent][0]] -= child_s

        def ratio(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        out: dict[str, tuple[float, str]] = {}
        out["cli.read_csv.calls"] = (calls["cli.read_csv"] / k, "count")
        out["cli.read_csv.s"] = (dur["cli.read_csv"] / k, "s")
        out["cli.encode.s"] = (dur["cli.encode"] / k, "s")
        out["cli.report.mb"] = (tot["cli.encode"]["bytes"] / k / 1e6, "MB")
        out["cli.main.ms_p50"] = (float(np.median(main_ms)) if main_ms
                                  else 0.0, "ms")
        for m in PROBIT_METHODS:
            name = f"probit.{m}"
            sweeps = tot[name]["sweeps"]
            out[f"{name}.s"] = (dur[name] / k, "s")
            out[f"{name}.sweeps"] = (sweeps / k, "count")
            out[f"{name}.sweep_ms"] = (ratio(dur[name], sweeps, 1e3), "ms")
            out[f"{name}.self_s"] = (self_s[name] / k, "s")
        draws = tot["probit.gibbs"]["draws"]
        out["probit.gibbs.draws"] = (draws / k, "count")
        out["probit.gibbs.draw_us"] = (ratio(dur["probit.gibbs"], draws, 1e6),
                                       "us")
        z = "specfun.zeta_orders"
        out[f"{z}.calls"] = (calls[z] / k, "count")
        out[f"{z}.ns_per_elem"] = (ratio(dur[z], tot[z]["elems"], 1e9), "ns")
        xt, xq = "specfun.xi_taylor", "specfun.xi_quad"
        out["specfun.xi.elems"] = (tot["specfun.xi"]["elems"] / k, "count")
        out[f"{xt}.elems"] = (tot[xt]["elems"] / k, "count")
        out[f"{xt}.ns_per_elem"] = (ratio(dur[xt], tot[xt]["elems"], 1e9),
                                    "ns")
        out[f"{xq}.elems"] = (tot[xq]["elems"] / k, "count")
        out[f"{xq}.us_per_elem"] = (ratio(dur[xq], tot[xq]["elems"], 1e6),
                                    "us")
        out[f"{xq}.share"] = (ratio(tot[xq]["elems"],
                                    tot["specfun.xi"]["elems"]), "ratio")
        out["reports.trace.floats"] = (
            sum(tot[n]["floats"] for n in tot) / k, "count")
        for model, methods in (("linear", LINEAR_METHODS),
                               ("mvn", MVN_METHODS)):
            for m in methods:
                name = f"{model}.{m}"
                out[f"{name}.us"] = (ratio(dur[name], calls[name], 1e6), "us")
                out[f"{name}.sweeps"] = (tot[name]["sweeps"] / k, "count")
        out["moments.match.calls"] = (calls["moments.match"] / k, "count")
        out["moments.match.us"] = (ratio(dur["moments.match"],
                                         calls["moments.match"], 1e6), "us")
        for name in ("diagnostics.accuracy", "diagnostics.toy_gaussian_mp"):
            out[f"{name}.us"] = (ratio(dur[name], calls[name], 1e6), "us")
        out["datagen.s"] = (dur["datagen.setup"], "s")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out
