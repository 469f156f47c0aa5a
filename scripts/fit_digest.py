"""Digest of the fits' fixed points, to compare two trees.

    python scripts/fit_digest.py [--rotate SEED] [--eps EPS] OUT.npz
    python scripts/fit_digest.py A.npz B.npz
    python scripts/fit_digest.py A.npz B.npz --against T.npz

The first form runs every method of cli.MODELS as the CLI does, so one
added there is digested with no edit here: max_iter 2000, eps EPS (1e-6
unless given; toy-mp keeps its own), Gibbs 1,000 draws after 100 of
warm-up from seed 0. An iterative fit also saves its count, converged
flag and, for MVN, wrong-basin flag.

The probit methods fit the benchmark's sixty small designs,
generate_probit(n_j, p_j, seed=j), n_j in [50, 100] and p_j in {4, 5}
from default_rng(j), and MID and LARGE, one on each side of
probit._GIBBS_SPLIT, under a ridge prior of 0.01, keeping each fit's mean
and covariance and a Gibbs fit's mc_se. --rotate SEED rotates and permutes
the small designs' rows as the benchmark's probit-small-study does.

The conjugate methods (lin-*, mvn-*, toy-*) fit sixty designs each, drawn
as conjugate-batch draws its pool, one seed per design: generate_linear(
n_j, p_j, seed=j), n_j in [8, 40] and p_j in [1, 4] from default_rng(j),
under g = 1e4, A = B = 0.01; the summary of generate_mvn(n_j, p_j, seed=j),
p_j in [2, 4], under lambda0 = 0.01; and a toy Gaussian that default_rng(j)
then draws (d in [3, 6], Sigma = M M' + d I, split in [1, d)). Every q
field is kept (beta.loc, sigma2.shape, ...); --rotate leaves these alone.

It also saves the kernel: specfun._zeta_orders(10, t), orders 1 to 10, at
ZETA_T (dense on [-40, 40], the neighbours of -25 and -12, +-1e2..1e200),
and xi((0, 1, 2), mu, sigma2) on XI_MU x XI_S2, which reaches the series,
the Gauss-Hermite band and the fixed rule.

The second form prints, per method, the largest absolute move of a saved
entry from A to B and where ("identical" if all arrays are equal bit for
bit); a zeta and an xi line alike, by relative move; a line per other fit
that moved (largest move, field); per Gibbs fit whose mean moved, its
largest mean move over the combined MC-SE hypot(mc_se_A, mc_se_B); and a
line per count or flag that differs.

The third form prints every fit whose B point lies more than 1e-10
farther than its A point from T's, a digest at a small eps (say 1e-13),
by the largest absolute difference of a mean or covariance entry, then
their count.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from momprop import cli, diagnostics, linear, mvn, probit, specfun
from momprop.datagen import generate_linear, generate_mvn, generate_probit

PANEL, LAM, MAX_ITER, EPS = 60, 0.01, 2000, 1e-6
# n, p, seed of the designs beside the panel: one on each side of
# probit._GIBBS_SPLIT
MID, LARGE = (4000, 20, 1), (50_000, 20, 1)
# the tight-reference test: how much farther B may lie from T than A does
SLACK = 1e-10
# every fit's options but eps, as the command line would give them
OPTIONS = dict(max_iter=MAX_ITER, n_samples=1000, n_warmup=100, seed=0)
# the probit methods, and conjugate method -> (model, its method)
FITS = list(cli.MODELS["probit"].fits)
CONJUGATE = {f"{model[:3]}-{method}": (model, method)
             for model in ("linear", "mvn", "toy")
             for method in cli.MODELS[model].fits}
# the conjugate-batch priors
LINEAR_PRIOR = linear.LinearPrior(g=1e4, A=0.01, B=0.01)
MVN_PRIOR = mvn.MVNPrior(lambda0=0.01)
# saved fields compared for equality, not measured as moves
FLAGS = ("iterations", "converged", "wrong_basin")
# the kernel's points: zeta's t (the grid holds -25 and -12 themselves),
# and xi's (mu, sigma2)
_SEAMS = np.array([-25.0, -12.0])
ZETA_T = np.concatenate([
    np.linspace(-40.0, 40.0, 8001), np.nextafter(_SEAMS, -np.inf),
    np.nextafter(_SEAMS, np.inf), -np.geomspace(1e2, 1e200, 199),
    np.geomspace(1e2, 1e200, 199)])
XI_MU, XI_S2 = (grid.ravel() for grid in np.meshgrid(
    np.linspace(-50.0, 12.0, 249), [0.005, 0.05, 0.5, 1.9, 2.0, 10.0, 1e4]))
KERNEL = {
    "zeta": lambda k, i: f"order {k + 1}, t = {float(ZETA_T[i])!r}",
    "xi": lambda k, i: (f"d = {k}, mu = {float(XI_MU[i])!r}, "
                        f"sigma2 = {float(XI_S2[i])!r}"),
}


def _rotation(rng: np.random.Generator, p: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((p, p)))
    return Q * np.sign(np.diag(R))


def designs(rotate: int | None = None, panel=range(PANEL),
            large: bool = True) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(label, y, X) for the small designs in panel, rotated as the
    benchmark's seed rotate rotates them, and for the two larger ones
    (MID and LARGE) if large."""
    rng = None if rotate is None else np.random.default_rng(rotate)
    out = []
    for j in range(max(panel, default=-1) + 1):
        shape_rng = np.random.default_rng(j)
        n = int(shape_rng.integers(50, 101))
        p = int(shape_rng.integers(4, 6))
        y, X = generate_probit(n, p, seed=j)
        if rng is not None:  # draw every design's rotation, kept or not
            perm = rng.permutation(n)
            y, X = y[perm], (X @ _rotation(rng, p))[perm]
        if j in panel:
            out.append((f"panel {j}", y, X))
    for n, p, seed in (MID, LARGE) if large else ():
        out.append((f"{n}x{p} seed {seed}", *generate_probit(n, p, seed)))
    return out


def _fit(model: str, method: str, data, prior, eps: float, key: str):
    """cli.MODELS[model].fits[method]'s report at eps, and its count and
    flags keyed key + flag if it has a trace (an iterative fit)."""
    rep = cli.MODELS[model].fits[method](
        argparse.Namespace(eps=eps, **OPTIONS), data, prior, None)
    return rep, {} if rep.trace is None else {
        key + flag: np.array(getattr(rep, flag)) for flag in FLAGS
        if getattr(rep, flag) is not None}


def fit_all(sets, eps: float = EPS) -> dict[str, np.ndarray]:
    """Every method's fit on every (label, y, X) at eps, as arrays keyed
    "label|method|field"."""
    out = {}
    for label, y, X in sets:
        data = probit.ProbitData(y, X)
        prior = probit.ProbitPrior.ridge(LAM, data.p)
        for method in FITS:
            key = f"{label}|{method}|"
            rep, flags = _fit("probit", method, data, prior, eps, key)
            beta = rep.params["beta"]
            out[key + "mean"], out[key + "cov"] = beta.mean, beta.cov
            if getattr(beta, "mc_se", None) is not None:
                out[key + "mc_se"] = beta.mc_se
            out.update(flags)
    return out


def conjugate_designs(panel=range(PANEL)) -> dict[str, list]:
    """model -> [(label, data, prior)] for the linear, MVN and toy designs
    in panel; a toy spec has no prior."""
    out = {"linear": [], "mvn": [], "toy": []}
    for j in panel:
        rng = np.random.default_rng(j)
        n, p = int(rng.integers(8, 41)), int(rng.integers(1, 5))
        out["linear"].append((f"linear {j}", linear.LinearData(
            *generate_linear(n, p, seed=j)), LINEAR_PRIOR))
        out["mvn"].append((f"mvn {j}", mvn.MVNData.from_raw(
            generate_mvn(n, max(p, 2), seed=j)), MVN_PRIOR))
        d = int(rng.integers(3, 7))
        M = rng.standard_normal((d, d))
        out["toy"].append((f"toy {j}", diagnostics.ToyGaussianSpec(
            mu=rng.standard_normal(d), Sigma=M @ M.T + d * np.eye(d),
            split=int(rng.integers(1, d))), None))
    return out


def fit_conjugate(sets, eps: float = EPS) -> dict[str, np.ndarray]:
    """Every conjugate method's fit on its model's designs in sets (from
    conjugate_designs) at eps, as arrays keyed "label|method|field": a q
    field is "block.name", as beta.loc or sigma2.shape."""
    out = {}
    for method, (model, fit) in CONJUGATE.items():
        for label, data, prior in sets[model]:
            key = f"{label}|{method}|"
            rep, flags = _fit(model, fit, data, prior, eps, key)
            for block, approx in rep.params.items():
                for name, value in vars(approx).items():
                    out[f"{key}{block}.{name}"] = np.asarray(value)
            out.update(flags)
    return out


def kernel() -> dict[str, np.ndarray]:
    """zeta's orders 1..10 at ZETA_T and xi's orders 0..2 at (XI_MU,
    XI_S2), one row per order."""
    return {"zeta": np.array(specfun._zeta_orders(10, ZETA_T)[1:]),
            "xi": specfun.xi((0, 1, 2), XI_MU, XI_S2)}


def kernel_moves(a: dict, b: dict) -> list[str]:
    """A zeta line and an xi line, for each that both digests hold:
    "identical", or the largest relative move from a to b and where."""
    lines = []
    for name, where in KERNEL.items():
        if name not in a or name not in b:
            continue
        x, y = a[name], b[name]
        if np.array_equal(x, y, equal_nan=True):
            lines.append(f"{name:8s} identical")
            continue
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
        # equal values, zeros and nans included, do not move; a nan on one
        # side only moves by inf
        rel = np.where((x == y) | np.isnan(x) & np.isnan(y), 0.0,
                       np.nan_to_num(rel, nan=np.inf))
        k, i = np.unravel_index(np.argmax(rel), rel.shape)
        lines.append(f"{name:8s} max relative move {rel[k, i]:.3g} at "
                     f"{where(k, i)}")
    return lines


def mc_se_moves(a: dict, b: dict) -> list[str]:
    """One line for every Gibbs fit whose mean moved from a to b: its
    largest mean move over the combined MC-SE of that entry."""
    lines = []
    for key in sorted(k for k in a.keys() & b.keys() if k.endswith("|mc_se")):
        fit = key[:-len("mc_se")]
        move = np.abs(a[fit + "mean"] - b[fit + "mean"])
        if move.any():
            label, method, _ = key.split("|")
            lines.append(f"{label} {method} mean: max move "
                         f"{np.max(move / np.hypot(a[key], b[key])):.3g} "
                         f"combined MC-SE")
    return lines


def compare(a: dict, b: dict) -> list[str]:
    """Per method, the largest move from a to b and where; then the
    kernel's lines (kernel_moves); then one line for every fit that moved,
    with its largest move and where (a Gibbs fit's in MC-SE, by
    mc_se_moves), every key that is in one digest only, and every count or
    flag that differs."""
    moves, fits, lines = {}, {}, []
    for key in sorted(a.keys() & b.keys() - KERNEL.keys()):
        label, method, field = key.split("|")
        if field not in FLAGS:
            gap = float(np.max(np.abs(a[key] - b[key])))
            equal = np.array_equal(a[key], b[key])
            worst = moves.setdefault(method, [0.0, "", True])
            worst[2] &= equal
            if gap > worst[0]:
                worst[:2] = gap, f"{label} {field}"
            if not equal and f"{label}|{method}|mc_se" not in a:
                fit = fits.setdefault(f"{label} {method}", [gap, field])
                if gap > fit[0]:
                    fit[:] = gap, field
        elif not np.array_equal(a[key], b[key]):
            lines.append(f"{label} {method} {field}: {a[key]} -> {b[key]}")
    lines += [f"only in the {which}: {key}" for which, x, y in
              (("first", a, b), ("second", b, a))
              for key in sorted(x.keys() - y.keys())]
    summary = []
    for method in (m for m in (*FITS, *CONJUGATE) if m in moves):
        gap, where, equal = moves[method]
        summary.append(f"{method:8s} identical" if equal else
                       f"{method:8s} max move {gap:.3g} at {where}")
    moved = [f"{fit}: max move {gap:.3g} at {field}"
             for fit, (gap, field) in fits.items()]
    return summary + kernel_moves(a, b) + moved + mc_se_moves(a, b) + lines


def _distance(digest: dict, tight: dict, fit: str) -> float:
    return max(float(np.max(np.abs(digest[fit + f] - tight[fit + f])))
               for f in ("mean", "cov"))


def farther(a: dict, b: dict, tight: dict) -> list[str]:
    """One line for every fit of a and b whose b point lies more than
    SLACK farther from tight's than its a point, then their count."""
    fits = sorted(key[:-len("mean")] for key in a.keys() & b.keys()
                  & tight.keys() if key.endswith("|mean"))
    lines = []
    for fit in fits:
        da, db = _distance(a, tight, fit), _distance(b, tight, fit)
        if db > da + SLACK:
            label, method, _ = fit.split("|")
            lines.append(f"{label} {method}: {db:.3g} from the reference "
                         f"against {da:.3g}")
    return lines + [f"{len(lines)} of {len(fits)} fits lie more than "
                    f"{SLACK:g} farther from the reference"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("paths", nargs="+", metavar="NPZ")
    ap.add_argument("--rotate", type=int, default=None)
    ap.add_argument("--eps", type=float, default=None)
    ap.add_argument("--against", metavar="T.npz", default=None)
    args = ap.parse_args(argv)
    if len(args.paths) == 1 and args.against is None:
        eps = EPS if args.eps is None else args.eps
        np.savez(args.paths[0], **fit_all(designs(args.rotate), eps),
                 **fit_conjugate(conjugate_designs(), eps), **kernel())
        return 0
    if (len(args.paths) != 2 or args.rotate is not None
            or args.eps is not None):
        ap.error("give OUT.npz to fit, or A.npz B.npz [--against T.npz] "
                 "to compare")
    a, b = (dict(np.load(path)) for path in args.paths)
    print("\n".join(compare(a, b) if args.against is None
                    else farther(a, b, dict(np.load(args.against)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
