"""Digest of the probit fits' fixed points, to compare two trees.

    python scripts/fit_digest.py [--rotate SEED] [--eps EPS] OUT.npz
    python scripts/fit_digest.py A.npz B.npz
    python scripts/fit_digest.py A.npz B.npz --against T.npz

The first form fits laplace, mfvb, mp-dm, mp-quad, dmvb and gibbs on the
benchmark's sixty small probit designs, generate_probit(n_j, p_j, seed=j)
with n_j in [50, 100] and p_j in {4, 5} drawn from default_rng(j), and on
generate_probit(50_000, 20, seed=1), where dmvb is skipped. Every prior is
a ridge of 0.01, every iterative fit gets max_iter 2000 and eps EPS (the
fitters' default, 1e-6, unless given), and Gibbs takes 1,000 draws after
100 of warm-up from seed 0. It saves each fit's mean and covariance,
and each iterative fit's iteration count and converged flag. --rotate SEED
rotates and permutes the rows of each small design as the benchmark's
probit-small-study does at seed SEED.

The second form prints, per method, the largest absolute move of a mean or
covariance entry from A to B and the design where it happens ("identical"
when every array is equal bit for bit), then one line for every iteration
count or converged flag that differs.

The third form takes T as the tight reference, a digest of the same
designs at a small eps (say 1e-13), and prints every fit whose B point
lies more than 1e-10 farther from T's than its A point does, the distance
being the largest absolute difference of a mean or covariance entry; its
last line counts them.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from momprop import probit
from momprop.datagen import generate_probit

PANEL, LAM, MAX_ITER, EPS = 60, 0.01, 2000, 1e-6
LARGE = (50_000, 20, 1)  # n, p, seed
# the tight-reference test: how much farther B may lie from T than A does
SLACK = 1e-10
FITS = {
    "laplace": lambda d, pr, eps: probit.probit_laplace_fit(
        d, pr, eps, MAX_ITER),
    "mfvb": lambda d, pr, eps: probit.probit_mfvb_fit(d, pr, eps, MAX_ITER),
    "mp-dm": lambda d, pr, eps: probit.probit_mp_fit(d, pr, "dm", eps,
                                                     MAX_ITER),
    "mp-quad": lambda d, pr, eps: probit.probit_mp_fit(d, pr, "quad", eps,
                                                       MAX_ITER),
    "dmvb": lambda d, pr, eps: probit.probit_dmvb_fit(d, pr, eps, MAX_ITER),
    "gibbs": lambda d, pr, eps: probit.probit_gibbs_oracle(
        d, pr, n_samples=1000, n_warmup=100, seed=0),
}


def _rotation(rng: np.random.Generator, p: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((p, p)))
    return Q * np.sign(np.diag(R))


def designs(rotate: int | None = None, panel=range(PANEL),
            large: bool = True) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(label, y, X) for the small designs in panel, rotated as the
    benchmark's seed rotate rotates them, and for the large one."""
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
    if large:
        n, p, seed = LARGE
        out.append((f"{n}x{p} seed {seed}", *generate_probit(n, p, seed)))
    return out


def fit_all(sets, eps: float = EPS) -> dict[str, np.ndarray]:
    """Every method's fit on every (label, y, X) at eps, as arrays keyed
    "label|method|field"."""
    out = {}
    for label, y, X in sets:
        data = probit.ProbitData(y, X)
        prior = probit.ProbitPrior.ridge(LAM, data.p)
        for method, fit in FITS.items():
            if method == "dmvb" and data.n >= LARGE[0]:
                continue
            key = f"{label}|{method}|"
            rep = fit(data, prior, eps)
            if method == "gibbs":
                out[key + "mean"], out[key + "cov"] = rep.mean, rep.cov
                continue
            out[key + "mean"] = rep.params["beta"].mean
            out[key + "cov"] = rep.params["beta"].cov
            out[key + "iterations"] = np.array(rep.iterations)
            out[key + "converged"] = np.array(rep.converged)
    return out


def compare(a: dict, b: dict) -> list[str]:
    """Per method, the largest move from a to b and where; then every key
    that is in one digest only, and every count or flag that differs."""
    moves, lines = {}, []
    for key in sorted(a.keys() & b.keys()):
        label, method, field = key.split("|")
        if field in ("mean", "cov"):
            gap = float(np.max(np.abs(a[key] - b[key])))
            worst = moves.setdefault(method, [0.0, "", True])
            worst[2] &= np.array_equal(a[key], b[key])
            if gap > worst[0]:
                worst[:2] = gap, f"{label} {field}"
        elif not np.array_equal(a[key], b[key]):
            lines.append(f"{label} {method} {field}: {a[key]} -> {b[key]}")
    lines += [f"only in the first: {key}"
              for key in sorted(a.keys() - b.keys())]
    lines += [f"only in the second: {key}"
              for key in sorted(b.keys() - a.keys())]
    summary = []
    for method in (m for m in FITS if m in moves):
        gap, where, equal = moves[method]
        summary.append(f"{method:8s} identical" if equal else
                       f"{method:8s} max move {gap:.3g} at {where}")
    return summary + lines


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
        np.savez(args.paths[0], **fit_all(designs(args.rotate), eps))
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
