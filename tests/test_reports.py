"""The shared fixed-point driver and the iteration arguments of every
iterative fitter."""

import numpy as np
import pytest

from momprop.datagen import fixed_linear_dataset, generate_probit
from momprop.exceptions import DomainError
from momprop.linear import (LinearData, LinearPrior, linear_mfvb_fit,
                            linear_mp1_fit, linear_mp2_fit)
from momprop.mvn import MVNData, MVNPrior, mvn_mfvb_fit, mvn_mp_fit
from momprop.probit import (ProbitData, ProbitPrior, probit_dmvb_fit,
                            probit_laplace_fit, probit_mfvb_fit,
                            probit_mp_fit)
from momprop.reports import fixed_point


def _linear():
    return LinearData(*fixed_linear_dataset()), LinearPrior(1e4, 0.01, 0.01)


def _mvn():
    data = MVNData(n=4, xbar=[-0.9724726, 1.3202681],
                   S=[[0.8144316, 0.5688416], [0.5688416, 1.9682059]])
    return data, MVNPrior()


def _probit():
    y, X = generate_probit(40, 2, seed=3)
    return ProbitData(y, X), ProbitPrior.ridge(1.0, 2)


ITERATIVE_FITTERS = {
    "linear-mfvb": (linear_mfvb_fit, _linear),
    "linear-mp1": (linear_mp1_fit, _linear),
    "linear-mp2": (linear_mp2_fit, _linear),
    "mvn-mfvb": (mvn_mfvb_fit, _mvn),
    "mvn-mp": (mvn_mp_fit, _mvn),
    "probit-laplace": (probit_laplace_fit, _probit),
    "probit-mfvb": (probit_mfvb_fit, _probit),
    "probit-mp": (probit_mp_fit, _probit),
    "probit-dmvb": (probit_dmvb_fit, _probit),
}


@pytest.mark.parametrize("max_iter", [0, -1])
@pytest.mark.parametrize("name", sorted(ITERATIVE_FITTERS))
def test_max_iter_below_one_is_domain_error(name, max_iter):
    fit, problem = ITERATIVE_FITTERS[name]
    with pytest.raises(DomainError, match="max_iter"):
        fit(*problem(), max_iter=max_iter)


class TestFixedPoint:
    @staticmethod
    def halving(state):
        state = state / 2.0
        return state, np.array([state])

    def test_stops_when_successive_vectors_agree(self):
        rep = fixed_point("halve", self.halving, 1.0,
                          lambda s: {"x": s}, eps=0.1, max_iter=50)
        # vectors 0.5, 0.25, 0.125, 0.0625: the change 0.0625 is the first
        # below 0.1
        assert rep.converged and rep.termination == "converged"
        assert rep.iterations == 4
        assert rep.params == {"x": 0.0625}
        assert [float(t[0]) for t in rep.trace] == [0.5, 0.25, 0.125, 0.0625]

    def test_cap_reports_last_state(self):
        rep = fixed_point("halve", self.halving, 1.0,
                          lambda s: {"x": s}, eps=1e-9, max_iter=3)
        assert not rep.converged and rep.termination == "max_iter"
        assert rep.iterations == 3 and rep.params == {"x": 0.125}

    def test_first_sweep_never_converges(self):
        rep = fixed_point("still", lambda s: (s, np.zeros(1)), 0.0,
                          lambda s: {}, eps=1.0, max_iter=1)
        assert not rep.converged and rep.iterations == 1

    @pytest.mark.parametrize("eps", [0.0, -1e-6, float("nan")])
    def test_non_positive_eps(self, eps):
        with pytest.raises(DomainError, match="eps"):
            fixed_point("halve", self.halving, 1.0, lambda s: {}, eps, 10)
