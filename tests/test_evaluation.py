import numpy as np
import pytest

from sketchpcr import evaluation as ev
from sketchpcr.linalg import pinv_solve, thin_svd


def _model(seed=0, n=40, d=12, k=3):
    a = ev.planted_matrix(n, d, k, 0.4, seed=seed)
    f = a @ np.random.default_rng(seed + 1).standard_normal(d)
    return ev.FixedDesignModel(a=a, f=f, sigma=0.1)


@pytest.mark.parametrize("k", [1, 3, 11, 12])
def test_svd_is_thin_svd_split_at_k(k):
    model = _model()
    got, want = model.svd(k), thin_svd(model.a, k)
    assert got.u_rest is None
    for name in ("u_k", "sigma_k", "v_k", "sigma_rest", "v_rest"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_a_is_factored_once(monkeypatch):
    real, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda m, *a, **kw: calls.append(np.shape(m)) or real(m, *a, **kw))
    model = _model()
    for k in (2, 3):
        ev.classic_pcr_risk_bound(model, k)
        ev.risk_bound_check(model, k, "pcr_corollary")
    assert calls.count(model.a.shape) == 1


def test_x_star_is_the_pseudo_inverse_solution_and_a_is_read_only():
    model = _model()
    want = pinv_solve(model.a, model.f)
    assert np.linalg.norm(model.x_star - want) <= 1e-12 * np.linalg.norm(want)
    assert not model.a.flags.writeable
    ev.FixedDesignModel(a=model.a, f=model.f, sigma=0.1, x_star=want)
    with pytest.raises(ValueError, match="projected mean"):
        ev.FixedDesignModel(a=model.a, f=model.f, sigma=0.1, x_star=2 * want)
