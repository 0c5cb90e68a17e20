import math

import numpy as np
import pytest

from sketchpcr import evaluation as ev
from sketchpcr.linalg import thin_svd
from oracles import jacobi_svd, rotated_basis


def _model(seed=0, n=40, d=12, k=3):
    a = ev.planted_matrix(n, d, k, 0.4, seed=seed)
    f = a @ np.random.default_rng(seed + 1).standard_normal(d)
    return ev.FixedDesignModel(a=a, f=f, sigma=0.1)


@pytest.mark.parametrize("k", [1, 3, 11, 12])
def test_svd_is_thin_svd_split_at_k(k):
    # The cached record, cut at k, is a fresh thin SVD of A cut at k.
    model = _model()
    got, want = model.svd.lead(k), thin_svd(model.a).lead(k)
    for name in ("u", "sigma", "v"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_a_is_factored_once(monkeypatch):
    real, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda m, *a, **kw: calls.append(np.shape(m)) or real(m, *a, **kw))
    model = _model()
    for k in (2, 3):
        ev.classic_pcr_risk_bound(model, k)
        ev.pcr_corollary_bound(model, k)
    assert calls.count(model.a.shape) == 1


def test_x_star_is_the_pseudo_inverse_solution_and_a_is_read_only():
    model = _model()
    want = np.linalg.lstsq(model.a, model.f, rcond=None)[0]
    assert np.linalg.norm(model.x_star - want) <= 1e-12 * np.linalg.norm(want)
    assert not model.a.flags.writeable


def test_bias_variance_of_pcr_is_the_closed_form():
    k = 3
    model = _model(k=k)
    u, _, _ = jacobi_svd(model.a)
    bias, var = ev.bias_variance(model, model.svd.v[:, :k])
    assert bias == pytest.approx(np.sum((u[:, k:].T @ model.f) ** 2) / model.n, rel=1e-10)
    assert var == pytest.approx(model.sigma**2 * k / model.n, rel=1e-12)


def test_monte_carlo_risk_is_bias_plus_variance():
    model = _model()
    v_k = model.svd.v[:, :3]
    est = ev.excess_risk_mc(model, lambda a, b: v_k @ np.linalg.pinv(a @ v_k) @ b,
                            trials=400, seed=7)
    assert abs(est.mean - sum(ev.bias_variance(model, v_k))) <= 4 * est.std_error


@pytest.mark.parametrize("bound", [
    lambda model, k, r, nu: ev.pcr_corollary_bound(model, k),
    ev.stat_structural_bound,
    ev.struct_stat_pcp_bound,
], ids=["pcr_corollary", "stat_structural", "struct_stat_pcp"])
def test_risk_bounds_hold_on_a_planted_model(bound):
    # R at principal angle theta to V_{A,k}: d2(R, V_{A,k}) = sin(theta), which
    # is nu (1 + nu^2)^(-1/2) for nu = tan(theta), and by Lemma 14
    # d2(U_{AR,k}, U_{A,k}) <= (sigma_{k+1} / sigma_k) tan(theta) <= nu.
    k, theta = 3, 0.3
    model = _model(k=k)
    v = model.svd.v
    rep = bound(model, k, rotated_basis(v[:, :k], v[:, k:], theta), math.tan(theta))
    assert rep.prerequisite_ok
    assert rep.risk <= rep.bound
