"""Reverse-mode engine checks: the backward walk, the generic gather and
sigmoid nodes, and the kink and dispatch conventions that the fused
model and loss nodes keep, with adjoints against central differences."""

import numpy as np
import pytest

from fvcbfit.data_io import CurveKind, Dataset, GasExchangeRecord, ResponseCurve
from fvcbfit.engine import Var, fuse, gather, grad, release, sigmoid, value
from fvcbfit.loss import Workspace, _gamma_factor, _objective, _site_co2
from fvcbfit.model import arrhenius, electron_transport, limitation_rates, \
    peaked_arrhenius
from fvcbfit.params import FitConfig, ParameterState


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        step = h * max(1.0, abs(x[idx]))
        xp = x.copy(); xp[idx] += step
        xm = x.copy(); xm[idx] -= step
        g[idx] = (f(xp) - f(xm)) / (2.0 * step)
    return g


def total(x, w=None):
    """Weighted sum to a scalar, as one fused node; w weighs the leading
    axes of x (the six penalty terms of a (6, groups) block, say)."""
    xv = value(x)
    w = np.ones_like(xv) if w is None else np.asarray(w, dtype=np.float64)
    w = w.reshape(w.shape + (1,) * (xv.ndim - w.ndim))
    return fuse((xv * w).sum(), (x,), lambda g: (g * w,))


def check_against_fd(build, x0, rtol=1e-6, atol=1e-9):
    """build(x) must work for both a Var and a plain array; the gradient
    is that of the sum of the root's entries."""
    leaf = Var(x0)
    out = build(leaf)
    (ga,) = grad(out, [leaf])
    gn = fd_grad(lambda x: float(value(build(x)).sum()), x0)
    np.testing.assert_allclose(ga, gn, rtol=rtol, atol=atol)


def workspace(a_curves, light=()):
    """Workspace over curves with Ci = 100, 200, ... and the given A."""
    curves = []
    for cid, a in enumerate(a_curves):
        recs = tuple(GasExchangeRecord(curve_id=cid, fitting_group=0,
                                       ci=100.0 * (k + 1), a=float(ak),
                                       qin=2000.0, tleaf_c=25.0)
                     for k, ak in enumerate(a))
        kind = CurveKind.LightResponse if cid in light \
            else CurveKind.CO2Response
        curves.append(ResponseCurve.from_records(
            curve_id=cid, fitting_group=0, records=recs, kind=kind))
    ds = Dataset(curves=tuple(curves), groups={0: list(range(len(curves)))})
    ids = tuple(range(len(curves)))
    return Workspace(ds, ParameterState.defaults(curve_ids=ids))


RNG = np.random.default_rng(7)


def test_arithmetic_adjoints_match_finite_differences():
    # the two arithmetic nodes of the objective: C = Ci - A/g_m and the
    # photorespiratory factor 1 - Gamma*/C, through every operand
    ci = RNG.uniform(100.0, 1500.0, size=6)
    a = RNG.uniform(1.0, 30.0, size=6)
    gm0 = RNG.uniform(2.0, 10.0, size=6)
    gamma0 = RNG.uniform(35.0, 50.0, size=6)
    w = RNG.uniform(0.5, 2.0, size=6)
    check_against_fd(lambda gm: total(_site_co2(ci, a, gm), w), gm0)
    check_against_fd(lambda g: total(_gamma_factor(g, ci), w), gamma0)
    check_against_fd(lambda c: total(_gamma_factor(gamma0, c), w), ci)


def test_unary_adjoints_match_finite_differences():
    x0 = RNG.uniform(-3.0, 3.0, size=8)
    check_against_fd(lambda x: total(sigmoid(x)), x0)
    # the exp of Arrhenius, the log of the peaked form, the sqrt of the
    # non-rectangular hyperbola, each as the only live operand
    tl = RNG.uniform(285.0, 315.0, size=8)
    check_against_fd(lambda h: total(arrhenius(100.0, h, tl)),
                     RNG.uniform(30.0, 80.0, size=8))
    check_against_fd(lambda h: total(peaked_arrhenius(100.0, h, 200.0,
                                                      310.0, tl)),
                     RNG.uniform(30.0, 80.0, size=8))
    q = RNG.uniform(50.0, 2000.0, size=8)
    check_against_fd(lambda th: total(electron_transport(q, 200.0, 0.4, th,
                                                         light_type=2)),
                     RNG.uniform(0.3, 0.95, size=8), rtol=1e-5)


def test_minimum_maximum_adjoints():
    # min(Wc, Wj, Wp) in the objective and max(A_j, A_c) in the ordering
    # penalty, with each branch taken somewhere
    ws = workspace([RNG.uniform(5.0, 30.0, size=8),
                    RNG.uniform(5.0, 30.0, size=8)])
    rates0 = RNG.uniform(10.0, 40.0, size=(3, 16))
    rates0[:, 3] = (20.0, 30.0, 40.0)
    rates0[:, 4] = (30.0, 20.0, 40.0)
    rates0[:, 5] = (30.0, 40.0, 20.0)
    fac = RNG.uniform(0.8, 1.0, size=16)
    rd = np.full(16, 1.5)
    valid = np.ones(16, dtype=bool)
    for cfg in (FitConfig(penalties=False), FitConfig(tpu_penalty=False)):
        check_against_fd(lambda r: _objective(ws, cfg, r, valid, fac, rd)[0],
                         rates0)


def test_penalty_block_adjoint_matches_finite_differences():
    # the objective node over seven curves of four points, with every
    # penalty term active:
    # A_c and A_j cross within each curve, A_p dips below both at the
    # closest point and rises above A_j at the last one, the Vcmax/Jmax
    # correlation is below 0.7, and one fitted scalar is negative
    ws = workspace([[10.0] * 4] * 7)
    base = RNG.uniform(15.0, 30.0, size=28)
    rates0 = np.stack([base + RNG.uniform(-3.0, 3.0, size=28),
                       base + RNG.uniform(-3.0, 3.0, size=28),
                       base - 8.0])
    rates0[2, 3::4] += 20.0
    fac0 = RNG.uniform(0.8, 1.0, size=28)
    rd0 = RNG.uniform(0.5, 2.0, size=28)
    v0 = RNG.uniform(80.0, 120.0, size=7)
    j0 = 320.0 - v0 + RNG.uniform(-5.0, 5.0, size=7)
    k0 = np.array([-0.4, 0.3, 1.2])
    valid = np.ones(28, dtype=bool)
    valid[0] = False
    cfg = FitConfig(r_penalty=True)
    args = [rates0, fac0, rd0, v0, j0, k0]

    def build(rates, fac, rd, v, j, k):
        return _objective(ws, cfg, rates, valid, fac, rd, v, j, [k])[0]

    terms = _objective(ws, cfg, rates0, valid, fac0, rd0, v0, j0, [k0])[1]
    assert np.all(np.array(terms) > 0.0)
    leaves = [Var(x) for x in args]
    for k, ga in enumerate(grad(build(*leaves), leaves)):
        def f(x, k=k):
            call = list(args)
            call[k] = x
            return float(value(build(*call)).sum())
        np.testing.assert_allclose(ga, fd_grad(f, args[k]), rtol=1e-6,
                                   atol=1e-8, err_msg=f"argument {k}")


def test_minimum_tie_routes_gradient_to_first_argument():
    ws = workspace([[10.0, 10.0, 10.0]])
    # Wc == Wj at point 0, Wc == Wj == Wp at point 1, (Wc, Wj) == Wp at 2
    rates = Var(np.array([[20.0, 20.0, 30.0],
                          [20.0, 20.0, 30.0],
                          [40.0, 20.0, 30.0]]))
    rd = Var(np.zeros(3))
    (g,) = grad(_objective(ws, FitConfig(penalties=False), rates,
                           np.ones(3, dtype=bool), np.ones(3), rd)[0],
                [rates])
    assert np.all(g[0] != 0.0)
    np.testing.assert_array_equal(g[1:], 0.0)


def test_maximum_tie_routes_gradient_to_first_argument():
    # A_j == A_c at point 1, the closest point, where A_p sits below both;
    # the measurements equal the prediction, so only the ordering term,
    # the one penalty active, has a gradient
    ws = workspace([[10.0, 5.0, 25.0]])
    rates = Var(np.array([[10.0, 20.0, 40.0],
                          [30.0, 20.0, 25.0],
                          [50.0, 5.0, 50.0]]))
    root, terms, _ = _objective(ws, FitConfig(tpu_penalty=False), rates,
                                np.ones(3, dtype=bool), np.ones(3),
                                np.zeros(3))
    assert [t[0] for t in terms] == [0.0, 15.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    (g,) = grad(root, [rates])
    np.testing.assert_array_equal(g, [[0.0, 0.0, 0.0],
                                      [0.0, 1.0, 0.0],
                                      [0.0, -1.0, 0.0]])


def test_relu_subgradient_at_zero_is_zero():
    # the non-negativity penalty max(0, -k) at k = 0
    ws = workspace([[10.0, 10.0, 10.0]])
    k = Var(np.array([-1.0, 0.0, 2.0]))
    root = _objective(ws, FitConfig(), np.full((3, 3), 10.0),
                      np.ones(3, dtype=bool), np.ones(3), np.zeros(3),
                      None, None, [k])[0]
    (g,) = grad(root, [k])
    np.testing.assert_array_equal(g, [-1.0, 0.0, 0.0])


def test_sqrt_subgradient_at_zero_is_zero():
    # theta = 1 and alpha*Q == Jmax make the discriminant exactly zero;
    # the root's subgradient there is taken as 0, leaving J = s/(2 theta)
    jmax, theta = Var(np.array([200.0])), Var(np.array([1.0]))
    j = electron_transport(np.array([400.0]), jmax, 0.5, theta, light_type=2)
    assert value(j)[0] == 200.0
    g_j, g_th = grad(total(j), [jmax, theta])
    np.testing.assert_array_equal(g_j, [0.5])
    np.testing.assert_array_equal(g_th, [-200.0])


def test_sigmoid_is_stable_for_huge_arguments():
    v = np.array([-2000.0, -12.0, 0.0, 12.0, 2000.0])
    with np.errstate(over="raise"):
        out = sigmoid(v)
    assert out[0] == 0.0 and out[-1] == 1.0
    assert out[2] == 0.5
    np.testing.assert_allclose(out[1], 6.144174602214718e-06, rtol=1e-12)


def test_where_routes_gradient_to_taken_branch():
    # Wp is a sentinel below its pole: no gradient reaches TPU there
    tpu = Var(np.full(3, 10.0))
    rates, valid = limitation_rates(np.array([10.0, 42.75, 500.0]), 100.0,
                                    200.0, tpu, 42.75, 404.9, 278.4, 210.0,
                                    big=1e9)
    np.testing.assert_array_equal(valid, [False, False, True])
    (g,) = grad(total(rates, [[0.0] * 3, [0.0] * 3, [1.0] * 3]), [tpu])
    np.testing.assert_array_equal(g[:2], 0.0)
    np.testing.assert_allclose(g[2], 3.0 * 500.0 / (500.0 - 42.75),
                               rtol=1e-15)


def test_frozen_wp_receives_no_gradient_on_light_curves():
    # Wp is the minimum everywhere; curve 1 is a light-response curve
    ws = workspace([[10.0, 10.0], [10.0, 10.0]], light=(1,))
    rates = Var(np.array([[30.0] * 4, [30.0] * 4, [20.0] * 4]))
    total_, _, pred = _objective(ws, FitConfig(penalties=False), rates,
                                 np.ones(4, dtype=bool), np.ones(4),
                                 np.zeros(4))
    np.testing.assert_array_equal(pred, 20.0)
    (g,) = grad(total_, [rates])
    np.testing.assert_array_equal(g[2], [5.0, 5.0, 0.0, 0.0])
    np.testing.assert_array_equal(g[:2], 0.0)


def test_gather_accumulates_duplicate_indices():
    x = Var(np.array([1.0, 2.0, 3.0]))
    idx = np.array([0, 2, 2, 0, 0])
    out = total(gather(x, idx), [1.0, 10.0, 100.0, 1000.0, 10000.0])
    (g,) = grad(out, [x])
    np.testing.assert_array_equal(g, [11001.0, 0.0, 110.0])


def test_segment_sum_forward_and_adjoint():
    # the intersection penalties sum max(0, A_c - A_j) over each curve
    # and hand every point of a curve that curve's cotangent; the
    # measurements equal the prediction and every curve's negative parts
    # reach beta, so only p_c_gt_j has a gradient
    ws = workspace([[2.0, 1.0], [1.0, 2.0, 1.0], [0.0, 1.0]])
    rates = Var(np.array([[3.0, 1.0, 9.0, 2.0, 4.0, 6.0, 1.0],
                          [2.0, 10.0, 1.0, 11.0, 1.0, 0.0, 10.0],
                          [99.0] * 7]))
    cfg = FitConfig(beta=8.0, tpu_penalty=False)
    root, terms, _ = _objective(ws, cfg, rates, np.ones(7, dtype=bool),
                                np.ones(7), np.zeros(7))
    # positive parts per curve: 1, 8 + 3 = 11, 6
    assert [t[0] for t in terms] == [0.0, 0.0, (8.0 - 1.0) + 0.0 + (8.0 - 6.0),
                                     0.0, 0.0, 0.0, 0.0]
    (g,) = grad(root, [rates])
    np.testing.assert_array_equal(g[0], [-1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0])
    np.testing.assert_array_equal(g[1], [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    np.testing.assert_array_equal(g[2], 0.0)


def test_cotangent_of_another_shape_raises():
    # a scalar leaf spread over an array gets an array cotangent from the
    # fused node: backward names both shapes instead of summing it down
    s = Var(np.array(2.0))
    tl = np.array([298.0, 298.0, 298.0])
    with pytest.raises(ValueError,
                       match=r"shape \(3,\) for a parent of shape \(\)"):
        grad(total(arrhenius(s, 60.0, tl), [1.0, 2.0, 3.0]), [s])
    assert s.g is None


def test_ndarray_left_operand_defers_to_var():
    # numpy must not absorb the Var into an object array
    x = Var(np.array([1.0, 2.0]))
    c = np.array([5.0, 7.0])
    for op in (np.add, np.subtract, np.multiply, np.divide):
        with pytest.raises(TypeError):
            op(c, x)


def test_grad_returns_zeros_for_unreachable_leaf():
    x, y = Var(np.array([1.0])), Var(np.array([2.0]))
    gx, gy = grad(total(x, [2.0]), [x, y])
    np.testing.assert_array_equal(gx, [2.0])
    np.testing.assert_array_equal(gy, [0.0])


def test_grad_sizes_an_unreached_released_leaf_from_its_shape():
    x, y = Var(np.array([1.0])), Var(np.ones((3, 2)))
    y.v = None  # released, as `loss._evaluate` releases its point leaves
    gx, gy = grad(total(x, [2.0]), [x, y])
    np.testing.assert_array_equal(gx, [2.0])
    assert gy.shape == (3, 2) and gy.dtype == np.float64 and not gy.any()


def test_numpy_mode_dispatch_returns_plain_arrays():
    x = np.array([0.5, 1.5])
    assert isinstance(sigmoid(x), np.ndarray)
    assert isinstance(gather(x, np.array([1, 0])), np.ndarray)
    assert isinstance(arrhenius(x, 60.0, 300.0), np.ndarray)
    assert isinstance(peaked_arrhenius(x, 60.0, 200.0, 310.0, 300.0),
                      np.ndarray)
    assert isinstance(electron_transport(x, 200.0, 0.5, 0.7, 2), np.ndarray)
    rates, valid = limitation_rates(x * 400.0, 100.0, 200.0, 10.0, 42.75,
                                    404.9, 278.4, 210.0)
    assert isinstance(rates, np.ndarray) and rates.shape == (3, 2)
    assert fuse(x, (x, 3.0), None) is x


def test_shared_subexpression_accumulates_once_per_path():
    # y = x*x + 3x uses x twice; gradient 2x + 3
    x = Var(np.array([2.0]))
    xv = x.v
    y = fuse(xv * xv + 3.0 * xv, (x, x, x),
             lambda g: (g * xv, g * xv, 3.0 * g))
    (g,) = grad(total(y), [x])
    np.testing.assert_allclose(g, [7.0])


def test_deep_chain_does_not_recurse():
    # the walk must survive graphs deeper than the recursion limit
    x = Var(np.array([1.0]))
    acc = x
    for _ in range(5000):
        acc = fuse(value(acc) + x.v, (acc, x), lambda g: (g, g))
    (g,) = grad(total(acc), [x])
    np.testing.assert_array_equal(g, [5001.0])


def test_backward_visits_newest_first_and_clears_cotangents():
    # z reads y twice and x once; y must hold both of z's cotangents
    # before its own VJP passes them on to x
    x = Var(np.array([1.0, 2.0]))
    y = gather(x, np.array([0, 1, 1]))
    z = fuse(y.v * y.v + np.array([1.0, 0.0, 0.0]) * x.v[0], (y, y, x),
             lambda g: (g * y.v, g * y.v,
                        np.array([(g * np.array([1.0, 0.0, 0.0])).sum(),
                                  0.0])))
    (g,) = grad(total(z), [x])
    np.testing.assert_array_equal(g, [3.0, 8.0])
    assert x.g is None and y.g is None and z.g is None
    # the same graph differentiates again to the same result
    (g2,) = grad(total(z), [x])
    np.testing.assert_array_equal(g2, g)


def objective_graph(theta):
    """The shape of the real objective on one 16-point curve: rates, min,
    MSE and penalties through the fused nodes, on both sides of the Wc/Wj
    crossover, from Vcmax, Jmax, TPU and Rd in theta (a Var or an
    array)."""
    ws = workspace([30.0 * np.linspace(100.0, 1600.0, 16)
                    / (np.linspace(100.0, 1600.0, 16) + 300.0)])
    c = ws.ci
    gamma = np.full(16, 42.75)
    vmax, jmax, tpu, rd = (gather(theta, np.full(16, k)) for k in range(4))
    rates, valid = limitation_rates(c, vmax, jmax, tpu, gamma, 404.9,
                                    278.4, 210.0, 0.1, big=1e9)
    fac = _gamma_factor(gamma, c)
    return _objective(ws, FitConfig(), rates, valid, fac, rd, None, None,
                      [rd])[0]


THETA0 = np.array([100.0, 200.0, 11.0, 1.5])


def test_composite_expression_matches_finite_differences():
    assert 0.0 < value(objective_graph(THETA0)) < 1e3
    check_against_fd(objective_graph, THETA0, rtol=1e-5, atol=1e-8)


def interior_nodes(root):
    """The nodes with a VJP that a root reads, the root excluded."""
    found, todo = [], list(root.parents)
    while todo:
        node = todo.pop()
        if node.vjp is not None and all(node is not m for m in found):
            found.append(node)
            todo.extend(node.parents)
    return found


def test_release_keeps_root_leaves_shapes_and_gradient():
    leaf, ref_leaf = Var(THETA0), Var(THETA0)
    root, ref = objective_graph(leaf), objective_graph(ref_leaf)
    nodes = interior_nodes(root)
    shapes = [n.v.shape for n in nodes]
    root_v = root.v
    assert len(nodes) == 5  # four gathers and the rates
    release(root)
    assert root.v is root_v
    np.testing.assert_array_equal(leaf.v, THETA0)
    assert all(n.v is None for n in nodes)
    assert [n.shape for n in nodes] == shapes
    (g,) = grad(root, [leaf])
    (g_ref,) = grad(ref, [ref_leaf])
    assert g.tobytes() == g_ref.tobytes()


def test_released_parent_still_checks_cotangent_shape():
    x = Var(np.array([1.0, 2.0]))
    y = gather(x, np.array([0, 1, 1]))
    z = fuse(value(y).sum(), (y,), lambda g: (np.ones(2),))
    release(z)
    assert y.v is None and x.v is not None
    with pytest.raises(ValueError,
                       match=r"shape \(2,\) for a parent of shape \(3,\)"):
        grad(z, [x])
