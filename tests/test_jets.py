"""Jet arithmetic against the finite-difference oracle and exact rules."""

import math

import numpy as np
import pytest

from monge4 import eval_jet3, jets, parse_expression
from monge4.errors import EvaluationError
from monge4.jets import Dual2, jet_constant

from conftest import AXIS_XS, AXIS_YS, grid_corpus
from oracles import eval_value, fd_jet, jet_variable_reference

COEFF_NAMES = ("f", "fx", "fy", "fxx", "fxy", "fyy",
               "fxxx", "fxxy", "fxyy", "fyyy")


def jet_of(text, x, y):
    return eval_jet3(parse_expression(text), x, y)


def test_square_at_point():
    j = jet_of("x^2", 1.0, 2.0)
    assert j.f == 1.0 and j.fx == 2.0 and j.fxx == 2.0
    for name in ("fy", "fxy", "fyy", "fxxx", "fxxy", "fxyy", "fyyy"):
        assert getattr(j, name) == 0.0


def test_sine_taylor():
    j = jet_of("sin(x)", 0.0, 0.0)
    assert j.f == 0.0 and j.fx == 1.0 and j.fxx == 0.0
    assert j.fxxx == pytest.approx(-1.0, abs=1e-15)
    for name in ("fy", "fxy", "fyy", "fxxy", "fxyy", "fyyy"):
        assert getattr(j, name) == 0.0


def test_monomial_with_fd_oracle():
    j = jet_of("x^2*y", 2.0, 3.0)
    expected = {"f": 12.0, "fx": 12.0, "fy": 4.0, "fxx": 6.0, "fxy": 4.0,
                "fxxy": 2.0}
    for name in COEFF_NAMES:
        assert getattr(j, name) == pytest.approx(expected.get(name, 0.0),
                                                 abs=1e-12)
    fd = fd_jet(lambda x, y: x * x * y, 2.0, 3.0)
    for name, fd_val in zip(COEFF_NAMES, fd):
        assert getattr(j, name) == pytest.approx(fd_val, abs=1e-6)


def _random_poly(rng, degree=5):
    terms = []
    fn_terms = []
    for _ in range(rng.integers(3, 8)):
        i = int(rng.integers(0, degree + 1))
        j = int(rng.integers(0, degree + 1 - i))
        coef = round(float(rng.uniform(-1.0, 1.0)), 4)
        text = f"{coef}"
        if i:
            text += f"*x^{i}"
        if j:
            text += f"*y^{j}"
        terms.append(text)
        fn_terms.append((coef, i, j))
    expr = " + ".join(terms)

    def fn(x, y):
        return sum(c * x ** i * y ** j for c, i, j in fn_terms)

    return expr, fn


def test_random_polynomials_match_fd_oracle():
    """Every coefficient of the jet of a random degree<=5 polynomial matches
    the Richardson central-difference oracle within 1e-5 relative error."""
    rng = np.random.default_rng(101)
    for _ in range(60):
        text, fn = _random_poly(rng)
        x0, y0 = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
        jet = eval_jet3(parse_expression(text), x0, y0).coeffs()
        fd = fd_jet(fn, x0, y0)
        scale = max(max(abs(v) for v in jet), 1.0)
        for mine, ref in zip(jet, fd):
            assert abs(mine - ref) <= 1e-5 * max(abs(ref), scale)


def test_transcendental_against_fd_oracle():
    text = "sin(x*y) + exp(0.3*x)/(2 + cos(y)) + log(2 + x) + sqrt(1 + y^2)"

    def fn(x, y):
        return (math.sin(x * y) + math.exp(0.3 * x) / (2 + math.cos(y))
                + math.log(2 + x) + math.sqrt(1 + y * y))

    jet = eval_jet3(parse_expression(text), 0.4, -0.7).coeffs()
    fd = fd_jet(fn, 0.4, -0.7, h_third=1.0 / 32.0)
    for mine, ref in zip(jet, fd):
        assert abs(mine - ref) <= 1e-5 * max(abs(ref), 1.0)


def test_tan_jet():
    jet = jet_of("tan(x + 0.2*y)", 0.3, 0.1)
    fd = fd_jet(lambda x, y: math.tan(x + 0.2 * y), 0.3, 0.1,
                h_third=1.0 / 64.0)
    for mine, ref in zip(jet.coeffs(), fd):
        assert mine == pytest.approx(ref, rel=1e-6, abs=1e-6)


def test_product_rule_exact():
    """Jet of a product equals the jet-product of the factors to rounding."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        t1, _ = _random_poly(rng, degree=3)
        t2, _ = _random_poly(rng, degree=3)
        x0, y0 = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
        j1 = eval_jet3(parse_expression(t1), x0, y0)
        j2 = eval_jet3(parse_expression(t2), x0, y0)
        combined = eval_jet3(parse_expression(f"({t1}) * ({t2})"), x0, y0)
        prod = j1 * j2
        for mine, ref in zip(combined.coeffs(), prod.coeffs()):
            assert abs(mine - ref) <= 1e-12 * max(abs(mine), abs(ref), 1.0)


def test_sum_and_chain_rules_exact():
    rng = np.random.default_rng(8)
    for _ in range(25):
        t1, _ = _random_poly(rng, degree=3)
        x0, y0 = (float(v) for v in rng.uniform(-0.8, 0.8, 2))
        j1 = eval_jet3(parse_expression(t1), x0, y0)
        total = eval_jet3(parse_expression(f"({t1}) + ({t1})"), x0, y0)
        for mine, ref in zip(total.coeffs(), (j1 + j1).coeffs()):
            assert mine == pytest.approx(ref, rel=1e-13, abs=1e-13)
        chained = eval_jet3(parse_expression(f"sin({t1})"), x0, y0)
        for mine, ref in zip(chained.coeffs(), j1.sin().coeffs()):
            assert abs(mine - ref) <= 1e-12 * max(abs(mine), abs(ref), 1.0)


def test_integer_powers_stay_exact():
    j = jet_of("x^4", 3.0, 0.0)
    assert j.f == 81.0 and j.fx == 108.0 and j.fxx == 108.0 and j.fxxx == 72.0


def test_non_integer_power():
    j = jet_of("(1 + x)^0.5", 0.44, 0.0)
    ref = jet_of("sqrt(1 + x)", 0.44, 0.0)
    for mine, want in zip(j.coeffs(), ref.coeffs()):
        assert mine == pytest.approx(want, rel=1e-12)


def test_domain_errors():
    with pytest.raises(EvaluationError):
        jet_of("log(x)", -1.0, 0.0)
    with pytest.raises(EvaluationError):
        jet_of("sqrt(x)", -0.5, 0.0)
    with pytest.raises(EvaluationError):
        jet_of("1/x", 0.0, 0.0)
    with pytest.raises(EvaluationError):
        jet_of("x^0.5", -1.0, 0.0)


def test_nonfinite_detected():
    with pytest.raises(EvaluationError):
        jet_of("exp(exp(exp(x)))", 10.0, 0.0)


def test_array_error_reports_offending_point():
    xs = np.array([0.5, 1.0, -2.0, 3.0])
    ys = np.zeros(4)
    with pytest.raises(EvaluationError) as err:
        eval_jet3(parse_expression("log(x)"), xs, ys)
    assert err.value.point == (-2.0, 0.0)


def test_array_evaluation_matches_scalar():
    text = "sin(x*y) + 0.5*x^3 - y^2 + exp(0.1*x)"
    tree = parse_expression(text)
    xs = np.linspace(-1, 1, 7)
    ys = np.linspace(-0.5, 0.5, 7)
    vec = eval_jet3(tree, xs, ys)
    for k, (x0, y0) in enumerate(zip(xs, ys)):
        single = eval_jet3(tree, float(x0), float(y0))
        for name in COEFF_NAMES:
            assert getattr(vec, name)[k] == pytest.approx(
                getattr(single, name), rel=1e-14, abs=1e-14)


def test_constant_expression_broadcasts_over_arrays():
    jet = eval_jet3(parse_expression("pi"), np.zeros(5), np.zeros(5))
    assert jet.f.shape == (5,)
    assert np.all(jet.f == math.pi)


def test_eval_value_matches_jet_value():
    rng = np.random.default_rng(5)
    for _ in range(20):
        text, fn = _random_poly(rng)
        x0, y0 = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
        tree = parse_expression(text)
        assert eval_value(tree, x0, y0) == pytest.approx(fn(x0, y0), rel=1e-13)
        assert eval_value(tree, x0, y0) == pytest.approx(
            eval_jet3(tree, x0, y0).f, rel=1e-13)


def test_dual2_arithmetic():
    x = Dual2(2.0, 1.0, 0.0)
    y = Dual2(3.0, 0.0, 1.0)
    q = (x * x * y + y) / x
    # f = (x^2 y + y)/x = xy + y/x; fx = y - y/x^2; fy = x + 1/x
    assert q.val == pytest.approx(2 * 3 + 3 / 2)
    assert q.dx == pytest.approx(3 - 3 / 4)
    assert q.dy == pytest.approx(2 + 1 / 2)
    s = (x * x + y * y).sqrt()
    r = math.hypot(2.0, 3.0)
    assert s.val == pytest.approx(r)
    assert s.dx == pytest.approx(2.0 / r)
    assert s.dy == pytest.approx(3.0 / r)


def test_jet_immutability():
    j = jet_constant(1.0)
    with pytest.raises(AttributeError):
        j.f = 2.0


# -- grid evaluation on the axes -------------------------------------------------

def _assert_same_jet(u, v):
    for name in COEFF_NAMES:
        a, b = getattr(u, name), getattr(v, name)
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name


def test_axis_evaluation_matches_meshgrid():
    """Axis-shaped inputs give the full-grid jets, coefficient for
    coefficient under ==."""
    gx, gy = np.meshgrid(AXIS_XS, AXIS_YS, indexing="ij")
    for surface in grid_corpus():
        for tree in (surface.phi, surface.psi):
            _assert_same_jet(eval_jet3(tree, AXIS_XS[:, None], AXIS_YS[None, :]),
                             eval_jet3(tree, gx, gy))


def test_scalar_seed_coordinate_jets_match_array_seeds(monkeypatch):
    """Coordinate jets with float seeds on the axes evaluate every surface
    to the same coefficients as full-array seeds on the full grid."""
    gx, gy = np.meshgrid(AXIS_XS, AXIS_YS, indexing="ij")
    trees = [t for s in grid_corpus() for t in (s.phi, s.psi)]
    axis_jets = [eval_jet3(t, AXIS_XS[:, None], AXIS_YS[None, :]) for t in trees]
    seed = jets.jet_variable("x", AXIS_XS[:, None], AXIS_YS[None, :])
    assert seed.f.shape == (len(AXIS_XS), 1)
    assert (seed.fx, seed.fy) == (1.0, 0.0) and type(seed.fx) is float
    monkeypatch.setattr(jets, "jet_variable", jet_variable_reference)
    for tree, jet in zip(trees, axis_jets):
        _assert_same_jet(jet, eval_jet3(tree, gx, gy))


# first offending points on descending axes, as reported by full-grid
# evaluation with array seeds
@pytest.mark.parametrize("text, point", [
    ("log(x)", (-0.06666666666666665, 1.0)),
    ("sqrt(y)", (1.0, -0.06666666666666665)),
    ("log(x) + sqrt(y)", (-0.06666666666666665, 1.0)),
    ("sqrt(y)*log(x + 2)", (1.0, -0.06666666666666665)),
    ("exp(-1000*x)", (-0.7333333333333334, 1.0)),
    ("exp(-1000*y)", (1.0, -0.7333333333333334)),
])
def test_axis_error_reports_first_grid_point(text, point):
    """A failure in a one-axis subexpression names the first offending point
    of the whole grid in row-major order, as full-grid inputs do."""
    xs = np.linspace(1.0, -1.0, 16)
    ys = np.linspace(1.0, -1.0, 16)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    for x0, y0 in ((xs[:, None], ys[None, :]), (gx, gy)):
        with pytest.raises(EvaluationError) as err:
            eval_jet3(parse_expression(text), x0, y0)
        assert err.value.point == point
