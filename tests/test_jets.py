"""Jet arithmetic against the finite-difference oracle and exact rules."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monge4 import eval_jet, jets, parse_expression
from monge4.errors import EvaluationError
from monge4.jets import Jet

from conftest import AXIS_XS, AXIS_YS, expression_texts, grid_corpus
from oracles import (ReferenceJet, eval_jet_reference, eval_value, fd_jet,
                     jet_variable_reference, raw_jet_reference)

COEFF_NAMES = ("f", "fx", "fy", "fxx", "fxy", "fyy",
               "fxxx", "fxxy", "fxyy", "fyyy")


def jet_of(text, x, y):
    return eval_jet(parse_expression(text), x, y, 3)


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
        jet = eval_jet(parse_expression(text), x0, y0, 3).coeffs
        fd = fd_jet(fn, x0, y0)
        scale = max(max(abs(v) for v in jet), 1.0)
        for mine, ref in zip(jet, fd):
            assert abs(mine - ref) <= 1e-5 * max(abs(ref), scale)


def test_transcendental_against_fd_oracle():
    text = "sin(x*y) + exp(0.3*x)/(2 + cos(y)) + log(2 + x) + sqrt(1 + y^2)"

    def fn(x, y):
        return (math.sin(x * y) + math.exp(0.3 * x) / (2 + math.cos(y))
                + math.log(2 + x) + math.sqrt(1 + y * y))

    jet = eval_jet(parse_expression(text), 0.4, -0.7, 3).coeffs
    fd = fd_jet(fn, 0.4, -0.7, h_third=1.0 / 32.0)
    for mine, ref in zip(jet, fd):
        assert abs(mine - ref) <= 1e-5 * max(abs(ref), 1.0)


def test_tan_jet():
    jet = jet_of("tan(x + 0.2*y)", 0.3, 0.1)
    fd = fd_jet(lambda x, y: math.tan(x + 0.2 * y), 0.3, 0.1,
                h_third=1.0 / 64.0)
    for mine, ref in zip(jet.coeffs, fd):
        assert mine == pytest.approx(ref, rel=1e-6, abs=1e-6)


def test_product_rule_exact():
    """Jet of a product equals the jet-product of the factors to rounding."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        t1, _ = _random_poly(rng, degree=3)
        t2, _ = _random_poly(rng, degree=3)
        x0, y0 = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
        j1 = eval_jet(parse_expression(t1), x0, y0, 3)
        j2 = eval_jet(parse_expression(t2), x0, y0, 3)
        combined = eval_jet(parse_expression(f"({t1}) * ({t2})"), x0, y0, 3)
        prod = j1 * j2
        for mine, ref in zip(combined.coeffs, prod.coeffs):
            assert abs(mine - ref) <= 1e-12 * max(abs(mine), abs(ref), 1.0)


def test_sum_and_chain_rules_exact():
    rng = np.random.default_rng(8)
    for _ in range(25):
        t1, _ = _random_poly(rng, degree=3)
        x0, y0 = (float(v) for v in rng.uniform(-0.8, 0.8, 2))
        j1 = eval_jet(parse_expression(t1), x0, y0, 3)
        total = eval_jet(parse_expression(f"({t1}) + ({t1})"), x0, y0, 3)
        for mine, ref in zip(total.coeffs, (j1 + j1).coeffs):
            assert mine == pytest.approx(ref, rel=1e-13, abs=1e-13)
        chained = eval_jet(parse_expression(f"sin({t1})"), x0, y0, 3)
        for mine, ref in zip(chained.coeffs, ReferenceJet(j1.coeffs).sin().coeffs):
            assert abs(mine - ref) <= 1e-12 * max(abs(mine), abs(ref), 1.0)


def test_integer_powers_stay_exact():
    j = jet_of("x^4", 3.0, 0.0)
    assert j.f == 81.0 and j.fx == 108.0 and j.fxx == 108.0 and j.fxxx == 72.0


def test_non_integer_power():
    j = jet_of("(1 + x)^0.5", 0.44, 0.0)
    ref = jet_of("sqrt(1 + x)", 0.44, 0.0)
    for mine, want in zip(j.coeffs, ref.coeffs):
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
        eval_jet(parse_expression("log(x)"), xs, ys, 3)
    assert err.value.point == (-2.0, 0.0)


def test_array_evaluation_matches_scalar():
    text = "sin(x*y) + 0.5*x^3 - y^2 + exp(0.1*x)"
    tree = parse_expression(text)
    xs = np.linspace(-1, 1, 7)
    ys = np.linspace(-0.5, 0.5, 7)
    vec = eval_jet(tree, xs, ys, 3)
    for k, (x0, y0) in enumerate(zip(xs, ys)):
        single = eval_jet(tree, float(x0), float(y0), 3)
        for name in COEFF_NAMES:
            assert getattr(vec, name)[k] == pytest.approx(
                getattr(single, name), rel=1e-14, abs=1e-14)


def test_constant_expression_broadcasts_over_arrays():
    jet = eval_jet(parse_expression("pi"), np.zeros(5), np.zeros(5), 3)
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
            eval_jet(tree, x0, y0, 3).f, rel=1e-13)


def test_order1_jet_arithmetic():
    x = eval_jet(parse_expression("x"), 2.0, 3.0, 1)
    y = eval_jet(parse_expression("y"), 2.0, 3.0, 1)
    q = (x * x * y + y) / x
    # f = (x^2 y + y)/x = xy + y/x; fx = y - y/x^2; fy = x + 1/x
    assert q.f == pytest.approx(2 * 3 + 3 / 2)
    assert q.fx == pytest.approx(3 - 3 / 4)
    assert q.fy == pytest.approx(2 + 1 / 2)
    s = jets.sqrt(x * x + y * y)
    r = math.hypot(2.0, 3.0)
    assert s.f == pytest.approx(r)
    assert s.fx == pytest.approx(2.0 / r)
    assert s.fy == pytest.approx(3.0 / r)


def test_lower_orders_are_truncations():
    """The jet of order n is the first coefficients of the jet of order
    n + 1, under ==, at points and on the axes."""
    trees = [t for s in grid_corpus() for t in (s.phi, s.psi)]
    for x0, y0 in ((0.3, -0.2), (AXIS_XS[:, None], AXIS_YS[None, :])):
        for tree in trees:
            jets_by_order = [eval_jet(tree, x0, y0, n).coeffs for n in range(5)]
            for n, (low, high) in enumerate(zip(jets_by_order, jets_by_order[1:])):
                assert len(high) == (n + 2) * (n + 3) // 2
                for u, v in zip(low, high):
                    assert np.array_equal(u, v)


@pytest.mark.parametrize("text, fourth", [
    ("sin(x)", math.sin),
    ("cos(x)", math.cos),
    ("tan(x)", lambda x: 8.0 * math.tan(x) / math.cos(x) ** 2
     * (2.0 + 3.0 * math.tan(x) ** 2)),
    ("exp(x)", math.exp),
    ("log(x)", lambda x: -6.0 / x ** 4),
    ("sqrt(x)", lambda x: -15.0 / 16.0 * x ** -3.5),
    ("1/x", lambda x: 24.0 / x ** 5),
    ("x^2.5", lambda x: 2.5 * 1.5 * 0.5 * -0.5 * x ** -1.5),
])
def test_fourth_derivatives_of_elementary_functions(text, fourth):
    jet = eval_jet(parse_expression(text), 0.7, 0.0, 4)
    fxxxx = jet.coeffs[10]
    assert fxxxx == pytest.approx(fourth(0.7), rel=1e-13)
    assert jet.coeffs[11:] == (0.0,) * 4


def test_shift_gives_the_jets_of_the_derivatives():
    """Shifting the order-4 jet of f by (i, j) gives the order-2 jet of
    d^(i+j) f / dx^i dy^j."""
    f = eval_jet(parse_expression("sin(x*y) + x^3*y^2"), 0.4, -0.3, 4)
    derivatives = {(1, 0): "y*cos(x*y) + 3*x^2*y^2",
                   (0, 1): "x*cos(x*y) + 2*x^3*y",
                   (1, 1): "cos(x*y) - x*y*sin(x*y) + 6*x^2*y",
                   (0, 2): "-x^2*sin(x*y) + 2*x^3"}
    for (i, j), text in derivatives.items():
        want = eval_jet(parse_expression(text), 0.4, -0.3, 2).coeffs
        got = f.shift(i, j, 2).coeffs
        assert got == pytest.approx(want, rel=1e-14, abs=1e-15)


def test_jet_immutability():
    j = eval_jet(parse_expression("1"), 0.0, 0.0, 3)
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
            _assert_same_jet(eval_jet(tree, AXIS_XS[:, None], AXIS_YS[None, :], 3),
                             eval_jet(tree, gx, gy, 3))


def test_scalar_seed_coordinate_jets_match_array_seeds():
    """Coordinate jets with float seeds on the axes evaluate every surface
    to the same coefficients as full-array seeds on the full grid, in the
    tree walk of pattern-free jet arithmetic."""
    gx, gy = np.meshgrid(AXIS_XS, AXIS_YS, indexing="ij")
    seed = jets._kernel(parse_expression("x"), 3)(AXIS_XS[:, None],
                                                  AXIS_YS[None, :], np)
    assert seed[0].shape == (len(AXIS_XS), 1)
    assert seed[1:3] == (1.0, 0.0) and type(seed[1]) is float
    for surface in grid_corpus():
        for tree in (surface.phi, surface.psi):
            _assert_same_jet(
                eval_jet(tree, AXIS_XS[:, None], AXIS_YS[None, :], 3),
                eval_jet_reference(tree, gx, gy, 3, patterns=False,
                                   variable=jet_variable_reference))


# first offending points on descending axes, as reported by full-grid
# evaluation with array seeds; the products of a factor in one coordinate
# with the other coordinate fail in the factor: in a derivative alone (the
# value of sin(1e300*x) and of exp(-700*y) is finite), in the value too, or
# out of its domain
@pytest.mark.parametrize("text, message, point", [
    ("log(x)", "log of non-positive value", (-0.06666666666666665, 1.0)),
    ("sqrt(y)", "sqrt of non-positive value", (1.0, -0.06666666666666665)),
    ("log(x) + sqrt(y)", "log of non-positive value",
     (-0.06666666666666665, 1.0)),
    ("sqrt(y)*log(x + 2)", "sqrt of non-positive value",
     (1.0, -0.06666666666666665)),
    ("exp(-1000*x)", "non-finite result", (-0.7333333333333334, 1.0)),
    ("exp(-1000*y)", "non-finite result", (1.0, -0.7333333333333334)),
    ("sin(1e300*x)*y", "non-finite result", (1.0, 1.0)),
    ("exp(-700*y)*x", "non-finite result", (1.0, -1.0)),
    ("exp(-800*y)*x", "non-finite result", (1.0, -0.8666666666666667)),
    ("y*exp(-700*x)", "non-finite result", (-1.0, 1.0)),
    ("exp(800*y)*x", "non-finite result", (1.0, 1.0)),
    ("log(x + 1)*y", "log of non-positive value", (-1.0, 1.0)),
])
def test_axis_error_reports_first_grid_point(text, message, point):
    """A failure in a one-axis subexpression names the first offending point
    of the whole grid in row-major order, as full-grid inputs do."""
    xs = np.linspace(1.0, -1.0, 16)
    ys = np.linspace(1.0, -1.0, 16)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    for x0, y0 in ((xs[:, None], ys[None, :]), (gx, gy)):
        with pytest.raises(EvaluationError) as err:
            eval_jet(parse_expression(text), x0, y0, 3)
        assert str(err.value) == f"{message} at point {point!r}"
        assert err.value.point == point


# -- structural zeros and the compiled kernels ----------------------------------

def _kernel_coefficients(tree, x0, y0, order):
    """The coefficients of the compiled kernel of ``tree`` at the points,
    before the checks of :func:`eval_jet`."""
    if isinstance(x0, np.ndarray) or isinstance(y0, np.ndarray):
        with np.errstate(all="ignore"):
            return jets._kernel(tree, order)(x0, y0, np)
    return jets._kernel(tree, order)(float(x0), float(y0), math)


def _raw_jet(evaluate, x0, y0):
    """The coefficients that ``evaluate()`` returns, as rows of an array;
    or the failure that stopped it."""
    try:
        coeffs = evaluate()
    except (jets._DomainFailure, OverflowError, ValueError) as err:
        return f"{type(err).__name__}: {err}"
    shape = np.broadcast(x0, y0).shape
    return np.array([np.broadcast_to(c, shape) for c in coeffs]).reshape(
        len(coeffs), -1)


_LEAVES = st.sampled_from(["x", "y", "x", "y", "0", "1", "0.3", "2.5", "pi",
                           "1e300", "1e-300"])
_POWERS = st.sampled_from(["0", "2", "3", "5", "-1", "-2", "0.5", "1.5",
                           "-0.5", "2.5"])


@given(expression_texts(_LEAVES, _POWERS, max_leaves=10), st.integers(1, 4),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@example("-2*sin(x)*y", 3, 0.0, 0.5)
@example("exp(-exp(1000*y)) + 1e308*sin(2*y)", 1, 0.0, 0.0)
@settings(max_examples=300, deadline=None)
def test_structural_zeros_change_no_value(text, order, x0, y0):
    """The compiled kernels, whose subexpressions have structural zeros,
    evaluate every expression as the tree walk of jet arithmetic on
    pattern-free coordinate jets does, at a point and on the axes (an x
    axis and a y axis through 0): the same failure, or
    non-finite coefficients at the same points and equal coefficients at
    every other point.

    Only the sign of a zero may differ, because a term with a structural
    zero is left out rather than added as a signed zero: -2*sin(x)*y flips
    the sign of some exact zeros on the lines x = 0 and y = 0.  Where a
    coefficient is not finite, the pattern-free evaluation also forms
    0 * inf = nan in some derivatives that are structural zeros; so
    eval_jet, which names the first failing point of the lowest failing
    coefficient, can name another failing point when such a nan is alone
    in its coefficient, as on the y axis of exp(-exp(1000*y)) +
    1e308*sin(2*y), whose x derivatives are nan only pattern-free."""
    tree = parse_expression(text)
    axes = (np.linspace(-1.5, 1.5, 7)[:, None],
            np.linspace(-1.0, 1.0, 5)[None, :])
    for point in ((x0, y0), axes):
        sparse = _raw_jet(lambda: _kernel_coefficients(tree, *point, order),
                          *point)
        dense = _raw_jet(lambda: raw_jet_reference(tree, *point, order,
                                                   patterns=False), *point)
        if isinstance(sparse, str) or isinstance(dense, str):
            assert sparse == dense
            continue
        bad = ~np.isfinite(sparse).all(axis=0)
        assert np.array_equal(bad, ~np.isfinite(dense).all(axis=0))
        assert np.array_equal(sparse[:, ~bad], dense[:, ~bad])


def _outcome(evaluate):
    """What ``evaluate()`` gives: its coefficients as their types, shapes
    and the bytes of their floats, or its failure with its message (and
    point)."""
    try:
        coeffs = evaluate()
    except EvaluationError as err:
        return "EvaluationError", str(err), err.point
    except (jets._DomainFailure, OverflowError, ValueError) as err:
        return type(err).__name__, str(err)
    if isinstance(coeffs, Jet):
        coeffs = coeffs.coeffs
    return [(type(c), np.shape(c), np.asarray(c, dtype=float).tobytes())
            for c in coeffs]


_ALL_LEAVES = st.sampled_from(["x", "y", "x", "y", "0", "1", "0.3", "2.5", "pi",
                               "e", "1e300", "1e-300", "1e400"])
_ALL_POWERS = st.sampled_from(["0", "2", "3", "5", "-1", "-2", "0.5", "1.5",
                               "-0.5", "2.5", "513", "-600", "1e400"])


@given(expression_texts(_ALL_LEAVES, _ALL_POWERS, max_leaves=10),
       st.integers(0, 4), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@example("x / y", 3, 0.5, 0.0)
@example("tan(x) + log(y)", 4, 1.5707963267948966, 0.5)
@example("(x)^513 - (y)^-600 + sqrt(x) * e", 2, 0.5, 0.0)
@example("-(x)^1e400 * pi", 2, 1.0, 0.5)
@settings(max_examples=300, deadline=None)
def test_compiled_kernel_is_the_tree_walk_bit_for_bit(text, order, x0, y0):
    """The compiled kernel gives every coefficient as the tree walk of jet
    arithmetic with structural zeros, bit for bit (signs of zero and nans
    included), or the same failure, at a point, on the axes and on a full
    grid; and eval_jet gives the same jet, or the same error message and
    failing point."""
    tree = parse_expression(text)
    xs, ys = np.linspace(-1.5, 1.5, 7), np.linspace(-1.0, 1.0, 5)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    for point in ((x0, y0), (xs[:, None], ys[None, :]), (gx, gy)):
        assert _outcome(lambda: _kernel_coefficients(tree, *point, order)) \
            == _outcome(lambda: raw_jet_reference(tree, *point, order))
        assert _outcome(lambda: eval_jet(tree, *point, order)) \
            == _outcome(lambda: eval_jet_reference(tree, *point, order))


def test_kernel_compiled_once_per_expression_and_order(monkeypatch):
    """Repeated evaluations of a tree, at points and on axes, compile one
    kernel per order."""
    compiled = []
    compile_source = jets._compile
    monkeypatch.setattr(jets, "_compile", lambda source, name, **names: (
        compiled.append(name) or compile_source(source, name, **names)))
    tree = parse_expression("sin(3*x)*cos(2*y) + x^2.5/(2 + y)")
    xs, ys = np.linspace(0.1, 1.0, 5), np.linspace(-1.0, 1.0, 4)
    for _ in range(3):
        for order in (2, 3):
            eval_jet(tree, 0.4, -0.3, order)
            eval_jet(tree, xs[:, None], ys[None, :], order)
    assert compiled.count("kernel") == 2
    assert [key[1] for key in jets._KERNELS if jets._KERNELS[key][0] is tree] == [2, 3]


def test_kernel_cache_stays_bounded():
    """Evaluating more distinct trees than the cache holds keeps it at its
    bound, with the latest kernels in it."""
    trees = [parse_expression(f"x*y + {k}") for k in range(jets.KERNEL_CACHE + 40)]
    for k, tree in enumerate(trees):
        assert eval_jet(tree, 0.5, 2.0, 2).f == 1.0 + k
    assert len(jets._KERNELS) <= jets.KERNEL_CACHE
    assert jets._KERNELS[id(trees[-1]), 2][0] is trees[-1]
