"""Shared fixtures: the hand-derived reference surfaces and a seeded corpus
of random polynomial/trigonometric surfaces."""

from __future__ import annotations

import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import strategies as st

from monge4 import surface_from_strings

# The standard fixtures.  All were verified against the finite-difference
# geometric oracle (tests/oracles.py) before their expected values were
# frozen into the tests.
FIXTURES = {
    "A": ("x^2", "y^2"),                         # hyperbolic, segment indicatrix
    "B": ("x^2 - y^2", "2*x*y"),                 # elliptic umbilic
    "C": ("x^2 + 3*y^2", "x^3/3 + x*y^2"),       # imaginary inflection at 0
    "D": ("x^2", "2*x*y"),                       # parabolic
    "E": ("x^2 + y^3", "2*x*y"),                 # parabolic, fold height fn
    "G": ("1.5*x^2 + 0.5*y^2", "2*x*y"),         # hyperbolic, full indicatrix
    "H": ("x^2 - y^2", "x^3/3 + x*y^2"),         # real inflection at 0
    "flat": ("0", "0"),
}


def make_surface(name, domain=(-1.0, 1.0, -1.0, 1.0)):
    phi, psi = FIXTURES[name]
    return surface_from_strings(phi, psi, domain)


@pytest.fixture(scope="session")
def surfaces():
    return {name: make_surface(name) for name in FIXTURES}


def gallery_texts():
    """(phi, psi, domain) texts of the surfaces of
    ``scripts/fixture_gallery.py`` by name, with the saddle surface of the
    locus goldens in ``tests/test_cli.py``."""
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" \
        / "fixture_gallery.py"
    spec = importlib.util.spec_from_file_location("fixture_gallery", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    table = dict(module.SURFACES)
    table["saddle"] = ("x^2 - y^2", "x^3/3 + x*y^2 + 0.2*y^3",
                       "-0.5 0.5 -0.5 0.5")
    return table


def gallery_surfaces():
    """The surfaces of :func:`gallery_texts` by name."""
    return {name: surface_from_strings(phi, psi, tuple(map(float, dom.split())))
            for name, (phi, psi, dom) in gallery_texts().items()}


def benchmark_surfaces(workload, seed):
    """The surfaces of one round of a workload of ``perfbench/workloads.py``
    for ``seed``, by name."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" \
        / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: surface_from_strings(s["phi"], s["psi"], s["domain"])
            for name, s in module.make_spec(workload, seed)["surfaces"].items()}


def fixture_callables(name):
    """Plain-Python evaluators for the fixture surfaces (oracle side)."""
    table = {
        "A": (lambda x, y: x * x, lambda x, y: y * y),
        "B": (lambda x, y: x * x - y * y, lambda x, y: 2 * x * y),
        "C": (lambda x, y: x * x + 3 * y * y,
              lambda x, y: x ** 3 / 3 + x * y * y),
        "D": (lambda x, y: x * x, lambda x, y: 2 * x * y),
        "E": (lambda x, y: x * x + y ** 3, lambda x, y: 2 * x * y),
        "G": (lambda x, y: 1.5 * x * x + 0.5 * y * y, lambda x, y: 2 * x * y),
        "H": (lambda x, y: x * x - y * y,
              lambda x, y: x ** 3 / 3 + x * y * y),
        "flat": (lambda x, y: 0.0, lambda x, y: 0.0),
    }
    return table[name]


def random_surface_text(rng, degree=4, trig=True):
    """Expression pair for a random smooth surface with O(1) derivatives."""
    def poly():
        terms = []
        n_terms = rng.integers(3, 7)
        for _ in range(n_terms):
            i = int(rng.integers(0, degree + 1))
            j = int(rng.integers(0, degree + 1 - i))
            if i + j == 0:
                i = 1
            coef = round(float(rng.uniform(-1.2, 1.2)), 4)
            if coef == 0.0:
                coef = 0.5
            term = f"{coef}"
            if i:
                term += f"*x^{i}"
            if j:
                term += f"*y^{j}"
            terms.append(term)
        return " + ".join(terms)

    phi = poly()
    psi = poly()
    if trig and rng.random() < 0.6:
        amp = round(float(rng.uniform(0.2, 0.8)), 4)
        w1 = round(float(rng.uniform(0.5, 2.0)), 4)
        w2 = round(float(rng.uniform(0.5, 2.0)), 4)
        phi += f" + {amp}*sin({w1}*x)*cos({w2}*y)"
    if trig and rng.random() < 0.6:
        amp = round(float(rng.uniform(0.2, 0.8)), 4)
        w1 = round(float(rng.uniform(0.5, 2.0)), 4)
        phi_shift = round(float(rng.uniform(-1.0, 1.0)), 4)
        psi += f" + {amp}*cos({w1}*(x + {phi_shift})*y)"
    return phi, psi


def random_surfaces(seed=20240305, count=20, degree=4, trig=True):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        phi, psi = random_surface_text(rng, degree=degree, trig=trig)
        out.append(surface_from_strings(phi, psi))
    return out


def random_points(rng, count, lim=0.9):
    return rng.uniform(-lim, lim, size=(count, 2))


def rel_err(u, v, scale=0.0):
    return abs(u - v) / max(abs(u), abs(v), scale, 1e-300)


TRIG_SURFACE = ("sin(x)*cos(y) + 0.3*x^2", "0.5*sin(x*y) + 0.2*y^2")


def make_trig_surface(domain=(-1.0, 1.0, -1.0, 1.0)):
    return surface_from_strings(*TRIG_SURFACE, domain)


# a surface whose coordinate terms cancel or vanish exactly (x - x, 0*x): the
# derivative coefficients of those terms stay floats, which jet products treat
# as constants
STRUCTURAL_ZERO_SURFACE = ("x - x + y*(x - x) + 0*sin(x)",
                           "0*x*y + exp(0*x) - y*x + x*y + (y - y)*cos(x)")


def grid_corpus():
    """The random corpus, every fixture and the structural-zero surface."""
    return (random_surfaces() + [make_surface(name) for name in FIXTURES]
            + [surface_from_strings(*STRUCTURAL_ZERO_SURFACE)])


# axes of different lengths, so that a mixed-up axis cannot pass
AXIS_XS = np.linspace(-0.9, 0.9, 17)
AXIS_YS = np.linspace(-0.8, 0.7, 13)


def expression_texts(leaves, exponents, max_leaves):
    """Hypothesis strategy of expression texts: trees over the ``leaves``
    strategy of ``+ - * /``, the six functions, ``^`` with an exponent drawn
    from ``exponents``, and unary minus."""
    def branches(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*/"), children).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(st.sampled_from(["sin", "cos", "tan", "exp", "log",
                                       "sqrt"]),
                      children).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(children, exponents).map(lambda t: f"({t[0]})^{t[1]}"),
            children.map(lambda c: f"-{c}"),
        )

    return st.recursive(leaves, branches, max_leaves=max_leaves)
