"""Seeded inputs for the benchmark workloads and the closed forms that check them.

Each workload is a list of groups; every group runs in one fresh worker
process.  Inputs are plain JSON-able dicts, so the parent process can draw
them from the seed and hand them to a worker, which turns them into the
``ProblemSpec``s or config text the program receives.

* ``sweep`` -- the default convergence grid (n in 4..128, alpha in
  -0.4:0.1:2) for registry examples 1 and 4, one worker per example, as two
  ``laneps sweep`` invocations would run.  No (alpha, n) repeats in a worker.
* ``param-study`` -- a stream of problems at n = 32 drawn from closed-form
  families that cover all four solver branches; a fixed share arrives as
  config text.  Three bases serve every solve.
* ``large-n`` -- registry examples 1-5 at n = 512 for three alphas, where
  the dense O(n^3) kernels carry real weight.
"""
from __future__ import annotations

import math
import random

import numpy as np

WORKLOADS = ("sweep", "param-study", "large-n")

SWEEP_EXAMPLES = (1, 4)
SWEEP_NS = (4, 8, 16, 32, 64, 128)
# The grid of `laneps sweep --alpha-range -0.4:0.1:2`, rounded the same way.
SWEEP_ALPHAS = tuple(round(-0.4 + 0.1 * k, 12) for k in range(25))

LARGE_EXAMPLES = (1, 2, 3, 4, 5)
LARGE_N = 512
LARGE_ALPHAS = (-0.4, 0.5, 2.0)

PARAM_N = 32
PARAM_ALPHAS = (0.0, 0.5, 1.0)
PARAM_PROBLEMS = 200
PARAM_CONFIG_SHARE = 0.25
PARAM_LATTICE = 50


def _registry_item(example: int, n: int, alpha: float) -> dict:
    return {
        "id": f"ex{example}/n{n}/a{alpha!r}",
        "source": "registry",
        "example": example,
        "n": n,
        "alpha": alpha,
    }


def _sweep(rng: random.Random) -> list[list[dict]]:
    groups = []
    for example in SWEEP_EXAMPLES:
        group = [_registry_item(example, n, a) for n in SWEEP_NS for a in SWEEP_ALPHAS]
        rng.shuffle(group)
        groups.append(group)
    rng.shuffle(groups)
    return groups


def _large_n(rng: random.Random) -> list[list[dict]]:
    group = [_registry_item(e, LARGE_N, a) for e in LARGE_EXAMPLES for a in LARGE_ALPHAS]
    rng.shuffle(group)
    return [group]


# --- param-study families -------------------------------------------------
#
# Each family draws its parameters from the seed and knows its closed-form
# solution.  Ranges keep every problem well posed (no eigenvalue of the
# linearized operator near zero, index-5 amplitude a^4 b^2 < 3, Bratu
# mu b^2 <= 0.5).  ``tol`` bounds both the lattice MAE and the error at
# x = b; the worst error seen over 30 seeds was below 4e-13.  A few
# sin-neumann draws stall at a roundoff-level residual (the absolute Newton
# stop); they count as failed solves.


def _draw_bessel_robin(rng):
    b = rng.uniform(0.5, 1.5)
    return {"k": rng.uniform(0.5, 2.0 / b), "b": b, "gamma": rng.uniform(-0.5, 0.0)}


def _bessel_robin(p):
    """Linear Robin: y = sin(kx)/(kx) solves y'' + (2/x) y' + k^2 y = 0."""
    k, b, gamma = p["k"], p["b"], p["gamma"]

    def exact(x):
        return np.sinc(k * np.asarray(x, float) / math.pi)

    yb = math.sin(k * b) / (k * b)
    ypb = (k * b * math.cos(k * b) - math.sin(k * b)) / (k * b * b)
    spec = dict(
        kind="linear", alpha1=0.0, alpha2=2.0, beta=1.0, gamma=gamma,
        delta=yb + gamma * ypb, b=b,
        p=lambda x: np.full_like(np.asarray(x, float), k * k),
        g=lambda x: np.zeros_like(np.asarray(x, float)),
    )
    return spec, exact


def _draw_cosh_neumann(rng):
    return {"k": rng.uniform(0.5, 2.0), "b": rng.uniform(0.5, 1.5), "a2": rng.choice((1.0, 2.0))}


def _cosh_neumann(p):
    """Linear Neumann (the lstsq branch): y = cosh(kx), f = -k^2 y - a2 k sinh(kx)/x."""
    k, b, a2 = p["k"], p["b"], p["a2"]
    spec = dict(
        kind="linear", alpha1=0.0, alpha2=a2, beta=0.0, gamma=1.0,
        delta=k * math.sinh(k * b), b=b,
        p=lambda x: np.full_like(np.asarray(x, float), -k * k),
        g=lambda x: a2 * k * np.sinh(k * np.asarray(x, float)) / np.asarray(x, float),
    )
    return spec, lambda x: np.cosh(k * np.asarray(x, float))


def _draw_index5(rng):
    while True:
        a, b = rng.uniform(0.6, 1.2), rng.uniform(0.5, 1.5)
        if a**4 * b * b <= 2.5:
            return {"a": a, "b": b}


def _index5_yb(p):
    return p["a"] / math.sqrt(1.0 + p["a"] ** 4 * p["b"] ** 2 / 3.0)


def _index5_robin(p):
    """Nonlinear, beta != 0: y = a/sqrt(1 + a^4 x^2/3) solves y'' + (2/x) y' + y^5 = 0.

    Dirichlet data at b: with Robin data Newton can reach another solution of
    the same boundary problem (Bratu below likewise).
    """
    a, b = p["a"], p["b"]

    def exact(x):
        return a / np.sqrt(1.0 + a**4 * np.asarray(x, float) ** 2 / 3.0)

    spec = dict(
        kind="nonlinear", alpha1=0.0, alpha2=2.0, beta=1.0, gamma=0.0,
        delta=_index5_yb(p), b=b,
        f=lambda x, y: y**5,
        dfdy=lambda x, y: 5.0 * y**4,
    )
    return spec, exact


def _draw_sin_neumann(rng):
    return {"c": rng.uniform(0.3, 1.2), "b": rng.uniform(0.5, 1.0)}


def _sin_neumann(p):
    """Nonlinear Neumann: y = c - x with f = sin y - sin(c - x) + 2/x."""
    c, b = p["c"], p["b"]
    spec = dict(
        kind="nonlinear", alpha1=-1.0, alpha2=2.0, beta=0.0, gamma=1.0, delta=-1.0, b=b,
        f=lambda x, y: np.sin(y) - np.sin(c - x) + 2.0 / x,
        dfdy=lambda x, y: np.cos(y),
    )
    return spec, lambda x: c - np.asarray(x, float)


def _config_text(a2, delta, b, f, exact, alpha):
    """A nonlinear problem with y'(0) = 0 and y(b) = delta, as config text."""
    return "\n".join([
        "kind = nonlinear", "alpha1 = 0", f"alpha2 = {a2!r}", "beta = 1", "gamma = 0",
        f"delta = {delta!r}", f"b = {b!r}", f"f = {f}",
        f"exact = {exact}", f"n = {PARAM_N}", f"alpha = {alpha!r}",
        f"eval_points = {PARAM_LATTICE}", "",
    ])


def _index5_config(p, alpha):
    """The index-5 family again, as config text (expression evaluator, FD Jacobian)."""
    a = p["a"]
    return _config_text(
        2.0, _index5_yb(p), p["b"], "y^5",
        f"{a!r}/sqrt(1+{a**4!r}*x^2/3)", alpha,
    )


def _draw_bratu(rng):
    while True:
        mu, b = rng.uniform(0.05, 0.5), rng.uniform(0.5, 1.5)
        if mu * b * b <= 0.5:
            return {"mu": mu, "b": b}


def _bratu_config(p, alpha):
    """Cylindrical Bratu: y = log(8 mu/(1 + mu x^2)^2) solves y'' + y'/x + e^y = 0."""
    mu, b = p["mu"], p["b"]
    return _config_text(
        1.0, math.log(8.0 * mu / (1.0 + mu * b * b) ** 2), b, "exp(y)",
        f"log(8*{mu!r}/(1+{mu!r}*x^2)^2)", alpha,
    )


#: name -> (draw, build, tolerance).  ``build`` returns (ProblemSpec kwargs,
#: exact solution) for callable families and config text for config ones.
FAMILIES = {
    "bessel-robin": (_draw_bessel_robin, _bessel_robin, 5e-12),
    "cosh-neumann": (_draw_cosh_neumann, _cosh_neumann, 5e-12),
    "index5-robin": (_draw_index5, _index5_robin, 5e-12),
    "sin-neumann": (_draw_sin_neumann, _sin_neumann, 5e-12),
    "index5-config": (_draw_index5, _index5_config, 5e-12),
    "bratu-config": (_draw_bratu, _bratu_config, 5e-12),
}
CALLABLE_FAMILIES = ("bessel-robin", "cosh-neumann", "index5-robin", "sin-neumann")
CONFIG_FAMILIES = ("index5-config", "bratu-config")


def _param_study(rng: random.Random) -> list[list[dict]]:
    n_config = round(PARAM_PROBLEMS * PARAM_CONFIG_SHARE)
    families = [CALLABLE_FAMILIES[i % 4] for i in range(PARAM_PROBLEMS - n_config)]
    families += [CONFIG_FAMILIES[i % 2] for i in range(n_config)]
    items = []
    for i, family in enumerate(families):
        draw, build, _ = FAMILIES[family]
        alpha = rng.choice(PARAM_ALPHAS)
        item = {"id": f"{family}/{i}", "family": family, "n": PARAM_N, "alpha": alpha,
                "params": draw(rng)}
        if family in CONFIG_FAMILIES:
            item["source"] = "config"
            item["text"] = build(item["params"], alpha)
        else:
            item["source"] = "callable"
        items.append(item)
    rng.shuffle(items)
    return [items]


def inputs(workload: str, seed: int) -> list[list[dict]]:
    """The workload's input groups; the same seed gives the same list."""
    make = {"sweep": _sweep, "param-study": _param_study, "large-n": _large_n}[workload]
    return make(random.Random(seed))


def largest_n(workload: str) -> int:
    """Degree whose solves form the latency population."""
    return {"sweep": max(SWEEP_NS), "param-study": PARAM_N, "large-n": LARGE_N}[workload]
