"""Built-in singular boundary-value benchmark problems with exact solutions.

Five classic Lane-Emden-type cases: a linear emissivity problem, the
polytropic-index-5 equilibrium equation, a linear heat-conduction problem in a
sphere, the isothermal gas sphere with exponential source, and a pure-Neumann
trigonometric problem.  Each case is read from its config file in the
package's ``configs`` directory, the same text ``laneps solve --config``
takes: the problem data, f and f_y = df/dy, the exact solution and the size
of the evaluation lattice used for reported errors.  The first and second
derivatives of the exact solution are its expression differentiated in x.
Only what the text does not hold lives here: the title, closed-form
sup-norms of higher derivatives where the error bounds need them, the
Lipschitz constant, and stored reference errors for regression comparison.

The registry self-checks at load: every exact solution must satisfy its ODE
and boundary data at 100 sample points before a case is handed out.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .config import load_config
from .solver import ProblemSpec

__all__ = [
    "ExampleCase",
    "ReferenceTable",
    "ReferenceMAE",
    "RegistryError",
    "get_example",
    "all_examples",
    "EXAMPLE_IDS",
]

#: Exact-solution self-check tolerances (ODE residual / boundary data).
_ODE_TOL = 1e-10
_BC_TOL = 1e-12
#: Example i is defined by ``example{i}.cfg`` here.
_CONFIG_DIR = Path(__file__).parent / "configs"


class RegistryError(RuntimeError):
    """An exact solution failed its load-time self-check."""


@dataclass(frozen=True)
class ReferenceTable:
    """Stored per-point relative errors for one (n, alpha) setting."""

    n: int
    alpha: float
    abscissas: tuple[float, ...]
    relative_errors: tuple[float, ...]
    endpoint_abs_error: float


@dataclass(frozen=True)
class ReferenceMAE:
    """Stored maximum absolute error over the lattice for one setting."""

    n: int
    alpha: float
    mae: float


@dataclass(frozen=True)
class ExampleCase:
    """A benchmark problem: spec, exact solution, sups, reference data."""

    id: int
    title: str
    spec: ProblemSpec
    exact: Callable
    exact_prime: Callable
    exact_second: Callable
    lattice_points: int
    deriv_sup: Callable | None = None
    lipschitz: float | None = None
    reference_tables: tuple[ReferenceTable, ...] = ()
    reference_maes: tuple[ReferenceMAE, ...] = ()

    def lattice(self) -> np.ndarray:
        """Evaluation points used for reported errors: uniform on [0, b]."""
        return np.linspace(0.0, self.spec.b, self.lattice_points)


def _example_1_sup(m: int) -> float:
    # y^(m) = 2 (m-1)! ((c - x)^-m + (-1)^(m-1) (c + x)^-m), c = 2*sqrt(2),
    # maximized on [0, 1] by taking both denominators at their smallest.
    c = 2.0 * math.sqrt(2.0)
    if m == 0:
        return 2.0 * abs(math.log(7.0 / 8.0))
    return 2.0 * math.factorial(m - 1) * ((c - 1.0) ** -m + c**-m)


def _binomial_tail_sup(m: int, pole_scale: float) -> float:
    """Sup on [0, 1] of the m-th derivative of (1 + x^2/s)^(-1/2), majorized.

    Termwise bound of the Maclaurin series: sum over 2k >= m of
    |binom(-1/2, k)| s^-k (2k)!/(2k - m)!, with |binom(-1/2, k)| = C(2k, k)/4^k.
    Evaluated in log space; terms decay geometrically for s > 1.
    """
    total = 0.0
    k = (m + 1) // 2
    log_s4 = math.log(4.0 * pole_scale)
    while True:
        log_term = (
            2.0 * math.lgamma(2 * k + 1)
            - 2.0 * math.lgamma(k + 1)
            - math.lgamma(2 * k - m + 1)
            - k * log_s4
        )
        term = math.exp(log_term)
        total += term
        k += 1
        if k > m and term < 1e-17 * total:
            return total


def _sinh_ratio_deriv(m: int, x) -> np.ndarray:
    """m-th derivative of sinh(2x)/x via its everywhere-convergent series.

    sinh(2x)/x = sum_j 2^(2j+1) x^(2j) / (2j+1)!, so the m-th derivative is
    sum over 2j >= m of 2^(2j+1) x^(2j-m) / ((2j+1) (2j-m)!); all coefficients
    are positive, which also makes the x = 1 value the sup on [0, 1].
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j in range((m + 1) // 2, (m + 1) // 2 + 40):
        coeff = 2.0 ** (2 * j + 1) / ((2 * j + 1) * math.factorial(2 * j - m))
        out = out + coeff * x ** float(2 * j - m)
    return out


def _example_3_sup(m: int) -> float:
    # y = 0.5 + (5/sinh 2) sinh(2x)/x
    scale = 5.0 / math.sinh(2.0)
    return (0.5 if m == 0 else 0.0) + scale * float(_sinh_ratio_deriv(m, 1.0))


#: What the config files do not hold, per example id.
_CASE_DATA = {
    1: dict(
        title="linear emissivity problem",
        deriv_sup=_example_1_sup,
        lipschitz=0.0,  # sup|p|
        reference_tables=(
            ReferenceTable(
                n=5, alpha=0.1,
                abscissas=(0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
                relative_errors=(
                    1.8405e-06, 1.8512e-06, 3.2213e-06, 9.0436e-06, 3.6570e-06,
                    7.1760e-06, 1.3045e-05, 6.5036e-06, 1.1139e-05, 2.5024e-05,
                    2.4411e-06,
                ),
                endpoint_abs_error=0.0,
            ),
            ReferenceTable(
                n=7, alpha=1.1,
                abscissas=(0.0, 0.2, 0.4, 0.6, 0.8),
                relative_errors=(
                    7.9499e-08, 8.6474e-09, 5.4461e-10, 2.8767e-08, 4.0944e-08,
                ),
                endpoint_abs_error=0.0,
            ),
        ),
    ),
    2: dict(
        title="polytropic equilibrium of index five",
        deriv_sup=lambda m: _binomial_tail_sup(m, 3.0),
        lipschitz=5.0,  # 5 max|y|^4 with |y| <= 1 on the solution range
        reference_tables=(
            ReferenceTable(
                n=7, alpha=1.4,
                abscissas=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
                relative_errors=(
                    1.1021e-07, 3.7718e-09, 1.7350e-08, 8.4623e-08, 3.6471e-08,
                    1.6719e-08, 3.4350e-08, 7.9305e-08, 4.9866e-09, 1.9892e-09,
                ),
                endpoint_abs_error=4.4409e-16,
            ),
        ),
        reference_maes=(
            ReferenceMAE(3, 0.8, 3.9711e-04),
            ReferenceMAE(6, -0.1, 1.7118e-06),
            ReferenceMAE(8, 0.8, 2.6347e-08),
        ),
    ),
    3: dict(
        title="linear heat conduction in a sphere",
        deriv_sup=_example_3_sup,
        lipschitz=4.0,  # sup|p|
        reference_tables=(
            ReferenceTable(
                n=6, alpha=-0.2,
                abscissas=(
                    0.025, 0.05, 0.075, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                    0.9,
                ),
                relative_errors=(
                    1.4056e-08, 2.2797e-07, 4.4184e-07, 5.7829e-07, 1.9466e-07,
                    7.0896e-07, 7.5662e-07, 7.4427e-08, 7.2706e-07, 4.2395e-07,
                    3.3767e-07, 3.0010e-07,
                ),
                endpoint_abs_error=0.0,
            ),
        ),
    ),
    4: dict(
        title="isothermal gas sphere with exponential source",
        lipschitz=(4.0 - 2.0 * math.sqrt(2.0)) ** 2,  # exp(max y) = (c+1)^2
        reference_tables=(
            ReferenceTable(
                n=5, alpha=0.9,
                abscissas=(0.0, 0.3, 0.6, 0.9, 1.2),
                relative_errors=(
                    2.9203e-05, 5.3820e-05, 9.1514e-05, 7.3363e-05, 5.2870e-05,
                ),
                endpoint_abs_error=4.996e-16,
            ),
        ),
        reference_maes=(
            ReferenceMAE(5, 0.9, 1.8012e-05),
            ReferenceMAE(10, 0.5, 1.3886e-09),
            ReferenceMAE(15, -0.1, 1.1013e-13),
            ReferenceMAE(20, 2.0, 5.8287e-15),
        ),
    ),
    5: dict(
        title="pure-Neumann trigonometric problem",
        deriv_sup=lambda m: (math.pi / 2.0, 1.0)[m] if m <= 1 else 0.0,
        lipschitz=1.0,
        reference_tables=(
            ReferenceTable(
                n=7, alpha=0.9,
                abscissas=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
                relative_errors=(
                    2.8272e-16, 1.6607e-15, 2.0410e-14, 5.2419e-15, 1.2707e-14,
                    4.1473e-15, 1.1436e-15, 2.8049e-15, 5.0413e-15, 3.3102e-15,
                ),
                endpoint_abs_error=4.4409e-16,
            ),
        ),
    ),
}

#: The registered example ids, in order.
EXAMPLE_IDS = tuple(_CASE_DATA)


def _build(example_id: int) -> ExampleCase:
    """The case read from its config file, plus its entry of ``_CASE_DATA``."""
    cfg = load_config(_CONFIG_DIR / f"example{example_id}.cfg")
    exact_prime = cfg.exact.derivative("x")
    return ExampleCase(
        id=example_id,
        spec=cfg.to_spec(),
        exact=cfg.exact,
        exact_prime=exact_prime,
        exact_second=exact_prime.derivative("x"),
        lattice_points=cfg.eval_points,
        **_CASE_DATA[example_id],
    )


def self_check(case: ExampleCase) -> None:
    """Verify the stored exact solution against the ODE and boundary data."""
    spec = case.spec
    x = np.linspace(0.01 * spec.b, spec.b, 100)
    y, yp, ypp = case.exact(x), case.exact_prime(x), case.exact_second(x)
    if spec.kind == "linear":
        fval = spec.p(x) * y - spec.g(x)
    else:
        fval = spec.f(x, y)
    residual = ypp + spec.alpha2 * yp / x + fval
    worst = float(np.max(np.abs(residual)))
    if worst > _ODE_TOL:
        raise RegistryError(f"case {case.id}: ODE residual {worst:.3e} exceeds {_ODE_TOL}")
    left = abs(float(case.exact_prime(0.0)) - spec.alpha1)
    yb = float(case.exact(spec.b))
    ypb = float(case.exact_prime(spec.b))
    right = abs(spec.beta * yb + spec.gamma * ypb - spec.delta)
    if left > _BC_TOL or right > _BC_TOL:
        raise RegistryError(
            f"case {case.id}: boundary mismatch (left {left:.3e}, right {right:.3e})"
        )


@functools.cache
def get_example(example_id: int) -> ExampleCase:
    """Return the registered case, self-checking it on first access."""
    if example_id not in EXAMPLE_IDS:
        raise KeyError(f"unknown example id {example_id}; expected one of {EXAMPLE_IDS}")
    case = _build(example_id)
    self_check(case)
    return case


def all_examples() -> tuple[ExampleCase, ...]:
    """All registered cases in id order."""
    return tuple(get_example(i) for i in EXAMPLE_IDS)
