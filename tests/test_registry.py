"""Tests for the built-in benchmark problems and their stored reference data."""
import math

import numpy as np
import pytest

from laneps.registry import (
    EXAMPLE_IDS,
    RegistryError,
    all_examples,
    get_example,
    self_check,
)


class TestCatalog:
    def test_all_five_cases_load_and_self_check(self):
        cases = all_examples()
        assert tuple(case.id for case in cases) == EXAMPLE_IDS

    def test_unknown_id_is_rejected(self):
        with pytest.raises(KeyError):
            get_example(6)

    def test_lattices_follow_the_reporting_conventions(self):
        sizes = {1: 50, 2: 11, 3: 50, 4: 6, 5: 11}
        for ex_id, points in sizes.items():
            case = get_example(ex_id)
            lattice = case.lattice()
            assert lattice.size == points
            assert lattice[0] == 0.0
            assert lattice[-1] == case.spec.b

    def test_case_objects_are_cached(self):
        assert get_example(1) is get_example(1)


class TestBoundaryData:
    def test_left_derivative_conditions(self):
        expected = {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0, 5: -1.0}
        for ex_id, alpha1 in expected.items():
            assert get_example(ex_id).spec.alpha1 == alpha1

    def test_isothermal_sphere_constants(self):
        """The exponential-source case pins c = 3 - 2 sqrt(2) via its data."""
        case = get_example(4)
        c = 3.0 - 2.0 * math.sqrt(2.0)
        delta = 2.0 * math.log((4.0 - 2.0 * math.sqrt(2.0)) / (7.75 - 4.5 * math.sqrt(2.0)))
        assert case.spec.delta == pytest.approx(delta, rel=1e-15)
        assert float(case.exact(0.0)) == pytest.approx(2.0 * math.log(c + 1.0), rel=1e-14)
        assert case.spec.b == 1.5

    def test_derivative_condition_case_has_no_value_condition(self):
        case = get_example(5)
        assert case.spec.beta == 0.0
        assert case.spec.gamma == 1.0
        assert case.spec.delta == -1.0


class TestDerivativeSups:
    @pytest.mark.parametrize("ex_id", [1, 2, 3, 5])
    def test_dominate_sampled_derivative_values(self, ex_id):
        """Each stored sup must bound the actual derivative where we can sample it."""
        case = get_example(ex_id)
        x = np.linspace(0.0, case.spec.b, 101)
        assert np.max(np.abs(case.exact(x))) <= case.deriv_sup(0) * (1.0 + 1e-12)
        assert np.max(np.abs(case.exact_prime(x))) <= case.deriv_sup(1) * (1.0 + 1e-12)
        assert np.max(np.abs(case.exact_second(x))) <= case.deriv_sup(2) * (1.0 + 1e-12)

    def test_trigonometric_case_sups_truncate_to_zero(self):
        case = get_example(5)
        assert case.deriv_sup(0) == math.pi / 2.0
        assert case.deriv_sup(1) == 1.0
        assert case.deriv_sup(2) == 0.0
        assert case.deriv_sup(9) == 0.0

    def test_polytropic_lipschitz_constant(self):
        """f = y^5 has slope 5 y^4 <= 5 on the solution range |y| <= 1."""
        case = get_example(2)
        assert case.lipschitz == 5.0
        y = case.exact(np.linspace(0.0, 1.0, 50))
        assert np.max(np.abs(5.0 * y**4)) <= 5.0


class TestReferenceData:
    def test_tables_are_consistent(self):
        for case in all_examples():
            for table in case.reference_tables:
                assert len(table.abscissas) == len(table.relative_errors)
                assert all(0.0 <= a < case.spec.b for a in table.abscissas)
                assert all(e >= 0.0 for e in table.relative_errors)
                assert table.endpoint_abs_error >= 0.0

    def test_stored_settings_cover_the_quoted_runs(self):
        settings = {
            (case.id, t.n, t.alpha)
            for case in all_examples()
            for t in case.reference_tables
        }
        assert (1, 5, 0.1) in settings
        assert (3, 6, -0.2) in settings
        assert (5, 7, 0.9) in settings


class TestSelfCheck:
    def test_rejects_a_wrong_exact_solution(self):
        import dataclasses

        case = get_example(1)
        broken = dataclasses.replace(case, exact=lambda x: np.asarray(x, float) ** 2)
        with pytest.raises(RegistryError):
            self_check(broken)

    def test_rejects_an_exact_solution_that_fails_the_ode(self):
        """Example 2 has f = y^5, so a shifted y leaves y'' and y' as they were
        and breaks the equation itself."""
        import dataclasses

        case = get_example(2)
        broken = dataclasses.replace(case, exact=lambda x: case.exact(x) + 1.0)
        with pytest.raises(RegistryError, match="^case 2: ODE residual"):
            self_check(broken)
