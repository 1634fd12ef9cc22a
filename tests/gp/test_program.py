"""Unit tests for the oracle's model objects (``tests/oracle/program.py``)
and their lowering to :class:`repro.gp.program.CompiledProgram`."""

import pytest

from repro.exceptions import InfeasibleProblemError
from tests.oracle import Constraint, GeometricProgram, Monomial, NotPosynomialError

x = Monomial.variable("x")
y = Monomial.variable("y")


class TestConstraint:
    def test_leq_normalisation(self):
        c = Constraint.leq(x + y, 2 * x)
        normalised = c.normalised()
        assert normalised.evaluate({"x": 1.0, "y": 1.0}) == pytest.approx(1.0)

    def test_posynomial_rhs_rejected(self):
        with pytest.raises(NotPosynomialError):
            Constraint.leq(x, x + y)

    def test_violation_sign(self):
        c = Constraint.leq(x, 2.0)
        assert c.violation({"x": 1.0}) < 0
        assert c.violation({"x": 3.0}) > 0
        assert c.is_satisfied({"x": 2.0})

    def test_scalar_rhs(self):
        c = Constraint.leq(x + y, 4.0)
        assert c.is_satisfied({"x": 2.0, "y": 2.0})
        assert not c.is_satisfied({"x": 3.0, "y": 2.0})


class TestGeometricProgram:
    def test_variables_collected_sorted(self):
        gp = GeometricProgram(objective=1 / x)
        gp.add_constraint(y, 2.0)
        assert gp.variables == ("x", "y")

    def test_add_constraint_returns_constraint(self):
        gp = GeometricProgram(objective=1 / x)
        c = gp.add_constraint(x, 2.0, name="cap")
        assert c.name == "cap"
        assert gp.constraints == (c,)

    def test_check_feasible(self):
        gp = GeometricProgram(objective=1 / x)
        gp.add_constraint(x, 2.0)
        assert gp.check_feasible({"x": 1.5})
        assert not gp.check_feasible({"x": 2.5})

    def test_worst_violation_names_constraint(self):
        gp = GeometricProgram(objective=1 / x)
        gp.add_constraint(x, 2.0, name="cap")
        gp.add_constraint(x * y, 1.0, name="product")
        name, violation = gp.worst_violation({"x": 3.0, "y": 3.0})
        assert name == "product"
        assert violation == pytest.approx(8.0)

    def test_compile_drops_trivial_constant_constraints(self):
        gp = GeometricProgram(objective=1 / x)
        gp.add_constraint(Monomial.constant(0.5), 1.0)
        compiled = gp.compile()
        assert compiled.constraints == []

    def test_compile_rejects_violated_constant_constraint(self):
        gp = GeometricProgram(objective=1 / x)
        gp.add_constraint(Monomial.constant(2.0), 1.0, name="impossible")
        with pytest.raises(InfeasibleProblemError, match="impossible"):
            gp.compile()

    def test_compile_requires_variables(self):
        gp = GeometricProgram(objective=2.0)
        with pytest.raises(NotPosynomialError):
            gp.compile()

    def test_repr(self):
        gp = GeometricProgram(objective=1 / x + 1 / y)
        gp.add_constraint(x + y, 2.0)
        assert "2 variables" in repr(gp)
