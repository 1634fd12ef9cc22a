"""The object geometric-programming layer, kept as the test oracle.

The package assembles every program straight into
:class:`repro.gp.program.CompiledProgram` arrays.  This package keeps the
algebra that writes the paper's programs down term by term —
:class:`Monomial`, :class:`Posynomial`, :class:`Constraint`,
:class:`GeometricProgram` — and the builders and planners written with it
(:mod:`tests.oracle.deviation`, :mod:`tests.oracle.builders`,
:mod:`tests.oracle.signomial`).  ``GeometricProgram.compile()`` is the
definition every array assembler in ``src/`` is held to, bit for bit
(DESIGN §8.2).  :mod:`tests.oracle.plan_first` keeps the QUERY_SUB handler
that planned before it replied, the oracle of the server's (DESIGN §9.3),
and :mod:`tests.oracle.dab_plane` the per-node copies of the DAB sender
and receiver rules that ``repro.service.source_plane`` holds once
(DESIGN §7.2).
"""

from tests.oracle.monomial import Monomial, NotPosynomialError, variables
from tests.oracle.posynomial import Posynomial, as_posynomial, substitute
from tests.oracle.program import Constraint, GeometricProgram

__all__ = [
    "Monomial",
    "NotPosynomialError",
    "variables",
    "Posynomial",
    "as_posynomial",
    "substitute",
    "Constraint",
    "GeometricProgram",
]
