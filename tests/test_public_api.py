"""Public-API hygiene: everything exported exists and is documented."""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro.gp", "repro.queries", "repro.filters", "repro.dynamics",
    "repro.simulation", "repro.workloads", "repro.experiments",
]


class TestExports:
    def test_top_level_all_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolvable(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists {name!r}"

    def test_version_string(self):
        assert repro.__version__.count(".") == 2


class TestDocumentation:
    @pytest.mark.parametrize("module_name", SUBPACKAGES + ["repro"])
    def test_modules_have_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip()

    def test_public_classes_and_functions_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
        assert not undocumented, f"undocumented public items: {undocumented}"

    def test_public_methods_documented_on_core_classes(self):
        from repro import (
            CostModel,
            DABAssignment,
            DualDABPlanner,
            PolynomialQuery,
        )

        undocumented = []
        for cls in (PolynomialQuery, DualDABPlanner, DABAssignment,
                    CostModel):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_") or not callable(member):
                    continue
                if not (getattr(member, "__doc__", None) or "").strip():
                    undocumented.append(f"{cls.__name__}.{name}")
        assert not undocumented, f"undocumented methods: {undocumented}"


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import exceptions

        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if inspect.isclass(obj) and issubclass(obj, Exception) \
                    and obj.__module__ == "repro.exceptions":
                assert issubclass(obj, exceptions.ReproError), name

    def test_catching_base_class_is_sufficient(self):
        from repro import ReproError, parse_query

        with pytest.raises(ReproError):
            parse_query("x*y")  # missing QAB -> QueryParseError -> ReproError
