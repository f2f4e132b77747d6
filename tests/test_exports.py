"""Every exported name of the package and its modules resolves."""
import importlib
import pkgutil

import laneps


def test_every_exported_name_resolves():
    modules = [laneps] + [
        importlib.import_module(f"laneps.{info.name}")
        for info in pkgutil.iter_modules(laneps.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
