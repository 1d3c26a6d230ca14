import importlib
import pkgutil

import meanforce


def test_every_public_name_resolves():
    for name in meanforce.__all__:
        getattr(meanforce, name)


def test_every_submodule_export_resolves():
    # A name left in a submodule's __all__ after its definition is gone fails here.
    for info in pkgutil.iter_modules(meanforce.__path__):
        module = importlib.import_module(f"meanforce.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"meanforce.{info.name}.__all__ names {missing}"
