"""The package's export lists agree with what the modules define."""

import importlib
import pkgutil
import types

import pytest

import rasphy

# every submodule but ``__main__``, which would run the command line
MODULES = [importlib.import_module(f"rasphy.{info.name}")
           for info in pkgutil.iter_modules(rasphy.__path__)
           if info.name != "__main__"]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_exists(module):
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def test_every_top_level_name_is_listed():
    listed = {name for module in MODULES
              for name in getattr(module, "__all__", ())}
    public = {name for name, value in vars(rasphy).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public - listed == set()
