import importlib
import pkgutil

import stratakit


def test_every_all_entry_resolves():
    missing = []
    for info in pkgutil.iter_modules(stratakit.__path__):
        module = importlib.import_module(f"stratakit.{info.name}")
        missing += [
            f"{info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert missing == []
