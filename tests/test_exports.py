import importlib
import pkgutil

import gradgen


def test_every_export_resolves_once():
    modules = [gradgen] + [
        importlib.import_module(info.name) for info in pkgutil.walk_packages(gradgen.__path__, "gradgen.")
    ]
    checked = 0
    for module in modules:
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        checked += 1
        assert len(names) == len(set(names)), f"{module.__name__}.__all__ repeats a name"
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, f"{module.__name__}.__all__ names what it lacks: {missing}"
    assert checked >= 14
