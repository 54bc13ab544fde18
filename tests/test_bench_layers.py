"""Every function the benchmark's layer table names exists where it says.

perfbench/layers.py wraps these targets for ``--trace 1`` and counts their
calls; a renamed or deleted library function would break tracing or silently
stop counting its layer.  The module is loaded by path and left unchanged.
The counter reads cProfile, so no two library code objects may share its key.
"""

import importlib
import importlib.util
import inspect
import pkgutil
import types
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()
TARGETS = sorted(
    {t for table in (layers.LAYERS, layers.COUNTED) for targets in table.values() for t in targets}
)


@pytest.mark.parametrize("target", TARGETS)
def test_layer_target_is_defined_on_its_owner(target):
    module, qualname = target.split(":")
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{target} is not defined on {owner!r}"
    assert callable(layers._resolve(target)[2])


def test_every_layer_has_targets():
    assert all(layers.LAYERS.values()) and all(layers.COUNTED.values())


def test_no_two_code_objects_share_a_profile_key():
    """cProfile keys a function by (file, first line, name); two code objects
    on one key would merge or drop one of their call counts."""
    src = LAYERS_PY.parent.parent / "src" / "qgalois"
    for path in sorted(src.glob("*.py")):
        keys = []
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            keys.append((code.co_firstlineno, code.co_name))
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        shared = sorted(k for k in set(keys) if keys.count(k) > 1)
        assert not shared, f"{path.name}: {shared}"


def test_no_library_method_compiles_from_a_string():
    """Generated methods (a dataclass's ``__init__``, ``__eq__``, ...) compile
    from "<string>", where cProfile keys every class's copy alike."""
    import qgalois

    for info in pkgutil.iter_modules(qgalois.__path__):
        if info.name == "__main__":  # running it would exit
            continue
        module = importlib.import_module(f"qgalois.{info.name}")
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            for name, attr in vars(cls).items():
                fn = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
                code = getattr(inspect.unwrap(fn), "__code__", None)
                assert code is None or code.co_filename != "<string>", f"{cls.__qualname__}.{name}"
