"""The package's exports: the union of its modules' ``__all__`` lists."""

import importlib
import pkgutil

import moczsim


def module_exports():
    """``{module name: __all__}`` of every moczsim module that declares one."""
    found = {}
    for info in pkgutil.iter_modules(moczsim.__path__):
        module = importlib.import_module(f"moczsim.{info.name}")
        if hasattr(module, "__all__"):
            found[info.name] = list(module.__all__)
    return found


def test_no_name_is_exported_by_two_modules():
    # A star import would let the later module's object shadow the earlier
    # one's without a warning.
    owners = {}
    for module, names in module_exports().items():
        assert len(names) == len(set(names)), module
        for name in names:
            owners.setdefault(name, []).append(module)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}


def test_package_exports_the_union_of_the_module_lists():
    exports = module_exports()
    assert set(exports) == {"channel", "dizet", "huffman", "radar", "simulate"}
    assert sorted(moczsim.__all__) == sorted(n for names in exports.values() for n in names)
    for module, names in exports.items():
        owner = importlib.import_module(f"moczsim.{module}")
        for name in names:
            assert getattr(moczsim, name) is getattr(owner, name), name
