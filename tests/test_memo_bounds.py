"""Every memo in the package is bounded: an lru_cache with no maxsize
would grow for the life of the process."""

import importlib
import inspect
import pkgutil

import metaice


def _memos():
    for info in pkgutil.iter_modules(metaice.__path__):
        module = importlib.import_module("metaice." + info.name)
        owners = [module] + [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                             if cls.__module__ == module.__name__]
        for owner in owners:
            for name, value in vars(owner).items():
                if hasattr(value, "cache_parameters"):
                    yield "%s.%s" % (owner.__name__, name), value


def test_every_lru_cache_has_a_finite_bound():
    found = dict(_memos())
    # the walk reaches memos in every module that has one
    assert {"metaice.crystal._pair_ok", "metaice.crystal._cover_pieces",
            "metaice.lattice._grid_row", "metaice.scalar._gauss_merge",
            "metaice.cli._parser"} <= set(found)
    for name, memo in found.items():
        maxsize = memo.cache_parameters()["maxsize"]
        assert type(maxsize) is int and maxsize > 0, (name, maxsize)
