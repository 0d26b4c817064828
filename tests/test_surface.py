"""The package's settable surface: every defaulted parameter and dataclass field.

A default is a value a caller may change, so each one is a configuration the
tests would have to cover.  This test lists them with ``inspect`` and compares
the list with ``SURFACE``; adding, removing or renaming a default needs a
deliberate edit here.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import liouville_lab

SURFACE = {
    "bubbles.bubble_density(h)",
    "bubbles.total_mass(spec)",
    "cli.main(argv)",
    "config.load_defaults(path)",
    "interaction.InteractionParams.beta_s",
    "kernels.principal_eigenvalue(n)",
    "maxima.MaximaConfiguration.R",
    "numerics.QuadratureSpec.abs_tol",
    "numerics.QuadratureSpec.rel_tol",
    "numerics._circle_mean(grading)",
    "numerics.integrate_disk(peak)",
    "numerics.integrate_plane(peak)",
    "pohozaev.SolutionField.laplacian",
    "pohozaev.pohozaev_check(peak)",
    "scenarios._bound_entry(direction)",
    "scenarios.run_scenario(overrides)",
}


def _defaulted(prefix, fn):
    return {f"{prefix}({name})" for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


def surface() -> set:
    """``module.function(param)``, ``module.Class.method(param)`` and
    ``module.Class.field`` for every default defined in the package."""
    found = set()
    for info in pkgutil.iter_modules(liouville_lab.__path__):
        module = importlib.import_module(f"liouville_lab.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found |= _defaulted(f"{info.name}.{name}", obj)
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)
                    # skips the __init__ that dataclasses generates: its
                    # defaults are the fields counted below
                    if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                        found |= _defaulted(f"{info.name}.{name}.{attr}", fn)
                if dataclasses.is_dataclass(obj):
                    # a field outside __init__ (a cache) is not the caller's to set
                    found |= {f"{info.name}.{name}.{f.name}" for f in dataclasses.fields(obj)
                              if f.init and (f.default is not dataclasses.MISSING
                                             or f.default_factory is not dataclasses.MISSING)}
    return found


def test_surface_matches_committed_list():
    found = surface()
    assert sorted(found - SURFACE) == [], "new defaults: add them to SURFACE"
    assert sorted(SURFACE - found) == [], "defaults gone: remove them from SURFACE"
