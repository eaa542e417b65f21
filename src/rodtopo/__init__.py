"""rodtopo: exact-arithmetic analysis of rod diagrams of toric black holes.

The package splits into:

- ``intlin``     exact integer matrix algorithms (Hermite/Smith forms,
  determinant divisors, primitivity tests)
- ``roddiagram`` the rod-diagram data model, JSON serialization,
  validation, corner/horizon/end classification
- ``plumbing``   disk-bundle extraction, plumbing vectors, and the
  decomposition of the domain of outer communication
- ``topology``   fundamental groups, fill-in chains, compactification,
  and the low-dimensional classification chart
- ``modelbuild`` region-wise model maps on the half plane: the records
  and their exact build from the rod data
- ``modelmap``   float evaluation of model maps and the numerical tension
  verifier, the one layer that needs numpy
- ``cli``        the ``rodtopo`` command-line front end

Every layer is loaded on first use: on first access to ``rodtopo.<layer>``
or to a name re-exported from it.  Importing ``rodtopo`` loads no layer,
and each CLI subcommand loads only the layers it calls, so only
``model-verify`` loads ``modelmap`` and with it numpy.
``from rodtopo import *`` binds every layer's names but the verifier's,
``ModelMap`` and ``build_model_map`` included, and so loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# each layer and the names re-exported from it
_EXPORTS = {
    "intlin": (
        "IntMatrix", "HermiteResult", "SmithResult", "determinant_divisor",
        "hermite_normal_form", "is_primitive_set", "is_primitive_vector", "smith_normal_form",
    ),
    "roddiagram": (
        "CrossSectionTopology", "Rod", "RodDiagram", "RodStructure", "asymptotic_end",
        "cross_section_topology", "parse",
    ),
    "plumbing": (
        "Bundle", "DocDecomposition", "ToricPlumbing", "decompose_component", "doc_decomposition",
        "plumbing_to_rods", "plumbing_vector", "triple_to_bundle", "verify_plumbing_relations",
    ),
    "topology": (
        "AbelianGroup", "FillinPlan", "betti2", "classify", "compactify", "end_pi1",
        "fillin_path", "fundamental_group", "is_simply_connected",
    ),
    "modelbuild": ("ModelMap", "build_model_map"),
    "modelmap": ("TensionReport", "potentials", "tension_norm", "verify_tension"),
    "errors": (),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for name, module in _HOME.items() if module != "modelmap"]


def __getattr__(name):
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not ``from . import ...``: the latter asks this
    # package for the attribute first, which would call back in here
    layer = importlib.import_module(f".{module}", __name__)
    return layer if module == name else getattr(layer, name)


def __dir__():
    # the lazy names too, without loading a layer
    return sorted({*globals(), *_EXPORTS, *_HOME})
