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
- ``modelmap``   region-wise model maps on the half plane and the
  numerical tension verifier
- ``cli``        the ``rodtopo`` command-line front end

Only ``modelmap`` needs numpy.  It is loaded on first access, either of
``rodtopo.modelmap`` or of one of the names re-exported from it, so the
exact layers and their CLI subcommands start without numpy.
"""

import importlib

from .intlin import (
    IntMatrix,
    HermiteResult,
    SmithResult,
    determinant_divisor,
    hermite_normal_form,
    is_primitive_set,
    is_primitive_vector,
    smith_normal_form,
)
from .roddiagram import (
    CrossSectionTopology,
    Rod,
    RodDiagram,
    RodStructure,
    asymptotic_end,
    cross_section_topology,
    parse,
)
from .plumbing import (
    Bundle,
    DocDecomposition,
    ToricPlumbing,
    decompose_component,
    doc_decomposition,
    plumbing_to_rods,
    plumbing_vector,
    triple_to_bundle,
    verify_plumbing_relations,
)
from .topology import (
    AbelianGroup,
    FillinPlan,
    betti2,
    classify,
    compactify,
    end_pi1,
    fillin_path,
    fundamental_group,
    is_simply_connected,
)

__version__ = "0.1.0"

_MODELMAP_NAMES = frozenset(
    {"ModelMap", "TensionReport", "build_model_map", "potentials", "tension_norm", "verify_tension"}
)


def __getattr__(name):
    if name != "modelmap" and name not in _MODELMAP_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not ``from . import modelmap``: the latter asks this
    # package for the attribute first, which would call back in here
    modelmap = importlib.import_module(".modelmap", __name__)
    return modelmap if name == "modelmap" else getattr(modelmap, name)
