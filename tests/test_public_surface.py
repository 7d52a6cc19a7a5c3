"""The public surface is pinned: the package's ``__all__``, each module's
``__all__`` (or its absence), and the names the README's Quick start
imports.  A change to any of them is a change of the public surface and
shows here."""

import ast
import importlib
import pkgutil

import spinnet
from test_readme import _fenced_blocks

PACKAGE_ALL = [
    "Spin", "GroupElement", "Intertwiner", "wigner_entries", "clebsch_gordan", "epsilon",
    "invariant_vectors", "intertwiner_basis",
    "Leg", "LabeledTensor", "GroupFactor", "FactorNetwork", "contract", "haar_project",
    "mc_expectation",
    "InvalidNetworkError", "SegmentRegistry", "EmbeddedGraph", "Interval", "Circle",
    "GraphDecomposition", "Edge", "SpinNetwork", "network", "decompose", "common_refinement",
    "canonicalize",
    "HolonomyAssignment", "evaluate", "structural_zero", "exact_inner_product",
    "mc_inner_product",
    "Correspondence", "enumerate_correspondences", "transport", "averaged_inner_product",
    "averaged_gram",
    "ToleranceError", "BlipAlphabet", "CurveWord", "TasselState", "BumpCurve", "build_tassel",
    "build_phi", "swap_signs", "truncated_inner_product", "stabilized_inner_product",
    "observation_one", "observation_two", "emit_geometry", "write_curves_csv",
    "DocumentError", "network_from_document", "network_to_document", "holonomies_from_document",
    "read_network", "read_holonomies", "dumps_document",
    "__version__",
]

# None: the module declares no ``__all__``.
MODULE_ALL = {
    "rep_core": ["MAX_TWICE_J", "Spin", "GroupElement", "Intertwiner", "wigner_entries",
                 "clebsch_gordan", "epsilon", "invariant_vectors", "intertwiner_basis"],
    "tensor_engine": ["Leg", "LabeledTensor", "GroupFactor", "FactorNetwork", "contract",
                      "haar_project", "mc_expectation", "MC_CHUNK"],
    "network_model": None,
    "inner_product": None,
    "diffeo_average": None,
    "blipweb": ["ToleranceError", "BlipAlphabet", "CurveWord", "TasselState", "BumpCurve",
                "build_tassel", "build_phi", "swap_signs", "truncated_inner_product",
                "stabilized_inner_product", "observation_one", "observation_two", "junction",
                "bump", "blip_amplitude", "emit_geometry", "write_curves_csv"],
    "documents": ["DocumentError", "read_document", "network_from_document",
                  "network_to_document", "holonomies_from_document", "read_network",
                  "read_holonomies", "dumps_document"],
    "cli": ["main"],
}


def test_public_surface_is_pinned():
    assert spinnet.__all__ == PACKAGE_ALL
    assert len(PACKAGE_ALL) == 59
    assert all(hasattr(spinnet, name) for name in PACKAGE_ALL)
    modules = {m.name for m in pkgutil.iter_modules(spinnet.__path__)}
    assert modules == set(MODULE_ALL)
    for name, listed in MODULE_ALL.items():
        module = importlib.import_module(f"spinnet.{name}")
        assert getattr(module, "__all__", None) == listed, name
        assert all(hasattr(module, n) for n in listed or ()), name
    block, = _fenced_blocks("Quick start", "python")
    imported = {alias.name for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "spinnet"
                for alias in node.names}
    assert imported and imported <= set(PACKAGE_ALL)
