"""Perturbation stratification of square complex matrices.

Closure graphs for similarity classes and bundles, miniversal deformation
templates, tangent-space codimensions under similarity / congruence /
*congruence, a constructive reduction engine, and an empirical
perturbation lab that validates the graphs.

Names are exported lazily (PEP 562): ``import matstrata`` loads no
submodule, and ``matstrata.<name>`` imports the submodule that defines the
name on first use.  Structure and closure-graph work therefore never loads numpy.
Each access looks the name up in its submodule again, so a function
replaced there is what the package hands out.
"""

import importlib

_EXPORTS = {
    "errors": (
        "CatalogError", "CompactParseError", "NumericalAmbiguityError",
        "ReductionError", "SizeMismatchError", "SpectraOverlapError", "StrataError",
    ),
    "structure": (
        "BundleType", "EigLabel", "JordanType", "Partition", "bundle_dim",
        "bundle_types", "canonical_bundle_labeling", "conjugate_partition",
        "format_compact", "format_display", "orbit_codim", "orbit_dim", "parse_compact",
        "partitions", "weyr_of",
    ),
    "graphs": (
        "ClosureGraph", "build_bundle_graph", "build_class_graph", "bundle_down_moves",
        "closure_leq", "graph_to_dot", "graph_to_json_doc", "reachable",
    ),
    "parametric": (
        "ParametricGraph", "congruence_graph", "has_arrow", "parametric_to_dot",
        "parametric_to_json_doc", "path_exists", "star_graph_2x2",
    ),
    "tangent": (
        "OperatorMatrix", "action_operator", "congruence_codim_numeric",
        "similarity_codim_numeric", "star_congruence_codim_numeric",
    ),
    "templates": (
        "DeformationTemplate", "jordan_matrix", "miniversal_template", "pattern_check",
        "real_param_count", "star_count", "template_ascii", "template_to_json_doc",
    ),
    "reduction": ("ReductionResult", "reduce_to_miniversal", "sylvester_solve"),
    "congruence": (
        "Block", "CongruenceForm", "StarForm", "canonical_matrix", "classify_congruence",
        "congruence_template", "form_to_json_doc", "normalize_form", "star_template",
    ),
    "perturb": (
        "PerturbReport", "eigen_clusters", "find_arrow_witness", "numeric_jordan_type",
        "numeric_weyr", "random_survey",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name):
    module = _OWNER.get(name)
    if module is not None:
        return getattr(importlib.import_module(f".{module}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
