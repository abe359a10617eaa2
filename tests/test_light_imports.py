"""The package and every graph command start without numpy.

Each numpy check runs in a fresh interpreter, because this test process
has long since loaded numpy through the other test modules.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import matstrata

SRC = str(Path(matstrata.__file__).resolve().parent.parent)

# the package's exports, frozen: 74 names from the submodules plus the 8 submodules
EXPORTS = [
    "AddCol", "Block", "BundleType", "CatalogError", "ClosureGraph", "CompactParseError",
    "CongruenceForm", "DeformationTemplate", "EigLabel", "JordanType",
    "NumericalAmbiguityError", "OperatorMatrix", "ParametricGraph", "Partition",
    "PerturbReport", "ReductionError", "ReductionResult", "Scale", "SizeMismatchError",
    "SpectraOverlapError", "StarForm", "StrataError", "Swap", "action_operator",
    "apply_elementary", "build_bundle_graph", "build_class_graph", "bundle_dim",
    "bundle_down_moves", "bundle_types", "canonical_bundle_labeling", "canonical_matrix",
    "classify_congruence", "closure_leq", "congruence", "congruence_codim_numeric",
    "congruence_graph", "congruence_template", "conjugate_partition", "eigen_clusters",
    "errors", "find_arrow_witness", "form_to_json_doc", "format_compact", "format_display",
    "graph_to_dot", "graph_to_json_doc", "graphs", "has_arrow", "jordan_matrix",
    "miniversal_template", "normalize_form", "numeric_jordan_type", "numeric_weyr",
    "orbit_codim", "orbit_dim", "parametric_to_dot", "parametric_to_json_doc",
    "parse_compact", "partitions", "path_exists", "pattern_check", "perturb",
    "random_survey", "reachable", "real_param_count", "reduce_single_eigenvalue",
    "reduce_to_miniversal", "reduction", "similarity_codim_numeric", "split_by_eigenvalue",
    "star_congruence_codim_numeric", "star_count", "star_graph_2x2", "star_template",
    "structure", "sylvester_solve", "tangent", "template_ascii", "template_to_json_doc",
    "templates", "weyr_of",
]


def loads_numpy(code: str) -> bool:
    probe = code + "\nimport sys\nprint('numpy' in sys.modules)\n"
    res = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize(
    "code",
    [
        "import matstrata",
        "import matstrata.cli",
        "from matstrata import cli\nassert cli.run(['graph', 'bundle', '--n', '4']) == 0",
        "from matstrata import cli\n"
        "assert cli.run(['graph', 'sim', '--n', '4', '--nilpotent', '--format', 'dot']) == 0",
        "from matstrata import cli\n"
        "assert cli.run(['graph', 'congr', '--n', '3', '--kind', 'bundles', '--format', 'dot']) == 0",
        "from matstrata import cli\nassert cli.run(['graph', 'star', '--n', '2']) == 0",
    ],
    ids=["package", "cli", "graph-bundle", "graph-sim-dot", "graph-congr-dot", "graph-star"],
)
def test_light_path_skips_numpy(code):
    assert not loads_numpy(code)


def test_numeric_command_loads_numpy():
    # the probe itself can see numpy, so the light-path checks above can fail
    code = "from matstrata import cli\nassert cli.run(['template', 'sim', '--jordan', '(0)^2']) == 0"
    assert loads_numpy(code)


class TestLazyExports:
    def test_exported_names_frozen(self):
        assert len(EXPORTS) == 82
        assert sorted(matstrata.__all__) == EXPORTS

    def test_names_resolve_to_submodule_objects(self):
        for name in EXPORTS:
            obj = getattr(matstrata, name)
            if isinstance(obj, types.ModuleType):
                assert obj is sys.modules[f"matstrata.{name}"]
            else:
                assert obj.__module__.startswith("matstrata.")
                assert getattr(sys.modules[obj.__module__], name) is obj

    def test_dir_lists_exports(self):
        assert set(EXPORTS) <= set(dir(matstrata))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError):
            matstrata.no_such_name
        with pytest.raises(ImportError):
            from matstrata import no_such_name  # noqa: F401

    def test_names_are_not_cached_in_the_package(self):
        original = matstrata.perturb.random_survey
        try:
            matstrata.perturb.random_survey = marker = object()
            assert matstrata.random_survey is marker
        finally:
            matstrata.perturb.random_survey = original
        assert matstrata.random_survey is original
