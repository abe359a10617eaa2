"""The package and every graph command start without numpy or dataclasses.

Each import check runs in a fresh interpreter, because this test process
has long since loaded numpy, dataclasses and inspect through pytest and
the other test modules.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import matstrata

SRC = str(Path(matstrata.__file__).resolve().parent.parent)

# the package's exports, frozen: 67 names from the submodules plus the 9 submodules
EXPORTS = [
    "Block", "BundleType", "CatalogError", "ClosureGraph", "CompactParseError",
    "CongruenceForm", "DeformationTemplate", "EigLabel", "JordanType",
    "NumericalAmbiguityError", "ParametricGraph", "Partition",
    "PerturbReport", "ReductionError", "ReductionResult", "SizeMismatchError",
    "SpectraOverlapError", "StarForm", "StrataError", "action_operator",
    "build_bundle_graph", "build_class_graph", "bundle_dim", "bundle_down_moves",
    "bundle_types", "canonical_bundle_labeling", "canonical_matrix",
    "classify_congruence", "closure_leq", "congruence", "congruence_codim_numeric",
    "congruence_graph", "congruence_template", "conjugate_partition", "eigen_clusters",
    "errors", "find_arrow_witness", "form_to_json_doc", "format_compact",
    "format_display", "graph_to_dot", "graph_to_json_doc", "graphs", "has_arrow",
    "jordan_matrix", "miniversal_template", "normalize_form", "numeric_jordan_type",
    "numeric_weyr", "orbit_codim", "orbit_dim", "parametric", "parametric_to_dot",
    "parametric_to_json_doc", "parse_compact", "partitions", "path_exists",
    "pattern_check", "perturb", "random_survey", "reachable", "real_param_count",
    "reduce_to_miniversal", "reduction", "similarity_codim_numeric",
    "star_congruence_codim_numeric", "star_count", "star_graph_2x2", "star_template",
    "structure", "sylvester_solve", "tangent", "template_ascii", "template_to_json_doc",
    "templates", "weyr_of",
]


def loads(module: str, code: str) -> bool:
    """Whether running ``code`` in a fresh interpreter imports ``module``."""
    probe = code + f"\nimport sys\nprint({module!r} in sys.modules)\n"
    res = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1] == "True"


light_paths = pytest.mark.parametrize(
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


@light_paths
def test_light_path_skips_numpy(code):
    assert not loads("numpy", code)


@light_paths
@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
def test_light_path_skips_dataclasses_and_inspect(code, module):
    assert not loads(module, code)


@pytest.mark.parametrize(
    "code",
    [
        "import matstrata.cli",
        "from matstrata import cli\nassert cli.run(['graph', 'bundle', '--n', '4']) == 0",
        "from matstrata import cli\nassert cli.run(['graph', 'sim', '--n', '4', '--format', 'dot']) == 0",
        "from matstrata import cli\n"
        "assert cli.run(['survey', '--jordan', '(0)^2', '--eps', '1e-3', '--trials', '5', '--seed', '1']) == 0",
    ],
    ids=["cli", "graph-bundle", "graph-sim-dot", "survey"],
)
def test_similarity_path_skips_parametric_graphs(code):
    assert not loads("matstrata.parametric", code)


@pytest.mark.parametrize(
    "code",
    [
        "from matstrata import cli\nassert cli.run(['graph', 'congr', '--n', '2']) == 0",
        "from matstrata import cli\nassert cli.run(['graph', 'star', '--n', '2', '--format', 'dot']) == 0",
    ],
    ids=["graph-congr", "graph-star-dot"],
)
def test_parametric_graph_commands_load_them(code):
    assert loads("matstrata.parametric", code)


TEMPLATE_SIM = "from matstrata import cli\nassert cli.run(['template', 'sim', '--jordan', '(0)^2']) == 0"


def test_not_a_number_rule_skips_numpy():
    # numpy's bool is refused through sys.modules, so the rule itself loads no numpy
    assert not loads("numpy", "from matstrata.structure import EigLabel, not_a_number\n"
                     "assert not_a_number(True) and not not_a_number(2) and EigLabel.concrete(2).value == 2")


def test_numeric_command_loads_numpy():
    # the probe itself can see numpy, so the light-path checks above can fail
    assert loads("numpy", TEMPLATE_SIM)


def test_numeric_command_skips_dataclasses():
    # numpy imports inspect itself, but nothing on this path needs dataclasses
    assert not loads("dataclasses", TEMPLATE_SIM)


class TestLazyExports:
    def test_exported_names_frozen(self):
        assert len(EXPORTS) == 76
        assert sorted(matstrata.__all__) == EXPORTS

    def test_names_resolve_to_submodule_objects(self):
        for name in EXPORTS:
            obj = getattr(matstrata, name)
            if isinstance(obj, types.ModuleType):
                assert obj is sys.modules[f"matstrata.{name}"]
            else:
                assert obj.__module__.startswith("matstrata.")
                assert getattr(sys.modules[obj.__module__], name) is obj

    def test_submodule_resolves_in_process(self, monkeypatch):
        # without the attribute the import system set, the package's own
        # lookup finds the loaded submodule
        monkeypatch.delattr(matstrata, "graphs")
        assert matstrata.graphs is sys.modules["matstrata.graphs"]

    def test_dir_lists_exports(self):
        assert set(EXPORTS) <= set(dir(matstrata))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError):
            matstrata.no_such_name
        with pytest.raises(ImportError):
            from matstrata import no_such_name  # noqa: F401

    def test_unknown_name_is_named(self):
        # neither an export nor a submodule: __getattr__ raises rather than returning None
        with pytest.raises(AttributeError, match="^module 'matstrata' has no attribute 'nope'$"):
            matstrata.nope

    def test_names_are_not_cached_in_the_package(self):
        original = matstrata.perturb.random_survey
        try:
            matstrata.perturb.random_survey = marker = object()
            assert matstrata.random_survey is marker
        finally:
            matstrata.perturb.random_survey = original
        assert matstrata.random_survey is original
