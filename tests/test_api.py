"""The package's public surface: the names `import localdense` exports."""

import importlib
import inspect

import pytest

import localdense

API = [
    "BipartiteGraph",
    "Certificate",
    "DensityResult",
    "DomainError",
    "EigenEstimate",
    "EmptyGraph",
    "EmptySide",
    "GoodSeedReport",
    "GrowthTrace",
    "LEFT",
    "LevelVector",
    "LocalDenseError",
    "NegativeWeight",
    "NoCandidate",
    "ParseError",
    "PreconditionFailed",
    "RIGHT",
    "ScanOutcome",
    "SeedFailure",
    "SideViolation",
    "StepRecord",
    "Subgraph",
    "TooLarge",
    "UnknownVertex",
    "build_bipartite",
    "density",
    "edge_weight_between",
    "exact_densest",
    "from_directed",
    "generate_planted",
    "global_density",
    "global_guarantee_bound",
    "good_seed_set",
    "load_edge_list",
    "local_density",
    "local_guarantee_bound",
    "ratio_density",
    "restrict",
    "result_record",
    "save_edge_list",
    "seed_scan",
    "top_eigenvalue",
    "trace_records",
    "write_records",
]

# engine names that live in their modules only
ENGINE = {
    "localdense.growth": ["ProcessOutcome", "run_pruned_growth"],
    "localdense.local": ["LocalSchedule"],
    "localdense.globalopt": ["GlobalSchedule"],
}


def test_public_surface_is_pinned():
    assert sorted(localdense.__all__) == API
    for name in API:
        assert getattr(localdense, name) is not None


@pytest.mark.parametrize("module", sorted(ENGINE))
def test_engine_names_import_from_their_modules(module):
    mod = importlib.import_module(module)
    for name in ENGINE[module]:
        assert name in mod.__all__
        assert callable(getattr(mod, name))
        assert not hasattr(localdense, name)


def test_deleted_names_are_gone():
    from localdense import graph, growth, io, verify

    for mod, name in (
        (graph, "degree_stats"),
        (graph, "GraphStats"),
        (io, "parse_records"),
    ):
        assert not hasattr(mod, name)
        assert not hasattr(localdense, name)
    # a trace is named by the run that keeps it, not by the growth engine
    params = inspect.signature(growth.run_pruned_growth).parameters
    assert list(params) == ["g", "starts", "epsilons", "keep_trace"]
    # options no caller set: traces come from local_density, and verify
    # grows from the first eight left vertices
    assert "keep_trace" not in inspect.signature(localdense.seed_scan).parameters
    assert "seed_count" not in inspect.signature(verify.run_verification).parameters
