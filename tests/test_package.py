"""The package's public names."""

import importlib

import quadsg as q

PUBLIC_NAMES = {
    "AperySet",
    "BoundProfile",
    "Certificate",
    "DropHit",
    "EMBED_DECOMPOSITIONS",
    "EXCEPTIONAL_CASES",
    "EXCEPTIONAL_PAIRS",
    "EXPECTED_DROP_PAIRS",
    "EXPECTED_RESIDUE_PAIRS",
    "EXTRA_INDEX_ROWS",
    "ExceptionalCase",
    "GAnalysis",
    "InvariantSummary",
    "MinimalGeneratorSet",
    "MuTable",
    "NotANumericalSemigroup",
    "ORACLE_LIMIT",
    "QuadraticSemigroup",
    "ResidueHit",
    "SearchReport",
    "TABLE_LIMIT",
    "adopt_shared_table",
    "apery_closed",
    "apery_oracle",
    "bound_profiles",
    "bounds_certified",
    "combined_bound",
    "contains",
    "decomposition_certificates",
    "describe",
    "embedding_dimension",
    "exception_certificates",
    "frobenius",
    "frobenius_bounds",
    "frobenius_oracle",
    "g_analysis",
    "g_local_max",
    "g_of",
    "g_solve",
    "gauss_bound",
    "generator",
    "genus",
    "genus_bounds",
    "genus_oracle",
    "invariant_summary",
    "inverse_triangular",
    "largest_index",
    "lift_contains",
    "load_table",
    "lower_bound",
    "make_semigroup",
    "minimal_generators_closed",
    "minimal_generators_oracle",
    "mu",
    "mu_ab_closed",
    "mu_ab_oracle",
    "mu_ab_shift",
    "mu_oracle",
    "project",
    "require_nontrivial",
    "save_table",
    "search_embedding_eq",
    "search_mu_drop",
    "shared_table",
    "triangular",
    "verify_decomposition",
}


def test_public_names():
    assert len(q.__all__) == len(set(q.__all__))
    assert set(q.__all__) == PUBLIC_NAMES


def test_mu_is_the_function_not_the_module():
    # The submodule quadsg.mu shares its name with the function mu.
    assert callable(q.mu)
    assert q.mu(26) == 13
    assert importlib.import_module("quadsg.mu").mu is q.mu
