"""The five workloads: inputs from the seed, the timed job, and its checks.

`make_inputs` runs in the benchmark process.  `run_job` and `check_job` run
in a child that has imported quadsg; only `run_job` is timed.  Jobs call the
package's public API or `quadsg.cli.run(argv)` with its defaults, never a
thread count and never a name the ROADMAP plans to delete.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

import checks

WORKLOADS = ("certify", "mu_cold", "mu_warm", "search", "invariants")

MU_N = 20_000_000  # the mu_* table: 160 MB of int64, about 1.5x the 105 MB L3 measured here
SEARCH_A_MAX = 5000
SWEEP_A_MAX, SWEEP_B_MAX = 400, 10

CHECKS = {
    "certify": ("certify_exit_0", "certify_no_fail_line", "certify_final_k_of_k"),
    "mu_cold": ("mu_exit_0", "mu_value_matches_fixture"),
    "mu_warm": ("mu_exit_0", "mu_value_matches_fixture", "mu_warm_no_cache_warning"),
    "search": (
        "search_drop_pairs_are_papers_eight",
        "search_residue_pairs_are_papers_thirty",
        "search_drop_mu_rederived_by_oracle",
        "search_residue_mu_rederived_by_oracle",
    ),
    "invariants": (
        "invariants_exit_0",
        "invariants_header",
        "invariants_row_count_is_coprime_pairs",
        "invariants_s29_1_frobenius_345_genus_217",
        "invariants_certified_rows_inside_bounds",
        "invariants_frobenius_equals_oracle",
        "invariants_genus_equals_oracle",
        "invariants_apery_equals_oracle",
        "invariants_min_gens_equal_oracle",
    ),
}


def _coprime_a(lo: int, hi: int, b: int, rng: random.Random) -> int:
    """A seeded a in [lo, hi) coprime to b, moving up (cyclically) from a random start."""
    start = rng.randrange(lo, hi)
    for k in range(hi - lo):
        a = lo + (start - lo + k) % (hi - lo)
        if math.gcd(a, b) == 1:
            return a
    raise ValueError(f"no a in [{lo}, {hi}) is coprime to {b}")


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}-{seed}")
    if workload == "certify":
        return {"argv": ["certify", "--all"]}
    if workload == "mu_cold":
        n = rng.randint(MU_N * 9 // 10, MU_N)
        return {"argv": ["mu", "--n", str(n)], "n": n}
    if workload == "mu_warm":
        n = rng.randint(1, MU_N)
        return {"argv": ["mu", "--n", str(n)], "n": n}
    if workload == "search":
        return {"a_max": SEARCH_A_MAX}
    if workload == "invariants":
        # One a per stratum of width 25 in [200, 400), b cycling 1, 2, 3.
        small = [(_coprime_a(lo, lo + 25, 1 + k % 3, rng), 1 + k % 3) for k, lo in enumerate(range(200, 400, 25))]
        # One a per stratum of width 500 in [1000, 3000), b = 1.
        large = [(_coprime_a(lo, lo + 500, 1, rng), 1) for lo in range(1000, 3000, 500)]
        return sweep_inputs(SWEEP_A_MAX, SWEEP_B_MAX, small, large)
    raise ValueError(f"unknown workload {workload!r}")


def sweep_inputs(a_max: int, b_max: int, small, large) -> dict:
    argv = ["invariants", "--sweep", "--a-max", str(a_max), "--b-max", str(b_max)]
    return {"argv": argv, "a_max": a_max, "b_max": b_max, "small": small, "large": large}


def run_cli(argv: list[str]) -> dict:
    import quadsg.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = quadsg.cli.run(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_job(workload: str, inputs: dict):
    """The timed part: one job of the workload."""
    import quadsg as q

    if workload in ("certify", "mu_cold", "mu_warm"):
        return run_cli(inputs["argv"])
    if workload == "search":
        return {
            "drop": q.search_mu_drop(inputs["a_max"]),
            "residue": q.search_embedding_eq(inputs["a_max"]),
        }
    if workload == "invariants":
        out = run_cli(inputs["argv"])
        oracles = []
        for a, b in inputs["small"]:
            s = q.make_semigroup(a, b)
            oracles.append(
                {
                    "apery": q.apery_oracle(s).elements,
                    "frobenius": q.frobenius_oracle(s),
                    "genus": q.genus_oracle(s),
                    "min_gens": q.minimal_generators_oracle(s).indices,
                }
            )
        for a, b in inputs["large"]:
            s = q.make_semigroup(a, b)
            oracles.append(
                {"apery": q.apery_oracle(s).elements, "frobenius": q.frobenius_oracle(s), "genus": q.genus_oracle(s)}
            )
        out["oracles"] = oracles
        return out
    raise ValueError(f"unknown workload {workload!r}")


def check_job(workload: str, inputs: dict, result, expected=None) -> dict:
    """Untimed: named verdicts for one job's output, exactly the keys in CHECKS."""
    import quadsg as q

    if workload == "certify":
        return checks.check_certify(result["code"], result["stdout"])
    if workload in ("mu_cold", "mu_warm"):
        verdicts = checks.check_mu(result["code"], result["stdout"], expected)
        if workload == "mu_warm":
            verdicts["mu_warm_no_cache_warning"] = "ignoring mu cache" not in result["stderr"]
        return verdicts
    if workload == "search":
        drop = [(h.a, h.n, h.mu_n, h.mu_shifted) for h in result["drop"].hits]
        residue = [(h.a, h.n, h.residue, h.mu_residue) for h in result["residue"].hits]
        return checks.check_search(drop, residue, q.mu_oracle)
    if workload == "invariants":
        pairs = list(inputs["small"]) + list(inputs["large"])
        small, large = [], []
        for (a, b), oracle in zip(pairs, result["oracles"]):
            s = q.make_semigroup(a, b)
            closed = {"apery": q.apery_closed(s).elements}
            if "min_gens" in oracle:
                closed["min_gens"] = q.minimal_generators_closed(s).indices
                closed["dimension"] = q.embedding_dimension(a, b)
                small.append((a, b, oracle, closed))
            else:
                closed["frobenius"] = q.frobenius(s)
                closed["genus"] = q.genus(s)
                large.append((a, b, oracle, closed))
        return checks.check_invariants(
            result["code"], result["stdout"], inputs["a_max"], inputs["b_max"], small, large
        )
    raise ValueError(f"unknown workload {workload!r}")
