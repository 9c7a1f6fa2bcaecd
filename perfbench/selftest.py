"""Self-test of the output checks: tampered outputs must register as failures.

Each case runs a checker on a real (small) output, which must pass, and on a
tampered copy, which must fail.  run.py calls `run()` before every
measurement; it can also be run alone from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import os
import sys

import checks
import jobs

_CERTIFY_OK = "PASS anchors\nINFO extras: 3\nPASS drop search\ncertified 2/2 checks\n"


def _cases():
    """Yield (case name, verdicts of the real output, verdicts of a tampered one)."""
    import quadsg as q

    yield (
        "certify: a FAIL line",
        jobs.check_job("certify", {}, {"code": 0, "stdout": _CERTIFY_OK}),
        jobs.check_job("certify", {}, {"code": 2, "stdout": _CERTIFY_OK.replace("PASS drop", "FAIL drop")}),
    )
    yield (
        "certify: no final tally",
        jobs.check_job("certify", {}, {"code": 0, "stdout": _CERTIFY_OK}),
        jobs.check_job("certify", {}, {"code": 0, "stdout": _CERTIFY_OK.rsplit("certified", 1)[0]}),
    )

    good = {"code": 0, "stdout": "13\n", "stderr": ""}
    yield (
        "mu: a corrupted printed value",
        jobs.check_job("mu_cold", {}, good, expected=13),
        jobs.check_job("mu_cold", {}, dict(good, stdout="12\n"), expected=13),
    )
    yield (
        "mu_warm: a cache rebuild warning",
        jobs.check_job("mu_warm", {}, good, expected=13),
        jobs.check_job("mu_warm", {}, dict(good, stderr="warning: ignoring mu cache at x: bad\n"), expected=13),
    )

    table = q.MuTable(12_000).values.copy()
    bounds = (q.lower_bound, q.gauss_bound, q.combined_bound)
    sample = [26, 100, 250]
    corrupted = table.copy()
    corrupted[9999] -= 1  # an interior entry that no spot check at triangular positions sees
    yield (
        "fixture: a corrupted interior mu value",
        checks.check_fixture(table, sample, q.mu_oracle, bounds),
        checks.check_fixture(corrupted, sample, q.mu_oracle, bounds),
    )

    search = jobs.run_job("search", {"a_max": 655})
    drop, residue = search["drop"], search["residue"]
    hit = drop.hits[3]
    bad_hit = dataclasses.replace(hit, mu_n=hit.mu_n + 1, mu_shifted=hit.mu_shifted + 1)
    yield (
        "search: a dropped pair",
        jobs.check_job("search", {}, search),
        jobs.check_job("search", {}, dict(search, residue=dataclasses.replace(residue, hits=residue.hits[1:]))),
    )
    yield (
        "search: a corrupted mu value",
        jobs.check_job("search", {}, search),
        jobs.check_job(
            "search", {}, dict(search, drop=dataclasses.replace(drop, hits=drop.hits[:3] + (bad_hit,) + drop.hits[4:]))
        ),
    )

    inputs = jobs.sweep_inputs(30, 3, [(23, 2)], [(31, 1)])
    result = jobs.run_job("invariants", inputs)
    yield (
        "invariants: a corrupted Frobenius number",
        jobs.check_job("invariants", inputs, result),
        jobs.check_job("invariants", inputs, dict(result, stdout=result["stdout"].replace("29,1,345,", "29,1,344,"))),
    )
    lines = result["stdout"].splitlines(keepends=True)
    yield (
        "invariants: a dropped row",
        jobs.check_job("invariants", inputs, result),
        jobs.check_job("invariants", inputs, dict(result, stdout="".join(lines[:5] + lines[6:]))),
    )
    oracle = dict(result["oracles"][0], genus=result["oracles"][0]["genus"] + 1)
    yield (
        "invariants: an oracle disagreeing with the closed form",
        jobs.check_job("invariants", inputs, result),
        jobs.check_job("invariants", inputs, dict(result, oracles=[oracle] + result["oracles"][1:])),
    )


def run() -> list[str]:
    """Problems found; empty when every real output passes and every tampered one fails."""
    problems = []
    for name, real, tampered in _cases():
        if not all(real.values()):
            problems.append(f"{name}: real output fails {[k for k, ok in real.items() if not ok]}")
        if all(tampered.values()):
            problems.append(f"{name}: tampered output passes")
    return problems


if __name__ == "__main__":
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    found = run()
    for line in found:
        print(line)
    print(f"selftest: {'FAIL' if found else 'ok'}")
    sys.exit(1 if found else 0)
