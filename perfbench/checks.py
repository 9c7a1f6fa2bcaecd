"""Output checks for the benchmark's jobs.

Every checker is a pure function of a job's plain-data output and returns a
dict of named verdicts, so a tampered output can be fed to it directly (see
selftest.py).  The expected values are the paper's own constants, copied
here rather than read from the package, and an exact recurrence for mu that
shares no code with `quadsg.mu`.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np

# The paper's eight exceptional (a, n) pairs of the drop search (a <= 485).
PAPER_DROP_PAIRS = (
    (29, 26), (45, 33), (47, 44), (50, 41), (55, 50), (67, 53), (73, 63), (79, 74),
)

# The paper's thirty strict (a, n) coincidences of the residue search (a <= 655).
PAPER_RESIDUE_PAIRS = (
    (10, 6), (13, 7), (19, 9), (22, 9), (26, 10), (34, 12), (40, 12), (43, 13),
    (53, 15), (58, 14), (61, 15), (64, 15), (66, 16), (70, 16), (78, 18), (82, 18),
    (83, 17), (90, 18), (97, 19), (104, 20), (106, 21), (107, 21), (118, 22),
    (142, 24), (181, 27), (184, 27), (190, 28), (193, 28), (226, 30), (236, 31),
)

# The (a, b) pairs whose Frobenius/genus bounds the paper does not certify.
UNCERTIFIED_PAIRS = frozenset((a, 1) for a, _ in PAPER_DROP_PAIRS)

SWEEP_HEADER = ["a", "b", "frobenius", "genus", "F_lo", "F_hi", "g_lo", "g_hi"]

# The CLI prints bounds to 9 significant digits.
_PRINTED_REL_TOL = 1e-8


def triangular(i):
    return i * (i - 1) // 2


def exact_mu(limit: int) -> np.ndarray:
    """mu(0..limit) by the plain unbounded-knapsack recurrence.

    Parts C(i,2) with weight i are added one index at a time over every
    index that fits, with no window and no probe, so it shares nothing with
    the table fill it checks.
    """
    big = np.iinfo(np.int64).max // 2
    dp = np.full(limit + 1, big, dtype=np.int64)
    dp[0] = 0
    i = 2
    while triangular(i) <= limit:
        t = triangular(i)
        # Ascending blocks of width t: each block reads the block below it,
        # already updated, so parts may repeat.
        for start in range(t, limit + 1, t):
            stop = min(start + t, limit + 1)
            np.minimum(dp[start:stop], dp[start - t : stop - t] + i, out=dp[start:stop])
        i += 1
    return dp


def _inverse_triangular(x):
    return (1.0 + np.sqrt(8.0 * x + 1.0)) / 2.0


def envelope(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised (lower, min(gauss, combined)) for n >= 1."""
    n = n.astype(np.float64)
    low = _inverse_triangular(n)
    gauss = 3.0 * _inverse_triangular(n / 3.0)
    combined = low + 3.0 * _inverse_triangular((low - 2.0) / 3.0)
    return low, np.minimum(gauss, combined)


def envelope_violations(values: np.ndarray, chunk: int = 1 << 21) -> int:
    """Count n >= 1 with mu(n) outside [lower, min(gauss, combined)]."""
    bad = 0
    for lo in range(1, len(values), chunk):
        hi = min(lo + chunk, len(values))
        low, high = envelope(np.arange(lo, hi))
        m = values[lo:hi]
        bad += int(np.count_nonzero((m < low - 1e-9) | (m > high + 1e-9)))
    return bad


def check_fixture(values, oracle_sample, mu_oracle, library_bounds) -> dict:
    """Checks on a reference mu table.

    `oracle_sample` are the n re-derived by `mu_oracle`; `library_bounds` is
    (lower_bound, gauss_bound, combined_bound) from the package, compared with
    the vectorised formulas at those n so the two cannot drift apart.
    """
    n_max = len(values) - 1
    exact = exact_mu(min(10_000, n_max))
    top = int((1 + math.isqrt(8 * n_max + 1)) // 2)
    while triangular(top) > n_max:
        top -= 1
    idx = np.arange(2, top + 1, dtype=np.int64)
    lower_bound, gauss_bound, combined_bound = library_bounds
    probe = np.array([n for n in oracle_sample if n >= 1] + [n_max], dtype=np.int64)
    low, high = envelope(probe)
    lib_high = [min(gauss_bound(int(n)), combined_bound(int(n))) for n in probe]
    lib_low = [lower_bound(int(n)) for n in probe]
    return {
        "fixture_matches_recurrence_to_10000": bool(np.array_equal(values[: len(exact)], exact)),
        "fixture_matches_mu_oracle_sample": all(int(values[n]) == mu_oracle(n) for n in oracle_sample),
        "fixture_exact_at_triangular_numbers": bool(np.array_equal(values[idx * (idx - 1) // 2], idx)),
        "fixture_inside_envelope": envelope_violations(values) == 0,
        "envelope_formulas_match_library": bool(
            np.allclose(low, lib_low, rtol=1e-12, atol=0)
            and np.allclose(high, lib_high, rtol=1e-12, atol=0)
        ),
    }


def check_certify(code: int, stdout: str) -> dict:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    final = re.fullmatch(r"certified (\d+)/(\d+) checks", lines[-1]) if lines else None
    return {
        "certify_exit_0": code == 0,
        "certify_no_fail_line": not any(ln.startswith("FAIL") for ln in lines),
        "certify_final_k_of_k": bool(final) and final.group(1) == final.group(2) and int(final.group(2)) > 0,
    }


def check_mu(code: int, stdout: str, expected: int) -> dict:
    return {"mu_exit_0": code == 0, "mu_value_matches_fixture": stdout.strip() == str(expected)}


def check_search(drop_hits, residue_hits, mu_oracle) -> dict:
    """`drop_hits`: (a, n, mu_n, mu_shifted); `residue_hits`: (a, n, residue, mu_residue)."""
    return {
        "search_drop_pairs_are_papers_eight": tuple((a, n) for a, n, _, _ in drop_hits) == PAPER_DROP_PAIRS,
        "search_residue_pairs_are_papers_thirty": tuple((a, n) for a, n, _, _ in residue_hits)
        == PAPER_RESIDUE_PAIRS,
        "search_drop_mu_rederived_by_oracle": all(
            mu_oracle(n) == mu_n and mu_oracle(n + a) == mu_shifted and 2 <= mu_n - mu_shifted <= 4
            for a, n, mu_n, mu_shifted in drop_hits
        ),
        "search_residue_mu_rederived_by_oracle": all(
            residue == triangular(n) % a and mu_oracle(residue) == mu_residue == n + 1
            for a, n, residue, mu_residue in residue_hits
        ),
    }


def coprime_pairs(a_max: int, b_max: int) -> int:
    return sum(1 for a in range(2, a_max + 1) for b in range(1, b_max + 1) if math.gcd(a, b) == 1)


def _within(lo: float, x: int, hi: float) -> bool:
    slack = _PRINTED_REL_TOL * max(1.0, abs(x))
    return lo - slack <= x <= hi + slack


def check_invariants(code, csv_text, a_max, b_max, small, large) -> dict:
    """Sweep CSV plus the oracle cross-check.

    `small` rows: (a, b, oracle dict, closed dict) with keys apery, frobenius,
    genus, min_gens and, in closed, dimension; `large` rows the same without
    the generator keys.  Closed Frobenius/genus of `small` pairs come from the
    sweep itself.
    """
    rows = list(csv.reader(io.StringIO(csv_text)))
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    table = {}
    for r in body:
        if len(r) == len(SWEEP_HEADER):
            table[(int(r[0]), int(r[1]))] = (int(r[2]), int(r[3]), *map(float, r[4:]))
    certified_ok = all(
        _within(f_lo, f, f_hi) and _within(g_lo, g, g_hi)
        for (a, b), (f, g, f_lo, f_hi, g_lo, g_hi) in table.items()
        if (a, b) not in UNCERTIFIED_PAIRS
    )

    def sweep_value(a, b, k):
        row = table.get((a, b))
        return None if row is None else row[k]

    return {
        "invariants_exit_0": code == 0,
        "invariants_header": header == SWEEP_HEADER,
        "invariants_row_count_is_coprime_pairs": len(body) == len(table) == coprime_pairs(a_max, b_max),
        "invariants_s29_1_frobenius_345_genus_217": table.get((29, 1), (None, None))[:2] == (345, 217),
        "invariants_certified_rows_inside_bounds": certified_ok,
        "invariants_frobenius_equals_oracle": all(
            sweep_value(a, b, 0) == o["frobenius"] for a, b, o, _ in small
        )
        and all(c["frobenius"] == o["frobenius"] for _, _, o, c in large),
        "invariants_genus_equals_oracle": all(sweep_value(a, b, 1) == o["genus"] for a, b, o, _ in small)
        and all(c["genus"] == o["genus"] for _, _, o, c in large),
        "invariants_apery_equals_oracle": all(
            list(c["apery"]) == list(o["apery"]) for _, _, o, c in small + large
        ),
        "invariants_min_gens_equal_oracle": all(
            list(c["min_gens"]) == list(o["min_gens"]) and len(o["min_gens"]) == c["dimension"]
            for _, _, o, c in small
        ),
    }
