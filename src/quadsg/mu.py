"""Minimum index-weight of partitions into triangular numbers.

A partition of n into parts C(i,2) = i(i-1)/2 with part indices i >= 2
is scored by the sum of its indices (with multiplicity).  mu(n) is the
least score over all such partitions; every n >= 0 has one because
C(2,2) = 1.  Values satisfy

    mu(0) = 0,
    mu(n) = min(mu(n - C(i,2)) + i  for i >= 2 with C(i,2) <= n).

Allowing i = 1 would add the useless option mu(n) + 1 and is skipped.

The module provides a growable bottom-up table (`MuTable`), a recursion-free
exhaustive-search oracle (`mu_oracle`), the analytic envelope around mu
(`lower_bound`, `gauss_bound`, `combined_bound`), and a binary on-disk cache
for the table.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ORACLE_LIMIT",
    "TABLE_LIMIT",
    "BoundProfile",
    "MuTable",
    "adopt_shared_table",
    "bound_profiles",
    "combined_bound",
    "gauss_bound",
    "inverse_triangular",
    "largest_index",
    "load_table",
    "lower_bound",
    "mu",
    "mu_oracle",
    "save_table",
    "shared_table",
    "triangular",
]

ORACLE_LIMIT = 10_000

# Largest n a MuTable grows to: 10**8 entries of int64 is 800 MB.
TABLE_LIMIT = 10**8

_CACHE_MAGIC = b"QSMU"
_CACHE_VERSION = 2
_CACHE_HEADER = 4 + 1 + 8 + 4

# Below this the table is filled one entry at a time; past it, in blocks of
# consecutive n sharing the same largest part index.
_SCALAR_REGION_END = 100 * 99 // 2


def triangular(i: int) -> int:
    """Return C(i,2) = i(i-1)/2, exactly."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    return i * (i - 1) // 2


def inverse_triangular(x: float) -> float:
    """Real inverse of i -> i(i-1)/2 on i >= 1: (1 + sqrt(8x+1))/2."""
    if x < 0:
        raise ValueError("argument must be nonnegative")
    return (1.0 + math.sqrt(8.0 * x + 1.0)) / 2.0


def largest_index(n: int) -> int:
    """Largest integer i with triangular(i) <= n, for n >= 0.

    Integer arithmetic throughout; the isqrt seed is corrected by at most
    one step in each direction.
    """
    if n < 0:
        raise ValueError("argument must be nonnegative")
    i = (1 + math.isqrt(8 * n + 1)) // 2
    while triangular(i + 1) <= n:
        i += 1
    while triangular(i) > n:
        i -= 1
    return i


class MuTable:
    """Bottom-up table of mu values on 0..n_max, growable in place.

    Only `ensure` writes; `values` exposes a read-only view.

    The fill restricts the recursion to a window of part indices.  Any
    partition counted by mu uses parts C(i,2) <= i(k-1)/2 when every index
    is at most k, so n <= mu(n)(k-1)/2 and the largest index of an optimal
    partition is at least 1 + 2n/U for any upper bound U >= mu(n).  Removing
    that largest part shows the windowed recursion stays exact.  U comes
    from a single probe of the recursion (drop one largest-fitting part),
    never from the analytic bounds, which keeps those independently
    testable.
    """

    def __init__(self, n_max: int = 0):
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        self._values = np.zeros(1, dtype=np.int64)
        self._n_max = 0
        if n_max > 0:
            self.ensure(n_max)

    @property
    def n_max(self) -> int:
        return self._n_max

    @property
    def values(self) -> np.ndarray:
        """Read-only int64 view of mu(0..n_max)."""
        view = self._values[: self._n_max + 1].view()
        view.flags.writeable = False
        return view

    def __getitem__(self, n: int) -> int:
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n > self._n_max:
            raise IndexError(f"table holds 0..{self._n_max}, asked for {n}")
        return int(self._values[n])

    def ensure(self, n_max: int) -> "MuTable":
        """Grow the table to cover 0..n_max; values already present are kept.

        Raises ValueError, before allocating, past TABLE_LIMIT.
        """
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        if n_max <= self._n_max:
            return self
        if n_max > TABLE_LIMIT:
            raise ValueError(f"mu table is limited to n <= {TABLE_LIMIT}, asked for {n_max}")
        # Doubling keeps repeated one-step extensions linear overall while
        # a fresh table gets exactly the size asked for.
        target = max(n_max, min(2 * self._n_max, TABLE_LIMIT))
        if target + 1 > len(self._values):
            grown = np.zeros(target + 1, dtype=np.int64)
            grown[: self._n_max + 1] = self._values[: self._n_max + 1]
            self._values = grown
        self._fill(self._n_max + 1, target)
        self._n_max = target
        return self

    def _scalar_value(self, n: int) -> int:
        # n >= 1, everything below n already filled.
        dp = self._values
        k_max = largest_index(n)
        ub = int(dp[n - triangular(k_max)]) + k_max
        k_min = max(2, 1 + -(-(2 * n) // ub))
        best = ub
        for i in range(k_min, k_max + 1):
            v = int(dp[n - triangular(i)]) + i
            if v < best:
                best = v
        return best

    def _fill(self, lo: int, hi: int) -> None:
        dp = self._values
        n = lo
        scalar_end = min(hi, _SCALAR_REGION_END)
        while n <= scalar_end:
            dp[n] = self._scalar_value(n)
            n += 1
        while n <= hi:
            j = largest_index(n)
            blk_lo = n
            blk_hi = min(triangular(j + 1) - 1, hi)
            rest_hi = blk_hi - triangular(j)
            ub = int(dp[: rest_hi + 1].max()) + j
            k_min = max(2, 1 + -(-(2 * blk_lo) // ub))
            if triangular(k_min) <= blk_hi - blk_lo:
                # Window reaches back into the block itself; rare and only
                # for narrow leftover blocks, handled entrywise.
                for m in range(blk_lo, blk_hi + 1):
                    dp[m] = self._scalar_value(m)
            else:
                t0 = triangular(k_min)
                block = dp[blk_lo - t0 : blk_hi - t0 + 1] + k_min
                for i in range(k_min + 1, j + 1):
                    t = triangular(i)
                    np.minimum(block, dp[blk_lo - t : blk_hi - t + 1] + i, out=block)
                dp[blk_lo : blk_hi + 1] = block
            n = blk_hi + 1

    @classmethod
    def _from_values(cls, values: np.ndarray) -> "MuTable":
        table = cls()
        table._values = np.ascontiguousarray(values, dtype=np.int64)
        table._n_max = len(values) - 1
        return table


_shared = MuTable()


def shared_table() -> MuTable:
    """Process-wide table used by callers that do not pass their own."""
    return _shared


def adopt_shared_table(table: MuTable) -> MuTable:
    """Install `table` as the process-wide default if it covers more."""
    global _shared
    if table.n_max > _shared.n_max:
        _shared = table
    return _shared


def mu(n: int, table: MuTable | None = None) -> int:
    """mu(n), extending the given table (or the shared one) on demand."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    t = _shared if table is None else table
    t.ensure(n)
    return t[n]


def mu_oracle(n: int) -> int:
    """Minimum score by exhaustive search over non-increasing part lists.

    Independent of the table recursion: enumerates every multiset of part
    indices (largest part first) whose triangular values sum to n, cutting
    a branch only when its score cannot beat the best complete partition
    found so far.  Refuses n past ORACLE_LIMIT.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ORACLE_LIMIT:
        raise ValueError(f"oracle is limited to n <= {ORACLE_LIMIT}")
    if n == 0:
        return 0
    best: float | int = math.inf

    def dfs(remaining: int, cap: int, score: int) -> None:
        nonlocal best
        if remaining == 0:
            if score < best:
                best = score
            return
        if score + 2 >= best:
            return  # any completion adds at least one index >= 2
        for i in range(min(cap, largest_index(remaining)), 1, -1):
            dfs(remaining - triangular(i), i, score + i)

    dfs(n, largest_index(n), 0)
    return int(best)


def lower_bound(n: int) -> float:
    """Envelope floor: inverse_triangular(n).  Defined for n >= 1."""
    if n < 1:
        raise ValueError("lower bound needs n >= 1")
    return inverse_triangular(n)


def gauss_bound(n: int) -> float:
    """Envelope ceiling from three-triangular decompositions: 3*inverse_triangular(n/3)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return 3.0 * inverse_triangular(n / 3.0)


def combined_bound(n: int) -> float:
    """Sharper ceiling: one near-maximal part plus a three-part remainder.

    Defined for n >= 1.  Not provably below gauss_bound everywhere; both
    ceilings are reported and mu is checked against their minimum.
    """
    if n < 1:
        raise ValueError("combined bound needs n >= 1")
    fn = inverse_triangular(n)
    return fn + 3.0 * inverse_triangular((fn - 2.0) / 3.0)


@dataclass(frozen=True)
class BoundProfile:
    """mu(n) together with its analytic envelope at one argument."""

    n: int
    mu: int
    lower: float
    gauss: float
    combined: float


def bound_profiles(n_max: int, table: MuTable | None = None) -> list[BoundProfile]:
    """Profiles for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    t = _shared if table is None else table
    t.ensure(n_max)
    return [
        BoundProfile(n, t[n], lower_bound(n), gauss_bound(n), combined_bound(n))
        for n in range(1, n_max + 1)
    ]


def save_table(table: MuTable, path: str) -> None:
    """Write the table: magic, version byte, little-endian u64 n_max, u32
    CRC-32 of the value bytes, then the values as little-endian u64.

    The file is written beside `path` and renamed over it, so a reader
    never sees a torn file.
    """
    body = table.values.astype("<u8").tobytes()
    header = _CACHE_MAGIC + bytes([_CACHE_VERSION])
    header += struct.pack("<QI", table.n_max, zlib.crc32(body))
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_table(path: str) -> MuTable:
    """Read a cache file back, validating layout, checksum and spot values.

    Raises ValueError on any mismatch, including a version-1 file (which
    has no checksum); callers treat the cache as disposable and recompute.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _CACHE_HEADER or blob[:4] != _CACHE_MAGIC:
        raise ValueError("not a mu table cache file")
    if blob[4] != _CACHE_VERSION:
        raise ValueError(f"unsupported cache version {blob[4]}")
    n_max, crc = struct.unpack_from("<QI", blob, 5)
    if len(blob) != _CACHE_HEADER + 8 * (n_max + 1):
        raise ValueError("cache length does not match declared n_max")
    if zlib.crc32(memoryview(blob)[_CACHE_HEADER:]) != crc:
        raise ValueError("cache fails checksum")
    values = np.frombuffer(blob, dtype="<u8", offset=_CACHE_HEADER).astype(np.int64)
    if values[0] != 0:
        raise ValueError("cache fails spot check: mu(0) != 0")
    if n_max >= 1 and values[1] != 2:
        raise ValueError("cache fails spot check: mu(1) != 2")
    top = largest_index(n_max)
    idx = np.array([triangular(i) for i in range(2, top + 1)], dtype=np.int64)
    if idx.size and not np.array_equal(values[idx], np.arange(2, top + 1)):
        raise ValueError("cache fails spot check at triangular positions")
    return MuTable._from_values(values)
