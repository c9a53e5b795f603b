"""Batch intersection / membership kernels over contiguous label rows.

The cover (:mod:`repro.core.cover`) seals its label tables into
contiguous CSR slabs and answers probes through the kernels here
instead of per-element python loops over its mutable rows. All
kernels operate on **sorted, duplicate-free** integer sequences — an
``array('i')``, a ``memoryview`` slice of a CSR data slab, or a plain
list — and every strategy returns the same answer (pinned by the
differential suite in ``tests/test_kernels.py``):

==========  ================================================================
strategy    when it wins
==========  ================================================================
``merge``   comparable row lengths — one linear pass over both rows
``gallop``  skewed lengths — iterate the small row, binary-search the big
            one with a monotonically advancing lower bound
``bitset``  dense rows over a small id span — one side becomes a python
            big-int bitmask, membership is a shift-and-test
``numpy``   large rows with numpy importable — ``intersect1d`` /
            ``searchsorted`` do the work in C
==========  ================================================================

:func:`choose_strategy` picks by row sizes and id-span density; the
numpy path is **feature-detected, never required** — every call site
must behave identically when :data:`HAVE_NUMPY` is False.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

try:  # optional fast path — the pure-python kernels are the contract
    import numpy as _np
except ImportError:  # pragma: no cover - numpy present in the dev image
    _np = None

#: Whether the numpy fast path is available in this interpreter.
HAVE_NUMPY = _np is not None

#: Pure-python strategies, always available.
PORTABLE_STRATEGIES: Tuple[str, ...] = ("merge", "gallop", "bitset")


def available_strategies() -> Tuple[str, ...]:
    """Every strategy usable in this interpreter (numpy included only
    when it imports)."""
    if HAVE_NUMPY:
        return PORTABLE_STRATEGIES + ("numpy",)
    return PORTABLE_STRATEGIES


def choose_strategy(n_a: int, n_b: int, *, span: Optional[int] = None) -> str:
    """Pick an intersection strategy from row sizes and density.

    Args:
        n_a: length of one sorted row.
        n_b: length of the other sorted row.
        span: width of the id universe the rows draw from (e.g. the
            interner size); enables the ``bitset`` pick when the rows
            are dense in it. ``None`` disables the density test.

    Returns:
        One of :func:`available_strategies` — deterministic for given
        inputs, so plans and tests are reproducible.
    """
    small, big = (n_a, n_b) if n_a <= n_b else (n_b, n_a)
    if small == 0:
        return "merge"
    if HAVE_NUMPY and big >= 512 and small >= 64:
        return "numpy"
    if small * 16 < big:
        return "gallop"
    if span is not None and span > 0 and (n_a + n_b) * 8 >= span:
        return "bitset"
    return "merge"


# ---------------------------------------------------------------------------
# intersection kernels — all return a sorted list of common values
# ---------------------------------------------------------------------------


def intersect_merge(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Linear two-pointer merge of two sorted rows."""
    out: List[int] = []
    i, j, na, nb = 0, 0, len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return out


def intersect_gallop(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Iterate the smaller row, binary-search the larger one with a
    monotonically advancing lower bound (sub-linear on skewed sizes)."""
    if len(a) > len(b):
        a, b = b, a
    out: List[int] = []
    if not a or not b or a[0] > b[-1] or b[0] > a[-1]:
        return out
    lo, nb = 0, len(b)
    for x in a:
        lo = bisect_left(b, x, lo)
        if lo == nb:
            break
        if b[lo] == x:
            out.append(x)
            lo += 1
    return out


def make_bitmask(row: Sequence[int]) -> int:
    """A python big-int bitmask with bit ``x`` set for every ``x`` in
    ``row`` (ids are non-negative, so the mask is exact)."""
    if not row:
        return 0
    buf = bytearray((row[-1] >> 3) + 1)
    for x in row:
        buf[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(bytes(buf), "little")


def intersect_bitset(
    a: Sequence[int], b: Sequence[int], *, mask: Optional[int] = None
) -> List[int]:
    """Intersect by testing ``a``'s values against a bitmask of ``b``.

    ``mask`` lets callers reuse a precomputed :func:`make_bitmask`
    across probes of one row.
    """
    if mask is None:
        mask = make_bitmask(b)
    return [x for x in a if (mask >> x) & 1]


def intersect_numpy(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """``numpy.intersect1d`` over the rows (requires :data:`HAVE_NUMPY`)."""
    if _np is None:  # pragma: no cover - guarded by callers
        raise RuntimeError("numpy is not available; use a portable strategy")
    return _np.intersect1d(
        _np.asarray(a, dtype=_np.int64),
        _np.asarray(b, dtype=_np.int64),
        assume_unique=True,
    ).tolist()


_KERNELS = {
    "merge": intersect_merge,
    "gallop": intersect_gallop,
    "bitset": intersect_bitset,
    "numpy": intersect_numpy,
}


def intersect(
    a: Sequence[int],
    b: Sequence[int],
    *,
    strategy: Optional[str] = None,
    span: Optional[int] = None,
) -> List[int]:
    """Sorted common values of two sorted rows.

    ``strategy`` forces a kernel (the differential suite exercises each
    one); ``None`` defers to :func:`choose_strategy`.
    """
    if strategy is None:
        strategy = choose_strategy(len(a), len(b), span=span)
    try:
        kernel = _KERNELS[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; one of {available_strategies()}"
        ) from None
    return kernel(a, b)


def intersects_any(
    a: Sequence[int], b: Sequence[int], *, span: Optional[int] = None
) -> bool:
    """Do two sorted rows share an element? Early-exits on first hit."""
    if len(a) > len(b):
        a, b = b, a
    if not a or not b or a[0] > b[-1] or b[0] > a[-1]:
        return False
    strategy = choose_strategy(len(a), len(b), span=span)
    if strategy == "numpy":
        return bool(
            _np.intersect1d(
                _np.asarray(a, dtype=_np.int64),
                _np.asarray(b, dtype=_np.int64),
                assume_unique=True,
            ).size
        )
    lo, nb = 0, len(b)
    for x in a:
        lo = bisect_left(b, x, lo)
        if lo == nb:
            return False
        if b[lo] == x:
            return True
    return False


# ---------------------------------------------------------------------------
# batch membership — the connected_many / intersect_many primitive
# ---------------------------------------------------------------------------


def membership_flags(
    values: Sequence[int], sorted_universe: Sequence[int]
) -> List[bool]:
    """``[v in sorted_universe for v in values]`` without a hash table.

    ``values`` need not be sorted (candidate lists arrive in tag-index
    order); ``sorted_universe`` must be sorted and duplicate-free.
    Negative sentinel values (unknown labels) always test False.
    """
    n = len(sorted_universe)
    if n == 0:
        return [False] * len(values)
    if HAVE_NUMPY and len(values) >= 64:
        vals = _np.asarray(values, dtype=_np.int64)
        uni = _np.asarray(sorted_universe, dtype=_np.int64)
        idx = _np.searchsorted(uni, vals)
        idx[idx == n] = 0
        flags = uni[idx] == vals
        return flags.tolist()
    out = []
    for v in values:
        i = bisect_left(sorted_universe, v)
        out.append(i < n and sorted_universe[i] == v)
    return out
