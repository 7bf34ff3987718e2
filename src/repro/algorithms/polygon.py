"""Algorithm OPT — optimal polygon triangulation by dynamic programming
(paper, Section IV).

A convex ``n``-gon with vertices ``v_0 … v_{n-1}`` is cut into ``n-2``
triangles by ``n-3`` non-crossing chords; given chord weights ``c[i, j]``,
the OPT problem minimises the total weight of the chosen chords.  With
``m[i, j]`` the minimum weight of the sub-polygon on ``v_{i-1} … v_j``::

    m[i, j] = 0                                                   if j - i <= 1
    m[i, j] = min_{i <= k < j} ( m[i, k] + m[k+1, j] ) + c[i-1, j]  otherwise

(the weight convention gives polygon *edges* — ``|i-j| = 1`` or
``{i, j} = {0, n-1}`` — weight 0, so the final answer ``m[1, n-1]`` counts
exactly the ``n-3`` chords of the triangulation).

The paper's Algorithm OPT makes the DP *oblivious* by replacing the
data-dependent update with a predicated one::

    if r < s then s <- r else s <- s     (the redundant 'else' keeps the
                                          trace input-independent)

which this module reproduces with a ``Select`` instruction.

Memory layout of the IR program (``memory_words = 2n²``):

* ``c[i, j]`` at address ``i·n + j`` (row-major, addresses ``[0, n²)``);
* ``M[i, j]`` at address ``n² + i·n + j`` (indices ``1 … n-1`` used).

The answer lands at ``M[1, n-1]`` = address ``n² + n + (n-1)``, the
program's one declared output word: a bulk run returns a ``(p, 1)`` image.
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

from ..errors import ProgramError, WorkloadError
from ..trace.builder import ProgramBuilder
from ..trace.ir import Program

__all__ = [
    "INFINITY_WEIGHT",
    "answer_address",
    "build_opt",
    "opt_python",
    "opt_reference",
    "pack_weights",
    "unpack_result",
    "brute_force_opt",
    "enumerate_triangulations",
    "reconstruct_chords",
    "validate_weights",
    "catalan_number",
]

#: The paper's ``s <- +infinity`` initialiser.  A large finite sentinel keeps
#: integer dtypes usable; any real weight sum stays far below it.
INFINITY_WEIGHT = 1e30


def validate_weights(c: np.ndarray) -> np.ndarray:
    """Check a chord weight matrix: square, ``n >= 3``, zero on edges.

    Returns the validated ``(n, n)`` float array.
    """
    arr = np.asarray(c, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise WorkloadError(f"weights must be square (n, n), got {arr.shape}")
    n = arr.shape[0]
    if n < 3:
        raise WorkloadError(f"a convex polygon needs n >= 3 vertices, got {n}")
    for i in range(n - 1):
        if arr[i, i + 1] != 0 or arr[i + 1, i] != 0:
            raise WorkloadError(
                f"edge v{i}v{i+1} must have weight 0 (it is a polygon side, "
                "not a chord)"
            )
    if arr[0, n - 1] != 0 or arr[n - 1, 0] != 0:
        raise WorkloadError("edge v0 v(n-1) must have weight 0")
    return arr


def answer_address(n: int) -> int:
    """Address of ``M[1, n-1]`` — where the optimal value lands."""
    return n * n + 1 * n + (n - 1)


def pack_weights(weights: np.ndarray) -> np.ndarray:
    """Flatten ``(p, n, n)`` chord weights into the program's input words.

    The program's memory starts with the ``n²`` words of ``c`` (row-major);
    the DP table region is scratch and needs no initial data.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim == 2:
        w = w[None]
    if w.ndim != 3 or w.shape[1] != w.shape[2]:
        raise WorkloadError(f"expected (p, n, n) weights, got shape {w.shape}")
    return w.reshape(w.shape[0], -1)


def unpack_result(outputs: np.ndarray, n: int) -> np.ndarray:
    """Every input's optimal value ``M[1, n-1]`` from the ``(p, 1)`` output
    image of a bulk run of :func:`build_opt`."""
    out = np.asarray(outputs)
    if out.ndim != 2 or out.shape[1] != 1:
        raise WorkloadError(
            f"expected bulk outputs of shape (p, 1) for n={n}, got {out.shape}"
        )
    return out[:, 0].copy()


# -- plain-Python execution (reference semantics & obliviousness witness) -----

def opt_python(mem, n: int) -> None:
    """Algorithm OPT verbatim over a flat list-like memory of ``2n²`` words.

    Mode-polymorphic like :func:`~repro.algorithms.prefix_sums
    .prefix_sums_python`: works on plain lists, :class:`TracingMemory`, and
    :class:`SymbolicMemory` (using the oblivious ``select`` helper).
    """
    from ..bulk.convert import select  # mode-polymorphic conditional

    c_base, m_base = 0, n * n
    for i in range(1, n):
        mem[m_base + i * n + i] = 0.0
    for i in range(n - 2, 0, -1):
        for j in range(i + 1, n):
            s = INFINITY_WEIGHT
            for k in range(i, j):
                r = mem[m_base + i * n + k] + mem[m_base + (k + 1) * n + j]
                s = select(r < s, r, s)  # the paper's oblivious minimum
            mem[m_base + i * n + j] = s + mem[c_base + (i - 1) * n + j]


def opt_reference(c: np.ndarray) -> float:
    """The optimal triangulation weight of one polygon (plain NumPy DP)."""
    arr = validate_weights(c)
    n = arr.shape[0]
    m = np.zeros((n, n), dtype=np.float64)
    for i in range(n - 2, 0, -1):
        for j in range(i + 1, n):
            best = INFINITY_WEIGHT
            for k in range(i, j):
                best = min(best, m[i, k] + m[k + 1, j])
            m[i, j] = best + arr[i - 1, j]
    return float(m[1, n - 1])


# -- IR construction -----------------------------------------------------------

def build_opt(n: int, *, use_select: bool = True, opt_level: int = 0) -> Program:
    """The oblivious IR program of Algorithm OPT for convex ``n``-gons.

    ``use_select=True`` (default) mirrors the paper exactly — compare then
    predicated move (``if r < s then s ← r else s ← s``); ``False`` fuses
    the two into a single ``MIN``, an equivalent oblivious formulation used
    by the ablation bench.  ``opt_level`` forwards to
    :meth:`ProgramBuilder.build` (level 2 forwards the DP table's
    store→load pairs and shortens the priced trace).
    """
    if n < 3:
        raise ProgramError(f"a convex polygon needs n >= 3 vertices, got {n}")
    b = ProgramBuilder(memory_words=2 * n * n, name=f"opt-n{n}")
    b.meta["n"] = n
    b.meta["algorithm"] = "opt"
    answer = answer_address(n)
    b.outputs = ((answer, answer + 1),)
    c_base, m_base = 0, n * n
    zero = b.const(0.0)
    for i in range(1, n):
        b.store(m_base + i * n + i, zero)
    for i in range(n - 2, 0, -1):
        for j in range(i + 1, n):
            s = b.const(INFINITY_WEIGHT)
            for k in range(i, j):
                r = b.load(m_base + i * n + k) + b.load(m_base + (k + 1) * n + j)
                if use_select:
                    s = b.select(r < s, r, s)
                else:
                    s = b.minimum(r, s)
            b.store(m_base + i * n + j, s + b.load(c_base + (i - 1) * n + j))
    return b.build(opt_level=opt_level)


# -- exhaustive validation (Catalan enumeration) --------------------------------

def catalan_number(k: int) -> int:
    """The ``k``-th Catalan number — counts full binary trees with ``k+1``
    leaves, hence triangulations of a convex ``(k+2)``-gon."""
    if k < 0:
        raise WorkloadError(f"k must be >= 0, got {k}")
    import math

    return math.comb(2 * k, k) // (k + 1)


def enumerate_triangulations(
    lo: int = 0, hi: int | None = None, *, n: int | None = None
) -> List[Set[Tuple[int, int]]]:
    """All triangulations of the convex polygon on vertices ``lo..hi``.

    Call as ``enumerate_triangulations(n=8)`` for a full ``n``-gon.  Each
    triangulation is returned as its set of chords ``(i, j)`` with ``i < j``
    (polygon edges excluded).  The count equals the Catalan number
    ``C(n-2)`` — asserted by the tests against :func:`catalan_number`.
    """
    if n is not None:
        lo, hi = 0, n - 1
    if hi is None:
        raise WorkloadError("provide either (lo, hi) or n=")

    def is_edge(i: int, j: int) -> bool:
        return j - i == 1 or (i == lo and j == hi)

    def rec(i: int, j: int) -> List[Set[Tuple[int, int]]]:
        # All triangulations of the fan on v_i .. v_j (i < j), where the
        # boundary chord (i, j) itself is not counted.
        if j - i <= 1:
            return [set()]
        out: List[Set[Tuple[int, int]]] = []
        for k in range(i + 1, j):
            for left in rec(i, k):
                for right in rec(k, j):
                    tri = left | right
                    if not is_edge(i, k) and k - i > 1:
                        tri = tri | {(i, k)}
                    if not is_edge(k, j) and j - k > 1:
                        tri = tri | {(k, j)}
                    out.append(tri)
        return out

    return rec(lo, hi)


def brute_force_opt(c: np.ndarray) -> Tuple[float, Set[Tuple[int, int]]]:
    """Exhaustively find the optimal triangulation (value and chord set).

    Exponential — use only for small ``n`` (the tests go up to 10-gons,
    Catalan(8) = 1430 triangulations).
    """
    arr = validate_weights(c)
    n = arr.shape[0]
    best_val = float("inf")
    best_tri: Set[Tuple[int, int]] = set()
    for tri in enumerate_triangulations(n=n):
        val = float(sum(arr[i, j] for (i, j) in tri))
        if val < best_val:
            best_val, best_tri = val, tri
    return best_val, best_tri


def reconstruct_chords(choice: np.ndarray, n: int) -> Set[Tuple[int, int]]:
    """Chord set of the optimal triangulation from an argmin table.

    ``choice`` is the ``(n, n)`` split table of one polygon as produced by
    :func:`repro.bulk.kernels.opt_bulk_with_choices`: ``choice[i, j] = k``
    splits the sub-polygon ``v_{i-1} … v_j`` into ``v_{i-1} … v_k`` and
    ``v_k … v_j`` via the triangle ``(v_{i-1}, v_k, v_j)``.
    """
    chords: Set[Tuple[int, int]] = set()

    def is_edge(a: int, b: int) -> bool:
        a, b = min(a, b), max(a, b)
        return b - a == 1 or (a == 0 and b == n - 1)

    def walk(i: int, j: int) -> None:
        # sub-polygon v_{i-1} .. v_j
        if j - i <= 1:
            return
        k = int(choice[i, j])
        for a, bnd in (((i - 1), k), (k, j)):
            if not is_edge(a, bnd):
                chords.add((min(a, bnd), max(a, bnd)))
        walk(i, k)
        walk(k + 1, j)

    walk(1, n - 1)
    return chords
