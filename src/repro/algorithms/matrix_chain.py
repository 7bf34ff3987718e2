"""Matrix-chain multiplication order — the other classic ``O(n³)`` DP.

The paper argues obliviousness covers "dynamic programming" generally;
Algorithm OPT is structurally identical to the matrix-chain DP (CLRS §15.2),
so this module serves as the second DP in the registry and as a check that
the OPT machinery was not accidentally specialised.

Given dimensions ``d[0..n]`` (matrix ``A_i`` is ``d[i-1] × d[i]``), the
minimum scalar-multiplication count obeys::

    m[i, i] = 0
    m[i, j] = min_{i <= k < j}  m[i, k] + m[k+1, j] + d[i-1]·d[k]·d[j]

Memory layout (``memory_words = (n + 1) + (n + 1)²``):

* ``d[i]`` at address ``i`` for ``i = 0..n``;
* ``m[i, j]`` at address ``(n+1) + i·(n+1) + j`` (indices ``1..n``).

The answer ``m[1, n]`` is the program's one declared output word.
"""

from __future__ import annotations

import numpy as np

from ..errors import ProgramError, WorkloadError
from ..trace.builder import ProgramBuilder
from ..trace.ir import Program
from .polygon import INFINITY_WEIGHT

__all__ = [
    "build_matrix_chain",
    "matrix_chain_python",
    "matrix_chain_reference",
    "answer_address",
    "pack_dims",
    "unpack_result",
]


def answer_address(n: int) -> int:
    """Address of ``m[1, n]`` — the optimal multiplication count."""
    return (n + 1) + 1 * (n + 1) + n


def memory_words(n: int) -> int:
    """Program memory size for a chain of ``n`` matrices."""
    return (n + 1) + (n + 1) * (n + 1)


def pack_dims(dims: np.ndarray) -> np.ndarray:
    """``(p, n+1)`` dimension vectors → program input words (unchanged)."""
    d = np.asarray(dims, dtype=np.float64)
    if d.ndim == 1:
        d = d[None]
    if d.ndim != 2:
        raise WorkloadError(f"expected (p, n+1) dims, got shape {d.shape}")
    return d


def unpack_result(outputs: np.ndarray, n: int) -> np.ndarray:
    """Every input's optimal count ``m[1, n]`` from the ``(p, 1)`` output
    image of a bulk run of :func:`build_matrix_chain`."""
    out = np.asarray(outputs)
    if out.ndim != 2 or out.shape[1] != 1:
        raise WorkloadError(
            f"expected bulk outputs of shape (p, 1) for n={n}, got {out.shape}"
        )
    return out[:, 0].copy()


def matrix_chain_python(mem, n: int) -> None:
    """The DP verbatim over a flat list-like memory (mode-polymorphic)."""
    from ..bulk.convert import select

    m_base = n + 1
    stride = n + 1
    for i in range(1, n + 1):
        mem[m_base + i * stride + i] = 0.0
    for span in range(1, n):
        for i in range(1, n - span + 1):
            j = i + span
            s = INFINITY_WEIGHT
            for k in range(i, j):
                cost = (
                    mem[m_base + i * stride + k]
                    + mem[m_base + (k + 1) * stride + j]
                    + mem[i - 1] * mem[k] * mem[j]
                )
                s = select(cost < s, cost, s)
            mem[m_base + i * stride + j] = s


def matrix_chain_reference(dims: np.ndarray) -> float:
    """Plain-NumPy minimum multiplication count for one chain."""
    d = np.asarray(dims, dtype=np.float64)
    n = d.size - 1
    if n < 1:
        raise WorkloadError(f"need at least one matrix, got dims of size {d.size}")
    m = np.zeros((n + 1, n + 1), dtype=np.float64)
    for span in range(1, n):
        for i in range(1, n - span + 1):
            j = i + span
            best = INFINITY_WEIGHT
            for k in range(i, j):
                best = min(best, m[i, k] + m[k + 1, j] + d[i - 1] * d[k] * d[j])
            m[i, j] = best
    return float(m[1, n])


def build_matrix_chain(n: int) -> Program:
    """Oblivious IR program for chains of ``n`` matrices.

    The data-dependent ``min`` is predicated with ``Select``; the product
    ``d[i-1]·d[k]·d[j]`` re-loads the dimensions each time, keeping the
    access function a pure function of the loop indices (the cheapest
    faithful choice — caching in registers would also be oblivious but
    changes ``t``).
    """
    if n < 1:
        raise ProgramError(f"need at least one matrix, got n={n}")
    b = ProgramBuilder(memory_words=memory_words(n), name=f"matrix-chain-n{n}")
    b.meta["n"] = n
    b.meta["algorithm"] = "matrix-chain"
    answer = answer_address(n)
    b.outputs = ((answer, answer + 1),)
    m_base = n + 1
    stride = n + 1
    zero = b.const(0.0)
    for i in range(1, n + 1):
        b.store(m_base + i * stride + i, zero)
    for span in range(1, n):
        for i in range(1, n - span + 1):
            j = i + span
            s = b.const(INFINITY_WEIGHT)
            for k in range(i, j):
                cost = (
                    b.load(m_base + i * stride + k)
                    + b.load(m_base + (k + 1) * stride + j)
                    + b.load(i - 1) * b.load(k) * b.load(j)
                )
                s = b.select(cost < s, cost, s)
            b.store(m_base + i * stride + j, s)
    return b.build()
