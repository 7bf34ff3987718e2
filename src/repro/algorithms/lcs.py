"""Longest common subsequence length — a select-heavy DP.

The LCS recurrence branches on data (``x[i] == y[j]``), making it the most
demanding exercise of the oblivious ``Select`` device in the registry::

    dp[i, j] = dp[i-1, j-1] + 1              if x[i-1] == y[j-1]
    dp[i, j] = max(dp[i-1, j], dp[i, j-1])   otherwise

Both arms are evaluated unconditionally and combined with a predicated
move, so the address trace is the fixed row-major sweep of the table.

Memory layout (``memory_words = n + m + (n+1)(m+1)``):

* ``x[i]`` at ``i`` for ``i = 0..n-1``;
* ``y[j]`` at ``n + j`` for ``j = 0..m-1``;
* ``dp[i, j]`` at ``n + m + i·(m+1) + j``.

The answer ``dp[n, m]`` is the program's one declared output word.
"""

from __future__ import annotations

import numpy as np

from ..errors import ProgramError, WorkloadError
from ..trace.builder import ProgramBuilder
from ..trace.ir import Program

__all__ = [
    "build_lcs",
    "lcs_python",
    "lcs_reference",
    "answer_address",
    "memory_words",
    "pack_sequences",
    "unpack_length",
]


def memory_words(n: int, m: int) -> int:
    """Program memory size for sequences of lengths ``n`` and ``m``."""
    return n + m + (n + 1) * (m + 1)


def answer_address(n: int, m: int) -> int:
    """Address of ``dp[n, m]`` — the LCS length."""
    return n + m + n * (m + 1) + m


def pack_sequences(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``(p, n)`` + ``(p, m)`` integer sequences → program inputs."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise WorkloadError(
            f"expected matching (p, n) and (p, m) sequences, got {x.shape}, {y.shape}"
        )
    return np.concatenate([x, y], axis=1)


def unpack_length(outputs: np.ndarray, n: int, m: int) -> np.ndarray:
    """Every input's LCS length from the ``(p, 1)`` output image of a bulk
    run of :func:`build_lcs`."""
    out = np.asarray(outputs)
    if out.ndim != 2 or out.shape[1] != 1:
        raise WorkloadError(
            f"expected bulk outputs of shape (p, 1) for {n}x{m}, got {out.shape}"
        )
    return out[:, 0].copy()


def lcs_python(mem, n: int, m: int) -> None:
    """The DP verbatim over a flat list-like memory (mode-polymorphic)."""
    from ..bulk.convert import equal, maximum, select

    dp = n + m
    stride = m + 1
    for j in range(m + 1):
        mem[dp + j] = 0.0
    for i in range(1, n + 1):
        mem[dp + i * stride] = 0.0
        for j in range(1, m + 1):
            match = equal(mem[i - 1], mem[n + j - 1])
            take = mem[dp + (i - 1) * stride + (j - 1)] + 1.0
            skip = maximum(
                mem[dp + (i - 1) * stride + j], mem[dp + i * stride + (j - 1)]
            )
            mem[dp + i * stride + j] = select(match, take, skip)


def lcs_reference(x: np.ndarray, y: np.ndarray) -> int:
    """Plain DP LCS length of two 1-D sequences (ground truth)."""
    xs = list(np.asarray(x).ravel())
    ys = list(np.asarray(y).ravel())
    prev = [0] * (len(ys) + 1)
    for xi in xs:
        cur = [0]
        for j, yj in enumerate(ys, start=1):
            cur.append(prev[j - 1] + 1 if xi == yj else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def build_lcs(n: int, m: int) -> Program:
    """Oblivious IR computing the LCS length of an ``n``- and ``m``-sequence."""
    if n <= 0 or m <= 0:
        raise ProgramError(f"need positive lengths, got n={n}, m={m}")
    b = ProgramBuilder(memory_words=memory_words(n, m), name=f"lcs-{n}x{m}")
    b.meta["n"] = n
    b.meta["m"] = m
    b.meta["algorithm"] = "lcs"
    answer = answer_address(n, m)
    b.outputs = ((answer, answer + 1),)
    dp = n + m
    stride = m + 1
    zero = b.const(0.0)
    for j in range(m + 1):
        b.store(dp + j, zero)
    for i in range(1, n + 1):
        b.store(dp + i * stride, zero)
        for j in range(1, m + 1):
            match = b.load(i - 1).eq(b.load(n + j - 1))
            take = b.load(dp + (i - 1) * stride + (j - 1)) + 1.0
            skip = b.maximum(
                b.load(dp + (i - 1) * stride + j), b.load(dp + i * stride + (j - 1))
            )
            b.store(dp + i * stride + j, b.select(match, take, skip))
    return b.build()
