"""Column-wise unpack, shape by shape: the blocked transpose vs fixed tiles.

``ColumnWise._unpack_rows`` transposes the ``(words, p)`` arranged buffer
into ``(q, words)`` output images.  It takes 32-row blocks, except on
images narrower than 128 lanes, which take 256-row blocks.  This script
races it against the fixed 256-word x 128-lane tiles it replaced, on the
serving shapes (``p = 256``, q in {1, 13, 32, 64, 100, 256}, words in {256,
2048}) and on the full ``bulk-prefix1024`` image (words 1024, p = 8192).
The two run alternately in one process; each sample is bit-checked
against ``buffer[:, :q].T``.

Standalone run (writes ``results/bench_unpack.txt``)::

    PYTHONPATH=src python benchmarks/bench_unpack.py
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from repro.bulk.arrangement import ColumnWise

SHAPES = [(words, 256, q) for words in (256, 2048) for q in (1, 13, 32, 64, 100, 256)]
FULL = (1024, 8192, 8192)


def fixed_tiles(buffer: np.ndarray, out: np.ndarray) -> None:
    """The replaced unpack: 256-word x 128-lane tiles, lanes inner."""
    q, words = out.shape
    for i0 in range(0, words, 256):
        block = buffer[i0 : i0 + 256]
        for j0 in range(0, q, 128):
            hi = min(j0 + 128, q)
            out[j0:hi, i0 : i0 + 256] = block[:, j0:hi].T


def race(words: int, p: int, q: int, samples: int) -> tuple:
    """Median ms of (fixed tiles, library unpack), alternating."""
    arrangement = ColumnWise(words, p)
    buffer = np.random.default_rng(words + q).random((words, p))
    expected = buffer[:, :q].T
    out = np.empty((q, words))
    legs = (
        (fixed_tiles, []),
        (arrangement.unpack_rows_into, []),
    )
    for _ in range(samples):
        for fn, times in legs:
            out[...] = 0
            started = time.perf_counter()
            fn(buffer, out)
            times.append(time.perf_counter() - started)
            assert np.array_equal(out, expected)
    return tuple(statistics.median(times) * 1e3 for _, times in legs)


def main() -> None:
    rows = [(*shape, *race(*shape, samples=101)) for shape in SHAPES]
    rows.append((*FULL, *race(*FULL, samples=9)))
    lines = [
        "Column-wise unpack: fixed 256x128 tiles vs the library's blocks",
        "(median ms of alternating samples, float64, bit-checked)",
        "",
        f"{'words':>6} {'p':>5} {'q':>5} {'fixed':>9} {'library':>9} {'ratio':>6}",
    ]
    for words, p, q, fixed, library in rows:
        lines.append(
            f"{words:>6} {p:>5} {q:>5} {fixed:>9.3f} {library:>9.3f} "
            f"{fixed / library:>5.2f}x"
        )
    text = "\n".join(lines) + "\n"
    print(text, end="")
    out = Path(__file__).resolve().parent.parent / "results" / "bench_unpack.txt"
    out.write_text(text)


if __name__ == "__main__":
    main()
