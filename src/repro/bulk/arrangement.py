"""Input arrangements for bulk execution (Section III, Figure 5).

Given ``p`` inputs of ``n`` words each, the paper considers two memory
layouts of the combined ``p·n`` words:

**row-wise**
    input ``j`` occupies row ``j`` of a ``p × n`` array: word ``i`` of input
    ``j`` lives at global address ``j·n + i``.  A bulk step in which every
    thread touches local address ``a`` hits ``a, a+n, a+2n, ...`` — *one
    address group per thread* (when ``n ≥ w``), i.e. fully non-coalesced.

**column-wise**
    input ``j`` occupies column ``j`` of an ``n × p`` array: word ``i`` of
    input ``j`` lives at global address ``i·p + j``.  A bulk step touches the
    ``p`` *consecutive* addresses ``a·p .. a·p + p − 1`` — ``p/w`` address
    groups, i.e. perfectly coalesced.  This is the paper's time-optimal
    arrangement (Theorems 2–3).

Each arrangement also owns the physical NumPy layout the bulk engine uses,
chosen so the *cache* behaviour on a CPU mirrors the *coalescing* behaviour
on the UMM: the column-wise buffer is ``(n, p)`` C-order (a bulk step is a
unit-stride row), the row-wise buffer is ``(p, n)`` C-order (a bulk step is
a stride-``n`` gather).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ArrangementError

__all__ = [
    "Arrangement",
    "ColumnWise",
    "RowWise",
    "PaddedRowWise",
    "make_arrangement",
]


class Arrangement(ABC):
    """Maps (local address, input index) to the global address space.

    Parameters
    ----------
    words:
        Words per input instance (the sequential program's memory size ``n``).
    p:
        Number of inputs = number of threads.
    """

    #: Short identifier used by the harness ("row" / "column").
    name: str = "abstract"

    def __init__(self, words: int, p: int) -> None:
        if words <= 0:
            raise ArrangementError(f"words must be positive, got {words}")
        if p <= 0:
            raise ArrangementError(f"p must be positive, got {p}")
        self.words = int(words)
        self.p = int(p)
        #: Thread-id vector ``0..p-1``, shared by every address-map call.
        self._threads = np.arange(self.p, dtype=np.int64)

    @property
    def total_words(self) -> int:
        """Size of the combined global address space, ``p · words``."""
        return self.words * self.p

    # -- address maps -------------------------------------------------------
    @abstractmethod
    def global_address(self, local: Union[int, np.ndarray], j: Union[int, np.ndarray]):
        """Global address of word ``local`` of input ``j`` (vectorised)."""

    def step_addresses(self, local: int) -> np.ndarray:
        """Global addresses touched by all ``p`` threads at one bulk step."""
        return self.global_address(local, self._threads)

    def check_trace(self, local_trace: np.ndarray) -> np.ndarray:
        """The local trace as int64, or :class:`ArrangementError` if no
        program over ``words`` words could have produced it: not 1-D, not
        integer, or touching an address outside ``[0, words)``."""
        a = np.asarray(local_trace)
        if a.ndim != 1:
            raise ArrangementError(f"expected 1-D local trace, got shape {a.shape}")
        if a.size == 0:
            return np.empty(0, dtype=np.int64)
        if not np.issubdtype(a.dtype, np.integer):
            raise ArrangementError(f"local trace must hold integers, got {a.dtype}")
        if a.min() < 0 or a.max() >= self.words:
            raise ArrangementError(
                f"local trace touches addresses outside [0, {self.words})"
            )
        return a.astype(np.int64, copy=False)

    def trace_addresses(self, local_trace: np.ndarray) -> np.ndarray:
        """The full ``(t, p)`` bulk address matrix of a sequential trace."""
        a = self.check_trace(local_trace)
        out = np.empty((a.size, self.p), dtype=np.int64)
        self._fill_trace(a, out)
        return out

    def trace_addresses_into(
        self, local_trace: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """``trace_addresses`` into a caller-owned buffer (no allocation).

        ``out`` must be a C-contiguous int64 array of shape ``(m, p)`` with
        ``m >= len(local_trace)``; the filled ``(t, p)`` leading view is
        returned.  Distinct-address pricing (:func:`repro.bulk.simulate.step_stages`)
        uses this to price any number of addresses with one reusable buffer.
        """
        a = self.check_trace(local_trace)
        if (
            out.ndim != 2
            or out.shape[1] != self.p
            or out.shape[0] < a.size
            or out.dtype != np.int64
        ):
            raise ArrangementError(
                f"need an int64 buffer of shape (>= {a.size}, {self.p}), "
                f"got {out.dtype} {out.shape}"
            )
        view = out[: a.size]
        self._fill_trace(a, view)
        return view

    def _fill_trace(self, local_trace: np.ndarray, out: np.ndarray) -> None:
        """Fill ``out`` (shape ``(t, p)``) with the bulk address matrix.

        Subclasses override with in-place broadcasting fills; this generic
        fallback materialises the map through :meth:`global_address`.
        """
        out[:] = self.global_address(local_trace[:, None], self._threads[None, :])

    # -- physical layout for the bulk engine ---------------------------------
    @abstractmethod
    def allocate(self, dtype: np.dtype) -> np.ndarray:
        """A zeroed buffer in this arrangement's physical layout."""

    @abstractmethod
    def pack(self, inputs: np.ndarray, buffer: np.ndarray) -> None:
        """Scatter ``(p, k)`` per-input arrays into ``buffer`` (zero-extended)."""

    def load_inputs(
        self,
        inputs: np.ndarray,
        buffer: np.ndarray,
        zero_ranges: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> None:
        """Reset ``buffer`` to the packed image of ``inputs``.

        Equivalent to zeroing the whole buffer and then :meth:`pack`, but
        only clears the region ``pack`` does not overwrite — at large ``p``
        the buffer is tens of MB and the blanket zero is measurable.

        ``zero_ranges`` optionally narrows the clearing further, to the
        given half-open local-address ranges: the caller (the engine) knows
        which scratch words the program stores before ever loading, and
        those need no zeroing at all.
        """
        arr = self._check_inputs(inputs)
        if zero_ranges is None:
            self._clear_tail(buffer, arr.shape[1])
        else:
            for start, stop in zero_ranges:
                if stop > start:
                    self._clear_words(buffer, start, stop)
        self.pack(arr, buffer)

    def _clear_tail(self, buffer: np.ndarray, k: int) -> None:
        """Zero the part of ``buffer`` not overwritten by a ``k``-word pack."""
        buffer[...] = 0  # conservative fallback; subclasses narrow this

    def _clear_words(self, buffer: np.ndarray, start: int, stop: int) -> None:
        """Zero local words ``[start, stop)`` for every input."""
        self._clear_tail(buffer, 0)  # conservative; subclasses narrow this

    @abstractmethod
    def unpack(self, buffer: np.ndarray) -> np.ndarray:
        """Gather ``buffer`` back into a ``(p, words)`` per-input array."""

    def unpack_rows_into(
        self,
        buffer: np.ndarray,
        out: np.ndarray,
        ranges: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> None:
        """Gather words ``ranges`` of the first ``out.shape[0]`` inputs
        into ``out``, range after range.

        ``ranges`` are a program's declared outputs (sorted, disjoint,
        half-open word ranges); ``None`` is the whole memory
        ``((0, words),)``.  This is the externally-owned-buffer unpack
        path: the serving tier hands the engine a view of a
        ``multiprocessing.shared_memory`` slot and wants the output images
        written there *in place* — no ``(p, words)`` intermediate, no copy
        after the fact.  ``out`` must be a ``(q <= p, width)`` array of the
        buffer's dtype, ``width`` the ranges' total, so an OPT image is one
        word per input instead of the ``2n²``-word memory.
        """
        if ranges is None:
            ranges = ((0, self.words),)
        q, width = out.shape[0], sum(hi - lo for lo, hi in ranges)
        if out.ndim != 2 or out.shape[1] != width or q > self.p:
            raise ArrangementError(
                f"need an output buffer of shape (q <= {self.p}, {width}) "
                f"for words {list(ranges)}, got {out.shape}"
            )
        column = 0
        for lo, hi in ranges:
            self._unpack_rows(buffer, out, lo, hi, column)
            column += hi - lo

    def _unpack_rows(
        self, buffer: np.ndarray, out: np.ndarray, lo: int, hi: int, column: int
    ) -> None:
        """Words ``[lo, hi)`` of the first ``out.shape[0]`` inputs into
        ``out[:, column : column + hi - lo]``."""
        q = out.shape[0]
        out[:, column : column + hi - lo] = self.unpack(buffer)[:q, lo:hi]

    @abstractmethod
    def word_view(self, buffer: np.ndarray) -> np.ndarray:
        """A writable ``(words, p)`` *view* of ``buffer``: row ``a`` is local
        word ``a`` across all inputs.

        The fusion pass runs on these rows: a register bound to one reads
        the buffer in place instead of copying it, and a wide step reads
        or writes a strided slice of them as one ``(k, p)`` block.
        """

    # -- shared validation ----------------------------------------------------
    def _check_inputs(self, inputs: np.ndarray) -> np.ndarray:
        arr = np.asarray(inputs)
        if arr.ndim != 2 or arr.shape[0] != self.p:
            raise ArrangementError(
                f"expected inputs of shape (p={self.p}, k<= {self.words}), "
                f"got {arr.shape}"
            )
        if arr.shape[1] > self.words:
            raise ArrangementError(
                f"inputs carry {arr.shape[1]} words but the program memory "
                f"holds only {self.words}"
            )
        return arr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(words={self.words}, p={self.p})"


class ColumnWise(Arrangement):
    """``b_j[i] ↦ i·p + j`` — coalesced, time-optimal (buffer: ``(n, p)``)."""

    name = "column"

    #: Cache blocking for the pack/unpack transposes.  A naive
    #: ``buffer[:k] = inputs.T`` walks one axis at a maximally cache-hostile
    #: stride; blocking keeps the lines a block touches resident.  The
    #: unpack reads ``_UNPACK_ROWS`` source rows per block, and those rows
    #: lie ``p`` words apart: a power-of-two stride aliases cache sets.  At
    #: ``p = 8192`` (64 KiB) every row lands in the same L1 set and in two
    #: L2 sets, so a block of 256 rows evicts its own lines before the
    #: transposed write has used all eight words of each, while 32 rows
    #: fit the L2's 2 x 16 ways (a ``(1024, 8192)`` float64 image: 85 -> 29
    #: ms on a Xeon with 12-way 48 KiB L1d and 16-way 2 MiB L2,
    #: ``benchmarks/bench_unpack.py``).  An image
    #: narrower than ``_UNPACK_NARROW_LANES`` lanes touches few lines per
    #: row and the per-block call overhead dominates, so it takes
    #: ``_UNPACK_NARROW_ROWS`` rows per block.  Pack keeps its 64-lane
    #: column blocks: 32-word x 64-lane tiles measured slower there (31 vs
    #: 20 ms for the same image).
    _PACK_COLS = 64
    _UNPACK_ROWS = 32
    _UNPACK_NARROW_ROWS = 256
    _UNPACK_NARROW_LANES = 128

    def global_address(self, local, j):
        return np.asarray(local, dtype=np.int64) * self.p + np.asarray(j, dtype=np.int64)

    def _fill_trace(self, local_trace: np.ndarray, out: np.ndarray) -> None:
        out[:] = self._threads  # broadcast the j row, then add a(i)·p per row
        out += (local_trace * self.p)[:, None]

    def allocate(self, dtype: np.dtype) -> np.ndarray:
        return np.zeros((self.words, self.p), dtype=dtype)

    def pack(self, inputs: np.ndarray, buffer: np.ndarray) -> None:
        arr = self._check_inputs(inputs)
        k, B = arr.shape[1], self._PACK_COLS
        for j0 in range(0, self.p, B):
            buffer[:k, j0 : j0 + B] = arr[j0 : j0 + B].T

    def unpack(self, buffer: np.ndarray) -> np.ndarray:
        out = np.empty((self.p, self.words), dtype=buffer.dtype)
        self._unpack_rows(buffer, out, 0, self.words, 0)
        return out

    def _unpack_rows(
        self, buffer: np.ndarray, out: np.ndarray, lo: int, hi: int, column: int
    ) -> None:
        q = out.shape[0]
        rows = (
            self._UNPACK_ROWS
            if q >= self._UNPACK_NARROW_LANES
            else self._UNPACK_NARROW_ROWS
        )
        shift = column - lo
        for i0 in range(lo, hi, rows):
            i1 = min(i0 + rows, hi)
            out[:, shift + i0 : shift + i1] = buffer[i0:i1, :q].T

    def _clear_tail(self, buffer: np.ndarray, k: int) -> None:
        buffer[k:] = 0  # rows [0, k) are fully overwritten by pack

    def _clear_words(self, buffer: np.ndarray, start: int, stop: int) -> None:
        buffer[start:stop] = 0

    def word_view(self, buffer: np.ndarray) -> np.ndarray:
        return buffer  # contiguous (n, p) rows


class RowWise(Arrangement):
    """``b_j[i] ↦ j·n + i`` — non-coalesced (buffer: ``(p, n)``)."""

    name = "row"

    def global_address(self, local, j):
        return np.asarray(j, dtype=np.int64) * self.words + np.asarray(local, dtype=np.int64)

    def _fill_trace(self, local_trace: np.ndarray, out: np.ndarray) -> None:
        out[:] = local_trace[:, None]  # broadcast a(i), then add the j·n row
        out += (self._threads * self.words)[None, :]

    def allocate(self, dtype: np.dtype) -> np.ndarray:
        return np.zeros((self.p, self.words), dtype=dtype)

    def pack(self, inputs: np.ndarray, buffer: np.ndarray) -> None:
        arr = self._check_inputs(inputs)
        buffer[:, : arr.shape[1]] = arr

    def unpack(self, buffer: np.ndarray) -> np.ndarray:
        return buffer.copy()

    def _unpack_rows(
        self, buffer: np.ndarray, out: np.ndarray, lo: int, hi: int, column: int
    ) -> None:
        out[:, column : column + hi - lo] = buffer[: out.shape[0], lo:hi]

    def word_view(self, buffer: np.ndarray) -> np.ndarray:
        return buffer.T  # stride-n columns

    def _clear_tail(self, buffer: np.ndarray, k: int) -> None:
        buffer[:, k:] = 0  # columns [0, k) are fully overwritten by pack

    def _clear_words(self, buffer: np.ndarray, start: int, stop: int) -> None:
        buffer[:, start:stop] = 0


class PaddedRowWise(Arrangement):
    """Row-wise with per-row padding: ``b_j[i] ↦ j·(n + pad) + i``.

    The textbook *bank-conflict* fix for shared memory: when ``n`` is a
    multiple of the width ``w``, plain row-wise puts every thread's step
    address in the same bank (a ``w``-way DMM conflict); padding each row
    by ``pad`` words (default 1, making the stride coprime to ``w``) spreads
    the warp across distinct banks — conflict-free on the **DMM**.

    The instructive negative result (ablation ``abl-padding``): the same
    trick buys *nothing* on the **UMM**, whose cost counts address groups,
    not banks — the ``p`` padded addresses still land in ~``p`` different
    groups.  Coalescing (column-wise) is the only fix for global memory,
    which is exactly the paper's point.
    """

    name = "padded-row"

    def __init__(self, words: int, p: int, pad: int = 1) -> None:
        super().__init__(words, p)
        if pad < 1:
            raise ArrangementError(f"pad must be >= 1, got {pad}")
        self.pad = int(pad)

    @property
    def stride(self) -> int:
        """Padded row stride ``n + pad``."""
        return self.words + self.pad

    @property
    def total_words(self) -> int:
        return self.stride * self.p

    def global_address(self, local, j):
        return np.asarray(j, dtype=np.int64) * self.stride + np.asarray(
            local, dtype=np.int64
        )

    def _fill_trace(self, local_trace: np.ndarray, out: np.ndarray) -> None:
        out[:] = local_trace[:, None]
        out += (self._threads * self.stride)[None, :]

    def allocate(self, dtype: np.dtype) -> np.ndarray:
        return np.zeros((self.p, self.stride), dtype=dtype)

    def pack(self, inputs: np.ndarray, buffer: np.ndarray) -> None:
        arr = self._check_inputs(inputs)
        buffer[:, : arr.shape[1]] = arr

    def unpack(self, buffer: np.ndarray) -> np.ndarray:
        return buffer[:, : self.words].copy()

    def _unpack_rows(
        self, buffer: np.ndarray, out: np.ndarray, lo: int, hi: int, column: int
    ) -> None:
        out[:, column : column + hi - lo] = buffer[: out.shape[0], lo:hi]

    def word_view(self, buffer: np.ndarray) -> np.ndarray:
        return buffer.T[: self.words]  # stride-(n+pad) columns

    def _clear_tail(self, buffer: np.ndarray, k: int) -> None:
        buffer[:, k:] = 0  # data tail plus the padding columns

    def _clear_words(self, buffer: np.ndarray, start: int, stop: int) -> None:
        buffer[:, start:stop] = 0


_ARRANGEMENTS = {"column": ColumnWise, "row": RowWise, "padded-row": PaddedRowWise}


def make_arrangement(kind: Union[str, Arrangement], words: int, p: int) -> Arrangement:
    """Resolve an arrangement by name (``"row"`` / ``"column"``) or instance."""
    if isinstance(kind, Arrangement):
        if kind.words != words or kind.p != p:
            raise ArrangementError(
                f"arrangement geometry ({kind.words}, {kind.p}) does not match "
                f"requested ({words}, {p})"
            )
        return kind
    try:
        cls = _ARRANGEMENTS[kind]
    except KeyError:
        raise ArrangementError(
            f"unknown arrangement {kind!r}; expected one of {sorted(_ARRANGEMENTS)}"
        ) from None
    return cls(words, p)
