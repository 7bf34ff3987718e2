"""The driver lemma, executed: the certifier's kernel frame is run as
written, over every small ``(P, TILE, WORDS, k, layout, STRIDE, outputs)``.

``docs/SCHEDULE.md`` proves the tile driver of the native kernel once, for
every ``P``; the certifier then only checks that a kernel *is* that frame.
This test backs the proof by brute force.  It takes the driver text from
:func:`repro.analysis.schedule._render_frame` (the very lines the
certifier holds sources to), translates its few fixed C forms to Python
line by line — any other form fails the test — and runs it with stub
chunks that check and mark the slab.  The clauses checked are the
lemma's:

1. the tiles partition ``[0, P)``, the last one ``P mod TILE`` lanes when
   ``TILE`` does not divide ``P``;
2. before the first chunk the slab holds each real lane's ``k`` input
   words at the slab map and zeros everywhere else the chunks can read
   (words ``[k, WORDS)`` and every word of a ragged tile's absent
   lanes), and the register slab is zero;
3. the slab map is injective inside ``SLAB``;
4. each declared word of each real lane is streamed exactly once, to its
   column of its own output row, after the last chunk, and fenced in the
   same tile; nothing else reaches the output;
5. both slabs are private to a tile: every tile's chunks get a data and a
   register slab no other tile touches, and running the tiles in reverse
   order (any static thread schedule is some order) gives the same image.

The three preprocessor lines around ``#pragma omp`` are the work-sharing
that clause 5 models; they are the only lines not executed.
"""

import itertools
import re

import pytest

from repro.analysis.schedule import ScheduleConfig, _render_frame

N_CHUNKS = 2
UNSET = object()


class Cells:
    """A C array: bounds-checked, uninitialised cells are UNSET."""

    def __init__(self, size, name):
        assert size >= 0, f"{name}[{size}]"
        self.name = name
        self.data = [UNSET] * size

    def __getitem__(self, i):
        assert 0 <= i < len(self.data), f"{self.name}[{i}] out of bounds"
        return self.data[i]

    def __setitem__(self, i, value):
        assert 0 <= i < len(self.data), f"{self.name}[{i}] out of bounds"
        self.data[i] = value


_FOR = re.compile(
    r"^for \(long (\w+) = ([^;]+); \1 < ([^;]+); "
    r"(?:\+\+\1|\1 \+= ([^)]+))\) ?\{?\s*(.*)$"
)
_IF = re.compile(r"^if \((.+?)\) (.+)$")
_DECL = re.compile(r"^(?:int64_t|double) (\w+)\[(.+)\];$")
_LEN = re.compile(r"^long len = \((.+)\) \? (.+) : (.+);$")
_CALL = re.compile(r"^chunk_(\d+)\(slab, regs\);$")
_STREAM = re.compile(r"^stream_word\(&out\[(.+)\], (.+)\);$")
_STORE = re.compile(r"^(\w+)\[(.+)\] = (.+);$")
_KERNEL = re.compile(r"^void repro_bulk_kernel\(.*\) \{$")


def _expr(c):
    return re.sub(r"\bin\b", "in_", re.sub(r"\blen\b", "len_", c))


def _statement(c, indent):
    """One C statement of the frame → Python lines."""
    pad = " " * indent
    m = _FOR.match(c)
    if m:
        var, lo, hi, step, rest = m.groups()
        rng = f"range({_expr(lo)}, {_expr(hi)}, {_expr(step or '1')})"
        if var == "j0":
            rng = f"order({rng})"
        head = [f"{pad}for {var} in {rng}:"]
        return head + (_statement(rest, indent + 4) if rest else [])
    m = _IF.match(c)
    if m:
        return [f"{pad}if {_expr(m.group(1))}:"] + _statement(
            m.group(2), indent + 4
        )
    for form, python in (
        (_DECL, lambda n, s: f"{n} = Cells({_expr(s)}, {n!r})"),
        (_LEN, lambda a, b, c_: f"len_ = ({_expr(b)}) if ({_expr(a)}) else "
                                f"({_expr(c_)})"),
        (_CALL, lambda i: f"chunk({i}, slab, regs, j0, len_)"),
        (_STREAM, lambda o, v: f"stream_word(out, {_expr(o)}, {_expr(v)}, j0)"),
        (_STORE, lambda n, i, v: f"{_expr(n)}[{_expr(i)}] = {_expr(v)}"),
    ):
        m = form.match(c)
        if m:
            return [pad + python(*m.groups())]
    if c == "STREAM_FENCE();":
        return [pad + "fence(j0)"]
    raise AssertionError(f"the lemma test cannot execute frame form {c!r}")


def _driver(layout, outputs):
    """The frame's tile driver, compiled to a Python function."""
    config = ScheduleConfig(
        layout=layout, p=1, words=max(hi for _, hi in outputs), tile=1,
        chunk=1, threads=2, stride=0, outputs=tuple(outputs),
    )
    frame = [line.text for line in _render_frame(
        config, "int64_t", nregs=3, n_chunks=N_CHUNKS, hinted=False
    )]
    start = next(i for i, text in enumerate(frame) if _KERNEL.match(text))
    python = ["def kernel(in_, k, out, order):"]
    for text in frame[start + 1:]:
        c = text.strip()
        if c.startswith("#") or c == "}":
            continue
        indent = len(text) - len(text.lstrip())
        python += _statement(c, indent)
    return "\n".join(python)


class _Run:
    """Stub chunks, streamed stores and fences that check the lemma."""

    def __init__(self, P, TILE, WORDS, k, layout, STRIDE, outputs):
        self.P, self.TILE, self.WORDS, self.k = P, TILE, WORDS, k
        self.at = (
            (lambda a, jj: a * TILE + jj) if layout == "column"
            else (lambda a, jj: jj * STRIDE + a)
        )
        self.column = {}
        for lo, hi in outputs:
            for a in range(lo, hi):
                self.column[a] = len(self.column)
        self.out_words = len(self.column)
        self.lanes = []  # (j0, len) per tile, from the first chunk
        self.calls = {}  # j0 -> chunk indices called
        self.events = []  # ("stream" | "fence", j0) in program order
        self.slabs = {}  # j0 -> the (slab, regs) its chunks were given

    def chunk(self, index, slab, regs, j0, len_):
        called = self.calls.setdefault(j0, [])
        assert called == list(range(index)), "chunks out of order"
        called.append(index)
        assert self.slabs.setdefault(j0, (slab, regs)) == (slab, regs)
        cells = [self.at(a, jj) for a in range(self.WORDS)
                 for jj in range(self.TILE)]
        assert len(set(cells)) == len(cells), "slab map not injective"
        if index == 0:
            self.lanes.append((j0, len_))
            assert all(regs[i] == 0 for i in range(len(regs.data)))
            for a in range(self.WORDS):
                for jj in range(self.TILE):
                    real = jj < len_ and a < self.k
                    want = ("in", j0 + jj, a) if real else 0
                    assert slab[self.at(a, jj)] == want, (a, jj)
        if index == N_CHUNKS - 1:  # compute: each lane's words, its own
            for a in range(self.WORDS):
                for jj in range(self.TILE):
                    slab[self.at(a, jj)] = ("res", j0 + jj, a)

    def stream_word(self, out, index, value, j0):
        assert self.calls.get(j0) == list(range(N_CHUNKS)), "streamed early"
        assert out[index] is UNSET, f"out[{index}] written twice"
        out[index] = value
        self.events.append(("stream", j0))

    def fence(self, j0):
        self.events.append(("fence", j0))

    def image(self, kernel, order):
        in_ = Cells(self.P * self.k, "in")
        for lane in range(self.P):
            for a in range(self.k):
                in_[lane * self.k + a] = ("in", lane, a)
        out = Cells(self.P * self.out_words, "out")
        kernel(in_, self.k, out, order)
        return out.data

    def check(self, out):
        P, TILE = self.P, self.TILE
        # 1. an exact partition, tiles of TILE lanes and one tail
        covered = sorted(lane for j0, n in self.lanes
                         for lane in range(j0, j0 + n))
        assert covered == list(range(P)), self.lanes
        full, tail = divmod(P, TILE)
        assert sorted(n for _, n in self.lanes) == (
            [tail] * bool(tail) + [TILE] * full)
        # 5. tile-private slabs
        arrays = [a for pair in self.slabs.values() for a in pair]
        assert len({id(a) for a in arrays}) == len(arrays), "shared slab"
        # 4. each declared word of each real lane, once, in its column
        for lane in range(P):
            for a, col in self.column.items():
                assert out[lane * self.out_words + col] == ("res", lane, a)
        # ... fenced before the tile ends
        for t, (kind, j0) in enumerate(self.events):
            if kind == "stream":
                rest = self.events[t + 1:]
                later = next((e for e in rest if e != ("stream", j0)), None)
                assert later == ("fence", j0), "a stream left unfenced"


def _declarations(words):
    """Every sorted, disjoint, non-empty list of ranges inside [0, words)."""
    for marks in itertools.product((None, "start", "join"), repeat=words):
        ranges, ok = [], True
        for a, mark in enumerate(marks):
            if mark == "start":
                ranges.append([a, a + 1])
            elif mark == "join":
                if not ranges or ranges[-1][1] != a:
                    ok = False
                    break
                ranges[-1][1] = a + 1
        if ok and ranges:
            yield tuple(map(tuple, ranges))


def _cases():
    for words in range(1, 4):
        for outputs in _declarations(words):
            yield "column", words, 0, outputs
            for stride in (words, words + 1):
                yield "row", words, stride, outputs


@pytest.mark.parametrize("layout, words, stride, outputs", list(_cases()))
def test_the_frame_satisfies_the_lemma(layout, words, stride, outputs):
    source = _driver(layout, outputs)
    for P in range(1, 8):
        for TILE in range(1, 5):
            slab = (words if layout == "column" else stride) * TILE
            env = dict(
                P=P, TILE=TILE, WORDS=words, STRIDE=stride, SLAB=slab,
                NREGS=3, THREADS=2, OUT_WORDS=sum(hi - lo for lo, hi in outputs),
                Cells=Cells,
            )
            for k in range(words + 1):
                images = []
                for order in (list, lambda r: list(r)[::-1]):
                    run = _Run(P, TILE, words, k, layout, stride, outputs)
                    namespace = dict(env, chunk=run.chunk, fence=run.fence,
                                     stream_word=run.stream_word)
                    exec(source, namespace)
                    image = run.image(namespace["kernel"], order)
                    run.check(image)
                    images.append(image)
                assert images[0] == images[1], "tiles are not independent"


def test_the_translation_covers_the_whole_driver():
    source = _driver("column", ((0, 1), (2, 3)))
    for form in ("order(range(0, P, TILE))", "slab = Cells(SLAB", "regs = Cells",
                 "if len_ < TILE:", "chunk(1, slab, regs", "stream_word(out",
                 "fence(j0)", "in_[(j0 + jj) * k + a]"):
        assert form in source, form
