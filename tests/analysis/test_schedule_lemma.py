"""The driver lemma, executed: the certifier's kernel frame is run as
written, over every small
``(P, TILE, WORDS, k, layout, STRIDE, IMAP, output slots)``.

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
2. before the first chunk the slab holds, at the slab map, input word
   ``IMAP[s]`` of each real lane in every slot ``s`` with ``IMAP[s] < k``,
   and zeros everywhere else the chunks can read (slots ``[r, WORDS)``
   and every slot of a ragged tile's absent lanes), and the register
   slab is zero;
3. the slab map is injective inside ``SLAB``;
4. each output slot of each real lane is streamed exactly once, to its
   column of its own output row, after the last chunk, and fenced in the
   same tile; nothing else reaches the output;
5. both slabs are private to a tile: every tile's chunks get a data and a
   register slab no other tile touches, and running the tiles in reverse
   order (any static thread schedule is some order) gives the same image.

The three preprocessor lines around ``#pragma omp`` are the work-sharing
that clause 5 models; they are the only lines not executed.  ``IMAP`` is
read from the frame's own table line.
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
_WHILE = re.compile(r"^while \((.+)\) \+\+(\w+);$")
_LONG = re.compile(r"^long (\w+) = (-?\d+);$")
_IMAP = re.compile(r"^static const long IMAP\[NREAD \+ 1\] = \{(.*)\};$")
_COMMENT = re.compile(r"\s*/\*.*?\*/")
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
    m = _WHILE.match(c)
    if m:
        cond, var = m.groups()
        return [f"{pad}while {_expr(cond)}:", f"{pad}    {var} += 1"]
    m = _IF.match(c)
    if m:
        return [f"{pad}if {_expr(m.group(1))}:"] + _statement(
            m.group(2), indent + 4
        )
    for form, python in (
        (_LONG, lambda n, v: f"{n} = {v}"),
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


def _runs(slots):
    """Output slots in column order → maximal runs of consecutive slots."""
    runs = []
    for slot in slots:
        if runs and runs[-1][1] == slot:
            runs[-1][1] += 1
        else:
            runs.append([slot, slot + 1])
    return tuple(map(tuple, runs))


def _driver(layout, words, slots, imap, memory_words):
    """The frame's tile driver, compiled to a Python function, and the
    ``IMAP`` its table line declares."""
    config = ScheduleConfig(
        layout=layout, p=1, words=words, tile=1, chunk=1, threads=2,
        stride=0, outputs=_runs(slots), imap=tuple(imap),
        memory_words=memory_words,
    )
    frame = [line.text for line in _render_frame(
        config, "int64_t", nregs=3, n_chunks=N_CHUNKS, hinted=False
    )]
    table = next(_IMAP.match(text) for text in frame if _IMAP.match(text))
    start = next(i for i, text in enumerate(frame) if _KERNEL.match(text))
    python = ["def kernel(in_, k, out, order):"]
    for text in frame[start + 1:]:
        c = _COMMENT.sub("", text).strip()
        if c.startswith("#") or c == "}":
            continue
        indent = len(text) - len(text.lstrip())
        python += _statement(c, indent)
    return "\n".join(python), [int(a) for a in table.group(1).split(",")]


class _Run:
    """Stub chunks, streamed stores and fences that check the lemma."""

    def __init__(self, P, TILE, WORDS, k, layout, STRIDE, slots, imap):
        self.P, self.TILE, self.WORDS, self.k = P, TILE, WORDS, k
        self.imap = imap
        self.at = (
            (lambda a, jj: a * TILE + jj) if layout == "column"
            else (lambda a, jj: jj * STRIDE + a)
        )
        self.slots = list(slots)  # the output slot of each column
        self.out_words = len(self.slots)
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
            for s in range(self.WORDS):
                for jj in range(self.TILE):
                    real = (jj < len_ and s < len(self.imap)
                            and self.imap[s] < self.k)
                    want = ("in", j0 + jj, self.imap[s]) if real else 0
                    assert slab[self.at(s, jj)] == want, (s, jj)
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
        # 4. each output slot of each real lane, once, in its column
        for lane in range(P):
            for col, slot in enumerate(self.slots):
                assert out[lane * self.out_words + col] == ("res", lane, slot)
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


def _check_lemma(layout, words, stride, slots, imap, memory_words, ks):
    source, table = _driver(layout, words, slots, imap, memory_words)
    assert table == [*imap, memory_words]
    for P in range(1, 8):
        for TILE in range(1, 5):
            slab = (words if layout == "column" else stride) * TILE
            env = dict(
                P=P, TILE=TILE, WORDS=words, STRIDE=stride, SLAB=slab,
                NREGS=3, THREADS=2, OUT_WORDS=len(slots), NREAD=len(imap),
                IMAP=table, Cells=Cells,
            )
            for k in ks:
                images = []
                for order in (list, lambda r: list(r)[::-1]):
                    run = _Run(P, TILE, words, k, layout, stride, slots, imap)
                    namespace = dict(env, chunk=run.chunk, fence=run.fence,
                                     stream_word=run.stream_word)
                    exec(source, namespace)
                    image = run.image(namespace["kernel"], order)
                    run.check(image)
                    images.append(image)
                assert images[0] == images[1], "tiles are not independent"


@pytest.mark.parametrize("layout, words, stride, outputs", list(_cases()))
def test_the_frame_satisfies_the_lemma(layout, words, stride, outputs):
    # Every sorted declaration under the identity compaction (every word
    # read first, so IMAP is [0, WORDS)), for every k.
    slots = [a for lo, hi in outputs for a in range(lo, hi)]
    _check_lemma(layout, words, stride, slots, tuple(range(words)), words,
                 range(words + 1))


def _unsorted_slot_orders(words):
    """Every injective sequence of output slots in [0, words) that is out
    of slot order: runs with negative shifts."""
    for n in range(2, words + 1):
        for slots in itertools.permutations(range(words), n):
            if list(slots) != sorted(slots):
                yield slots


def _maps(words, memory_words):
    """Increasing input maps of source words: the empty one, every one of
    one slot, and every full-width one (which leaves one word unmapped
    when ``memory_words = words + 1``)."""
    for n in range(words + 1):
        if n <= 1 or n == words:
            yield from itertools.combinations(range(memory_words), n)


def _compacted_cases():
    # Unsorted output slots over the identity map with no and all inputs,
    # then every map under one output and every k: the scatter and the
    # gather are independent parts of the frame.
    for words in range(1, 4):
        cases = [(slots, tuple(range(words)), words, (0, words))
                 for slots in _unsorted_slot_orders(words)]
        cases += [((0,), imap, words + 1, tuple(range(words + 2)))
                  for imap in _maps(words, words + 1)]
        for slots, imap, memory_words, ks in cases:
            yield "column", words, 0, slots, imap, memory_words, ks
            for stride in (words, words + 1):
                yield "row", words, stride, slots, imap, memory_words, ks


@pytest.mark.parametrize(
    "layout, words, stride, slots, imap, memory_words, ks",
    list(_compacted_cases()),
)
def test_the_frame_satisfies_the_lemma_under_compaction(
    layout, words, stride, slots, imap, memory_words, ks
):
    _check_lemma(layout, words, stride, slots, imap, memory_words, ks)


def test_the_translation_covers_the_whole_driver():
    source, _ = _driver("column", 3, (2, 0), (1, 2), 4)
    for form in ("order(range(0, P, TILE))", "slab = Cells(SLAB", "regs = Cells",
                 "if len_ < TILE:", "chunk(1, slab, regs", "stream_word(out",
                 "fence(j0)", "in_[(j0 + jj) * k + IMAP[a]]",
                 "while IMAP[r] < k:", "range(r, WORDS", "OUT_WORDS + a - 2,",
                 "OUT_WORDS + a + 1,"):
        assert form in source, form
