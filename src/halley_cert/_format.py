"""The text of every scalar the command line prints.

json and csv write floats with 17 significant digits, which parse back to
the same float (``float_text``, ``floats_text``, ``rows_text``), and csv
cells follow ``csv_cell``; ``cli._render_json`` writes json's structure and
its null, true, false, NaN and Infinity. Human output follows
``human_text``, with 6 significant digits.

``rows_text`` writes 1-D float64 arrays, such as a trace's iterates, each
with the bytes ``floats_text`` writes for its list, but in vector
arithmetic; ``array_text`` is its one-row case. A row of one repeated value
repeats one ``float_text``. The other rows run on into one another as
chunks of ``_CHUNK`` entries, so that the rows of a block share one pass. A
chunk of at least ``_CROSSOVER`` entries whose magnitudes all lie in
[1e-3, 1e16), where ``%.17g`` writes fixed notation, is written from its
exact 17-digit integers: with k = floor(log10 |x|), Dekker's error-free
product gives |x| 10^(16 - k) as hi + lo, hi an even integer at least 2^53,
so round-half-even of it is hi + rint(lo), as ``%.17g`` rounds. Where that
integer does not have 17 digits, k is corrected once. Every other chunk, one
whose k is still off, and one with a zero, a subnormal, an infinity or a
NaN, goes down the ``floats_text`` path, one ``%`` per row it holds. A
chunk's text is cut back into its rows by the width of each number, read
from a table by the same key as its bytes."""

import functools
import itertools
from typing import NamedTuple

import numpy as np

_FLOAT = "%.17g"

# float_text(x) writes the float x with 17 significant digits, enough for the
# text to parse back to x; it matches format(float(x), ".17g"). Being a bound
# method of the format string, it runs without a Python-level call per number.
float_text = _FLOAT.__mod__

# Below about 100 entries one % is cheaper than the vector path, whose fixed
# cost is about 35 us on a 2-vCPU x86-64 VM; _CHUNK bounds the vector path's
# temporaries, a few hundred bytes an entry.
_CROSSOVER = 100
_CHUNK = 4096


def floats_text(values: list[float]) -> str:
    """float_text of each float in values, joined by ", ", with one % for
    the whole list."""
    return ", ".join([_FLOAT] * len(values)) % tuple(values)


def rows_text(rows: list[np.ndarray]) -> list[str]:
    """[floats_text(row.tolist()) for row in rows] of 1-D float64 arrays,
    byte for byte; the rows that are not constant share the passes of their
    chunks."""
    pieces = [[] for _ in rows]
    chunk, size = [], 0    # the (row, entries) segments of the open chunk
    for j, row in enumerate(rows):
        bits = row.view(np.int64)
        if row.size and (bits == bits[0]).all():
            pieces[j].append(", ".join([float_text(float(row[0]))] * row.size))
            continue
        start = 0
        while start < row.size:
            stop = min(row.size, start + _CHUNK - size)
            chunk.append((j, row[start:stop]))
            size += stop - start
            start = stop
            if size == _CHUNK:
                _write_chunk(chunk, pieces)
                chunk, size = [], 0
    if chunk:
        _write_chunk(chunk, pieces)
    return [", ".join(p) for p in pieces]


def array_text(a: np.ndarray) -> str:
    """floats_text(a.tolist()) of a 1-D float64 array, byte for byte."""
    return rows_text([a])[0]


def _write_chunk(chunk, pieces) -> None:
    segments = [entries for _, entries in chunk]
    for (j, _), text in zip(chunk, _chunk_texts(segments)):
        pieces[j].append(text)


def _split(v):
    """Veltkamp's split of v, a float or float array, into hi + lo, each of
    at most 26 bits."""
    c = 134217729.0 * v   # 2^27 + 1
    hi = c - (c - v)
    return hi, v - hi


def _digits(tables, ax, k):
    """round-half-even(ax * 10^(16 - k)) exactly, as int64, for 0 <= 16 - k
    <= 20; it has 17 digits where k = floor(log10 ax)."""
    ten_hi, ten_lo = tables.ten_hi.take(16 - k), tables.ten_lo.take(16 - k)
    hi = ax * (ten_hi + ten_lo)
    ax_hi, ax_lo = _split(ax)
    lo = ((ax_hi * ten_hi - hi) + ax_hi * ten_lo + ax_lo * ten_hi) + ax_lo * ten_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _has_17_digits(n) -> bool:
    return n.min() >= 10 ** 16 and n.max() < 10 ** 17


class _Tables(NamedTuple):
    ten_hi: np.ndarray
    ten_lo: np.ndarray
    pieces: np.ndarray
    keep: np.ndarray
    widths: np.ndarray
    trailing: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """The tables of the vector path, built on first use (121 kB).

    ``ten_hi`` and ``ten_lo`` split 10^e for e = 0..20, each an exact double,
    for Dekker's product. A number's row is 40 bytes: ", -0.00" and its first
    digit d0, then ".d" for each of d1..d16, so byte 7 + 2i holds digit i and
    byte 6 + 2i a point before it. ``pieces`` holds these rows' 8-byte pieces
    as uint64: ".d.d.d.d" for each 4-digit group 0000..9999, then ", -0.00d"
    for d0 = 0..9. ``keep`` holds 0xff at the bytes that %.17g writes, and
    ``widths`` their count, per key (k + 3) * 34 + (x < 0) * 17 + the index
    of the last nonzero digit. ``trailing`` counts the trailing zeros of each
    4-digit group, 4 for 0000. All are built without array arithmetic, which
    would add about 0.5 MB of peak memory the first time it runs in a
    process.
    """
    ten_hi, ten_lo = map(np.array, zip(*[_split(float(10 ** e)) for e in range(21)]))
    pieces = np.empty((10010, 8), np.uint8)
    pieces[:10000, 0::2] = ord(".")
    pieces[:10000, 1::2] = np.frombuffer(bytes(itertools.chain.from_iterable(
        itertools.product(b"0123456789", repeat=4))), np.uint8).reshape(10000, 4)
    pieces[10000:] = np.frombuffer(b"".join(b", -0.00%d" % d for d in range(10)),
                                   np.uint8).reshape(10, 8)
    keep = bytearray(19 * 2 * 17 * 40)
    widths = []
    rows = itertools.product(range(-3, 16), (False, True), range(17))
    for row, (k, negative, last) in enumerate(rows):
        kept = [0, 1] + [2] * negative
        if k < 0:    # "0." and -k - 1 zeros, then digits 0..last
            kept += list(range(3, 4 - k)) + [7 + 2 * i for i in range(last + 1)]
        else:        # digits 0..max(k, last), and the point before digit k + 1
            kept += [7 + 2 * i for i in range(max(k, last) + 1)]
            kept += [8 + 2 * k] * (last > k)
        for byte in kept:
            keep[40 * row + byte] = 0xff
        widths.append(len(kept))
    trailing = bytes(4 - len((b"%04d" % g).rstrip(b"0")) for g in range(10000))
    return _Tables(ten_hi, ten_lo, pieces.view(np.uint64).ravel(),
                   np.frombuffer(keep, np.uint8).reshape(-1, 40),
                   np.array(widths, np.int64), np.frombuffer(trailing, np.uint8))


def _chunk_texts(segments: list[np.ndarray]) -> list[str]:
    """floats_text(s.tolist()) of each segment, by the vector path where it
    applies to the chunk they make."""
    a = segments[0] if len(segments) == 1 else np.concatenate(segments)
    m = a.size
    ax = np.abs(a)
    if m < _CROSSOVER or not (ax.min() >= 1e-3 and ax.max() < 1e16):
        return [floats_text(s.tolist()) for s in segments]
    tables = _tables()
    k = np.floor(np.log10(ax)).astype(np.int64)
    n = _digits(tables, ax, k)
    if not _has_17_digits(n):
        # log10 rounds across a power of 10: correct k once
        k = k + (n >= 10 ** 17) - (n < 10 ** 16)
        n = _digits(tables, ax, k)
        if not _has_17_digits(n):
            return [floats_text(s.tolist()) for s in segments]

    # index[j] picks piece j of each row: d0, then four 4-digit groups
    index = np.empty((5, m), np.int64)
    halves = np.empty((2, m), np.int64)
    top = n // 10 ** 8
    halves[1] = n - top * 10 ** 8
    index[0] = top // 10 ** 8
    halves[0] = top - index[0] * 10 ** 8
    index[0] += 10000
    groups = halves // 10 ** 4
    index[1::2] = groups
    index[2::2] = halves - groups * 10 ** 4

    rows = tables.pieces.take(index.T).view(np.uint8)
    trailing_zeros = tables.trailing.take(index[4])
    if not index[4].all():
        # a last group of 0000: count the zeros of all 16 digits after d0
        zero = np.flatnonzero(index[4] == 0)
        trailing_zeros[zero] = np.argmax(rows[zero, 39:6:-2] != ord("0"), axis=1)
    key = (k + 3) * 34 + np.signbit(a) * 17 + 16 - trailing_zeros
    rows &= tables.keep.take(key, axis=0)
    # each segment's text starts after the ", " of its first number
    text = rows.tobytes().translate(None, b"\0").decode("ascii")
    if len(segments) == 1:
        return [text[2:]]
    ends = np.cumsum(tables.widths.take(key))[
        np.cumsum([s.size for s in segments]) - 1].tolist()
    return [text[start + 2:end] for start, end in zip([0] + ends, ends)]


def csv_cell(value) -> str:
    """A csv cell: empty for None, float_text for a float, else human_text."""
    if isinstance(value, (float, np.floating)):
        return float_text(value)
    return "" if value is None else human_text(value)


def csv_text(rows) -> str:
    """The rows, the header first, as csv lines."""
    return "".join(",".join(map(csv_cell, row)) + "\n" for row in rows)


def human_text(value) -> str:
    """none, true, false, a float to 6 significant digits, or str(value)."""
    if value is None:
        return "none"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
    return str(value)
