"""rows_text writes float64 arrays, one row (array_text) or a block of them,
with the bytes of %.17g on their lists."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halley_cert import _format, cli
from halley_cert._format import _CHUNK, _CROSSOVER, array_text, floats_text, rows_text

_SPECIALS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, np.inf, -np.inf, np.nan]


def _log_uniform(rng, m):
    """Magnitudes log-uniform over [1e-5, 1e17], across the vector path's
    range [1e-3, 1e16) on both sides, with random signs."""
    return np.exp(rng.uniform(np.log(1e-5), np.log(1e17), m)) * rng.choice([-1.0, 1.0], m)


def _halfway(rng, m):
    """Points half-way between neighbours of the 17-digit grid, each parsed
    to its nearest float, and one float either side of it."""
    digits = rng.integers(10 ** 16, 10 ** 17, m).tolist()
    k = rng.integers(-3, 16, m).tolist()
    mid = np.array([float(f"{d}5e{e - 17}") for d, e in zip(digits, k)])
    return rng.choice([-1.0, 1.0], m) * np.nextafter(mid, mid * rng.choice([0.0, 2.0, 1.0], m))


def _powers_of_ten(rng, m):
    """10^k and its float neighbours, k from -5 to 17, with random signs."""
    ten = np.array([float(f"1e{e}") for e in rng.integers(-5, 18, m).tolist()])
    return rng.choice([-1.0, 1.0], m) * np.nextafter(ten, ten * rng.choice([0.0, 2.0, 1.0], m))


def _decade(rng, m, j):
    """Magnitudes log-uniform over the decade [10^j, 10^(j+1)), random signs."""
    return np.exp(rng.uniform(j, j + 1, m) * np.log(10.0)) * rng.choice([-1.0, 1.0], m)


def _one_decade(rng, m):
    """_decade for j from -5 to 16, so that whole chunks sit at each k and
    either side of the vector path's range."""
    return _decade(rng, m, rng.integers(-5, 17))


def _exact_ties(rng, m):
    """Odd m 2^-(17 - k) in [10^k, 10^(k+1)), k from -3 to 15: 18 significant
    digits ending in 5, so the 17-digit rounding is an exact tie."""
    k = rng.integers(-3, 16, m)
    q = 17 - k
    lo = np.ceil(np.ldexp(10.0 ** k, q))
    hi = np.minimum(np.ldexp(10.0 ** (k + 1), q), 2.0 ** 53)
    odd = np.floor(rng.uniform(lo, hi) / 2) * 2 + 1
    return rng.choice([-1.0, 1.0], m) * np.ldexp(odd, -q)


_KINDS = {"log": _log_uniform, "decade": _one_decade, "halfway": _halfway,
          "pow10": _powers_of_ten, "ties": _exact_ties}
_EDGE_LENGTHS = [_CROSSOVER - 1, _CROSSOVER, _CROSSOVER + 1, _CHUNK - 1, _CHUNK,
                 _CHUNK + 1, _CHUNK + _CROSSOVER, 2 * _CHUNK + 3]


def _assert_same_bytes(a):
    assert array_text(a) == floats_text(a.tolist())
    assert cli._render_json(a) == cli._render_json(a.tolist())


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(_KINDS)),
       m=st.one_of(st.integers(0, 3 * _CROSSOVER), st.sampled_from(_EDGE_LENGTHS)),
       seed=st.integers(0, 2 ** 32 - 1),
       special=st.none() | st.sampled_from(_SPECIALS))
def test_array_text_is_percent_17g_byte_for_byte(kind, m, seed, special):
    rng = np.random.default_rng(seed)
    a = _KINDS[kind](rng, m)
    if special is not None and m:
        a[rng.integers(m)] = special   # sends its chunk down the % path
    _assert_same_bytes(a)


@settings(max_examples=40, deadline=None)
@given(value=st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(_SPECIALS),
       m=st.sampled_from([1, 2, _CROSSOVER + 1, _CHUNK + 1]))
def test_constant_arrays_repeat_one_float_text(value, m):
    _assert_same_bytes(np.full(m, value))


@pytest.mark.parametrize("j", range(-5, 17))
def test_each_decade_in_and_either_side_of_the_range(j):
    _assert_same_bytes(_decade(np.random.default_rng(j + 5), 2 * _CROSSOVER, j))


def test_zero_and_negative_zero_are_not_one_constant():
    _assert_same_bytes(np.array([0.0, -0.0] * _CROSSOVER))


def test_in_range_chunks_take_the_vector_path(monkeypatch):
    # a test of byte identity alone would pass if every chunk fell back
    rng = np.random.default_rng(5)
    iterate = 1.0 + 0.2 * rng.random(2 * _CHUNK + 100)
    iterate[0] = iterate[-1] = 1.0
    expected = floats_text(iterate.tolist())
    # floor(log10 x) reads k + 1 for the float below 10^(k+1): k is corrected
    below_tens = np.nextafter([float(f"1e{e}") for e in range(-2, 16)] * 6, 0.0)
    expected_below_tens = floats_text(below_tens.tolist())

    def percent_path(values):
        raise AssertionError(f"{len(values)} entries went down the % path")

    monkeypatch.setattr(_format, "floats_text", percent_path)
    assert array_text(iterate) == expected   # chunks of 4096, 4096 and 100
    assert array_text(below_tens) == expected_below_tens
    assert array_text(np.ones(_CHUNK + 1)) == ", ".join(["1"] * (_CHUNK + 1))
    with pytest.raises(AssertionError, match=f"{_CHUNK} entries"):
        array_text(np.concatenate([[0.0], iterate]))


def _iterate_like(rng, m):
    """Entries in [1, 1.2), as the iterates of a Hammerstein solve: in the
    vector path's range, so a block of them reaches it."""
    return 1.0 + 0.2 * rng.random(m)


_ROW_KINDS = dict(_KINDS, iterate=_iterate_like)
# lengths whose rows sit below _CROSSOVER while a block of them is above it,
# and lengths whose rows cross a _CHUNK boundary of the block
_BLOCK_LENGTHS = [_CROSSOVER // 3 + 1, _CROSSOVER // 2, _CROSSOVER - 1, _CROSSOVER + 1,
                  _CHUNK // 3 + 1, _CHUNK - 1, _CHUNK + 1]


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(
           st.sampled_from(sorted(_ROW_KINDS) + ["constant"]),
           st.one_of(st.integers(0, 3 * _CROSSOVER), st.sampled_from(_BLOCK_LENGTHS)),
           st.lists(st.sampled_from(_SPECIALS), max_size=3)),
           min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_block_of_rows_is_each_row_as_its_list(rows, seed):
    # constant, short, out-of-range and iterate-like rows mixed in one block,
    # some holding +-0, subnormals, +-inf or NaN
    rng = np.random.default_rng(seed)
    block = []
    for kind, m, specials in rows:
        if kind == "constant":
            row = np.full(m, rng.choice(_SPECIALS + [1.0, -2.5e-7, 3e20]))
        else:
            row = _ROW_KINDS[kind](rng, m)
            if m and specials:
                row[rng.integers(m, size=len(specials))] = specials
        block.append(row)
    assert rows_text(block) == [floats_text(row.tolist()) for row in block]
    assert cli._render_json(block) == cli._render_json([row.tolist() for row in block])


def test_a_trace_block_takes_one_vector_pass(monkeypatch):
    # u0 = 1 repeats one text; the three other iterates share one chunk, and
    # rows too short for the vector path alone reach it as a block
    rng = np.random.default_rng(11)
    block = [np.ones(512)] + [_iterate_like(rng, 512) for _ in range(3)]
    short = [row[:40] for row in block[1:]]
    expected, expected_short = ([floats_text(row.tolist()) for row in rows]
                                for rows in (block, short))
    chunks = []
    chunk_texts = _format._chunk_texts

    def counted(segments):
        chunks.append([s.size for s in segments])
        return chunk_texts(segments)

    def percent_path(values):
        raise AssertionError(f"{len(values)} entries went down the % path")

    monkeypatch.setattr(_format, "_chunk_texts", counted)
    monkeypatch.setattr(_format, "floats_text", percent_path)
    assert rows_text(block) == expected
    assert chunks == [[512, 512, 512]]
    chunks.clear()
    assert rows_text(short) == expected_short
    assert chunks == [[40, 40, 40]]
    # a block longer than a chunk runs on across rows into the next chunk
    chunks.clear()
    long = [_iterate_like(rng, _CHUNK - 100), _iterate_like(rng, 300)]
    assert rows_text(long) == [", ".join(["%.17g"] * r.size) % tuple(r.tolist())
                               for r in long]
    assert chunks == [[_CHUNK - 100, 100], [200]]
