import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agq import benchmarks, simulator
from agq.agcode import LinearCode, build_onepoint_code, dual, hermitian_dual, min_distance
from agq.curve import hermitian_curve, superelliptic_curve
from agq.gf import field
from agq.linalg import _column_table, right_nullspace
from agq.simulator import (
    RateResult,
    SimRun,
    _decode_batch,
    _draw_shared,
    _reference_draw,
    _trial_rng,
    encode,
    run_simulation,
    run_sweep,
    write_results_csv,
    write_series_csv,
)
from oracles import (TabledField, apply_random_errors, decode_word, naive_codewords,
                     naive_min_distance)


@pytest.fixture(scope="module")
def code():
    return benchmarks.benchmark_code_8_3()


@functools.cache
def _tabled(p, e, modulus):
    return TabledField(p, e, modulus)


def reference_decode(code, received):
    """The oracle's single-word decoder on `code`'s parity check."""
    F = code.field
    return decode_word(_tabled(F.p, F.e, F.modulus), code.parity_check.tolist(), received)


# ---------------------------------------------------------------------------
# encode


def test_encode_zero_message(code):
    assert not encode(code, [0, 0, 0]).any()


def test_encode_identity_code():
    sat = benchmarks.saturated_code_4_4()
    # saturated generator is a basis of the full space, not necessarily I;
    # build a literal identity code instead
    ident = LinearCode.from_generator(field(2, 2), np.eye(4, dtype=np.int64))
    msg = np.array([1, 2, 3, 0])
    assert np.array_equal(encode(ident, msg), msg)
    assert encode(sat, [0, 0, 0, 0]).shape == (4,)


def test_encode_length_check(code):
    with pytest.raises(ValueError):
        encode(code, [1, 2])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=3, max_size=3),
       st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_encode_is_linear(m1, m2):
    code = benchmarks.benchmark_code_8_3()
    F = code.field
    lhs = encode(code, F.vadd(np.array(m1), np.array(m2)))
    rhs = F.vadd(encode(code, m1), encode(code, m2))
    assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# streams


def numpy_draw(seed, rate_index, trial, n, q):
    """One trial's draws from numpy's own Philox Generator."""
    key = np.array([seed, ((rate_index + 1) << 44) | trial], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.random(n), rng.integers(0, q - 1, size=n)


# the rates of the draw tests: no error rows, some, nearly all, all
DRAW_RATES = [0.0, 0.05, 0.5, 1.0]


def assert_draw_matches_reference(seed, rate_index, lo, hi, n, q, rates=DRAW_RATES):
    """`_draw_shared` of one shape at each of `rates`, at floors 1 and
    3: every row of its hit matrix, an error-free one included, is where
    the reference trial's uniforms are below the rate, and its weight is
    their count; its rows are those of weight at least the floor, and each
    has the reference offsets + 1 where hit and 0 elsewhere.  At floor 1
    that is every row with a hit."""
    uniforms, offsets = map(np.array, zip(*(_reference_draw(seed, rate_index, t, n, q)
                                            for t in range(lo, hi))))
    for rate in rates:
        want = uniforms < rate
        patterns = np.where(want, offsets + 1, 0)
        for floor in (1, 3):
            hit, weights, rows, errors = _draw_shared(seed, rate_index, lo, hi, [(n, q)], rate, [floor])[0]
            context = (seed, rate_index, lo, n, q, rate, floor)
            assert (hit.shape, hit.dtype) == ((hi - lo, n), np.bool_), context
            wrong = np.flatnonzero((hit != want).any(axis=1))
            assert len(wrong) == 0, (lo + wrong[:5], context)
            assert np.array_equal(weights, want.sum(axis=1)), context
            assert np.array_equal(rows, np.flatnonzero(want.sum(axis=1) >= floor)), context
            assert (errors.shape, errors.dtype) == ((len(rows), n), np.int64), context
            wrong = np.flatnonzero((errors != patterns[rows]).any(axis=1))
            assert len(wrong) == 0, (lo + rows[wrong[:5]], context)


# (n, q): even and odd n (an odd n leaves the high half of its last
# replacement word unread), GF(2) with no replacement draws, replacement
# ranges that are not a power of two, one- and two-symbol words, a long
# Hermitian-sized word
STREAM_SHAPES = [(8, 4), (7, 4), (15, 9), (35, 25), (7, 2), (9, 2), (5, 2), (6, 27),
                 (1, 4), (1, 9), (2, 9), (512, 4096)]


def test_vectorised_draw_matches_numpy_streams():
    # 11 shapes x 5 seeds x 200 trials, plus 5 x 20 + 1000 trials of the
    # long word: 12 100 (key, trial) pairs, each at every rate of
    # DRAW_RATES; the seeds include both sides of 2^63 and the largest
    # 64-bit seed
    seeds = [0, 7, 2**62 + 1, 2**63 + 5, 2**64 - 1]
    for i, (n, q) in enumerate(STREAM_SHAPES):
        for j, seed in enumerate(seeds):
            lo = (i * 7919 + j * 104729) % 50_000
            trials = 20 if n > 100 else 200
            assert_draw_matches_reference(seed, (i + j) % 5, lo, lo + trials, n, q)
    assert_draw_matches_reference(2**64 - 1, 3, 0, 1000, 512, 4096)


def test_reference_draw_is_numpys_stream():
    # `_reference_draw`, the oracle of the draw tests, against numpy's
    # Generator read here, for a few shapes, seeds and trials
    for n, q in STREAM_SHAPES[:6]:
        for seed, t in [(0, 0), (2**63 + 5, 77), (2**64 - 1, 4099)]:
            for got, want in zip(_reference_draw(seed, 2, t, n, q), numpy_draw(seed, 2, t, n, q)):
                assert got.dtype == want.dtype and np.array_equal(got, want)


# a shape alone at floor 1, and four shapes sharing its streams at
# floors that pick different rows at rate 0.5: the shapes of n = 35 and
# n = 33 read tail blocks past the 9 uniform ones, the shorter two read
# their replacement words from those
BLOCKING_DRAWS = [([(35, 25)], [1]), ([(35, 25), (33, 9), (15, 9), (7, 2)], [18, 14, 8, 2])]


def test_draw_rows_do_not_depend_on_philox_block_size(monkeypatch):
    # each shape's shared draw is also its draw alone, where its own heavy
    # rows are the only ones that read tail blocks.  Then `run_sweep`'s
    # chunks, glued together, are one draw of all its trials: 7 Philox
    # blocks make chunks of one trial, and 100 chunks of 11 trials for the
    # mixed codes, which do not divide the 300 trials; rate 0 draws nothing
    shapes, floors = BLOCKING_DRAWS[1]
    for rate in DRAW_RATES:
        shared = _draw_shared(5, 1, 100, 400, shapes, rate, floors)
        for shape, floor, drawn in zip(shapes, floors, shared):
            alone = _draw_shared(5, 1, 100, 400, [shape], rate, [floor])[0]
            assert all(map(np.array_equal, drawn, alone)), (shape, rate)
    chunks = {}
    real = simulator._draw_shared

    def spy(seed, rate_index, lo, hi, shapes, rate, floors):
        drawn = real(seed, rate_index, lo, hi, shapes, rate, floors)
        chunks.setdefault(rate_index, []).append((lo, hi, drawn))
        return drawn

    codes = mixed_codes()
    shapes = [(code.n, code.field.order) for code in codes]
    floors = [simulator._decoder_table(code).floor for code in codes]
    monkeypatch.setattr(simulator, "_draw_shared", spy)
    for philox_blocks, size in [(7, 1), (100, 11)]:
        chunks.clear()
        monkeypatch.setattr(simulator, "PHILOX_BLOCKS", philox_blocks)
        run_sweep(codes, DRAW_RATES, 300, 5)
        for i, rate in enumerate(DRAW_RATES[1:], 1):
            bounds = [(lo, hi) for lo, hi, _ in chunks[i]]
            assert bounds == [(lo, min(lo + size, 300)) for lo in range(0, 300, size)], rate
            whole = real(5, i, 0, 300, shapes, rate, floors)
            for j, drawn in enumerate(whole):
                glued = [np.concatenate(parts) for parts in zip(*(
                    (part[j].hit, part[j].weights, lo + part[j].rows, part[j].errors)
                    for lo, _, part in chunks[i]))]
                assert all(map(np.array_equal, drawn, glued)), (shapes[j], rate, philox_blocks)


# rates at the ends of the uniform threshold T = ceil(rate * 2^53): 2^53,
# whose T << 11 = 2^64 does not fit a uint64, 2^53 - 1, and 1, the least
# positive threshold, at 2^-53 and at 1e-17 below it
EDGE_RATES = [1.0, math.nextafter(1.0, 0.0), 2.0**-53, 1e-17]


def test_draw_matches_the_reference_at_the_threshold_edges():
    # the sweep shapes and a GF(2) shape, at the largest seed
    for i, (n, q) in enumerate([(8, 4), (15, 9), (35, 25), (9, 2)]):
        assert_draw_matches_reference(2**64 - 1, i, 300, 700, n, q, EDGE_RATES)


def test_uniform_test_is_exact_on_either_side_of_each_threshold(monkeypatch):
    # every stream reads the words on either side of T << 11 for the
    # threshold T of each rate, and the ends of the uint64 range, in place
    # of its Philox words: each hit is numpy's (w >> 11) * 2^-53 < rate
    rates = [*EDGE_RATES, 0.0, 0.05, 0.5]
    values = {0, 1, 2**64 - 1}
    for rate in rates:
        edge = math.ceil(rate * 2.0**53) << 11
        values |= {w for w in (edge - 1, edge) if 0 <= w < 2**64}
    stream = np.array(sorted(values), dtype=np.uint64)
    n = len(stream)
    padded = np.append(stream, np.zeros(-n % 4, dtype=np.uint64))

    def words(key0, key1, blocks, first=0):
        assert (blocks, first) == (len(padded) // 4, 0)
        return tuple(np.tile(padded[i::4], (len(key1), 1)) for i in range(4))

    monkeypatch.setattr(simulator, "_philox_words", words)
    for rate in rates:
        want = (stream >> np.uint64(11)) * 2.0**-53 < rate
        (hit, weights, rows, _), = _draw_shared(0, 0, 0, 3, [(n, 2)], rate, [1])
        assert all(np.array_equal(row, want) for row in hit), rate
        assert list(weights) == [want.sum()] * 3 and len(rows) == 3 * want.any(), rate


KEY_WORDS = [0, 2**63 - 1, 2**63, 2**64 - 1]


@pytest.mark.parametrize("key0", KEY_WORDS, ids=hex)
@pytest.mark.parametrize("key1", KEY_WORDS, ids=hex)
def test_philox_words_equal_numpys_raw_stream(key0, key1):
    # both key words at the edges of the uint64 range, so the Weyl key
    # increments between rounds wrap; one key, and 50 keys counting up
    # from key1 (wrapping past 2^64 - 1); the stream from its first block,
    # and tails of it from later first blocks.  The kernel returns one
    # array per counter word, interleaved here into stream order
    keys1 = (key1 + np.arange(50, dtype=object)) % 2**64
    for first in (0, 1, 9):
        for blocks in range(1, 17):
            for ks in (keys1[:1], keys1):
                words = simulator._philox_words(np.full((1, 1), key0, dtype=np.uint64),
                                                np.array(ks, dtype=np.uint64).reshape(-1, 1),
                                                blocks, first)
                assert len(words) == 4
                assert all((w.shape, w.dtype) == ((len(ks), blocks), np.uint64) for w in words)
                got = np.stack(words, axis=-1).reshape(len(ks), 4 * blocks)
                for row, k1 in zip(got, ks):
                    stream = np.random.Philox(key=np.array([key0, k1], dtype=np.uint64))
                    assert np.array_equal(row, stream.random_raw(4 * (first + blocks))[4 * first:])


def test_draw_computes_tail_blocks_only_for_the_heavy_rows_that_read_them(monkeypatch):
    # the sweep codes share 9 uniform blocks per trial, for n = 35, in
    # chunks of 16384 // 9 = 1820 trials: 1820 and 1180 at 3000 trials.
    # Only [35,7]_25's replacement words run past them, to block 14, so
    # only its heavy rows get the 5 tail blocks, in one call per chunk
    # that has any, and only they are decoded.  Its whole stream is 14
    # blocks; no rate computes more per trial, and at rate 1, where every
    # row is heavy, exactly that
    calls, heavy = [], []
    real_words, real_decode = simulator._philox_words, simulator._decode_batch

    def words(key0, key1, blocks, first=0):
        calls.append((int(key1[0, 0]) >> 44, len(key1), blocks, first))
        return real_words(key0, key1, blocks, first)

    def decode(code, received, columns):
        heavy.append((code.n, len(received)))
        return real_decode(code, received, columns)

    monkeypatch.setattr(simulator, "_philox_words", words)
    monkeypatch.setattr(simulator, "_decode_batch", decode)
    codes = benchmarks.sweep_codes()
    rates = (0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0)
    trials = 3000
    run_sweep(codes, rates, trials, 7)
    tails = [(i, rows) for i, rows, blocks, first in calls if first]
    assert [(blocks, first) for _, _, blocks, first in calls if first] == [(5, 9)] * len(tails)
    # rates 0.5, 0.8 and 1: 1 + 3, 1393 + 851 and 1820 + 1180 heavy rows
    assert tails == [(5, 1), (5, 3), (6, 1393), (6, 851), (7, 1820), (7, 1180)]
    assert [rows for n, rows in heavy if n == 35] == [rows for _, rows in tails]
    for i, rate in enumerate(rates):
        mine = [call for call in calls if call[0] == i + 1]
        assert [(rows, blocks) for _, rows, blocks, first in mine if not first] == [(1820, 9), (1180, 9)]
        assert sum(rows * blocks for _, rows, blocks, _ in mine) <= 14 * trials, rate


def test_draw_temporaries_are_bounded():
    # a Hermitian q=8 sized chunk, as `_transmit` draws it: n = 512 over
    # GF(4096) fills 128 uniform blocks per trial, so a chunk is 16384 //
    # 128 = 128 trials.  At a rate that puts an error in every trial and
    # draws every row's pattern, the whole draw, outputs included, peaks
    # under 8 MB; the same chunk shared with two shorter shapes too.  At a
    # low rate the chunk holds its bool hit matrix and a few heavy rows,
    # under 4 MB
    import tracemalloc

    def traced(shapes, trials, rate, floors):
        tracemalloc.start()
        try:
            drawn = _draw_shared(3, 0, 0, trials, shapes, rate, floors)
            return (drawn, *tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()

    for shapes in ([(512, 4096)], [(35, 25), (512, 4096), (8, 4)]):
        trials = simulator.PHILOX_BLOCKS // simulator._head_blocks(shapes)
        assert trials == 128
        drawn, outputs, peak = traced(shapes, trials, 0.5, [1] * len(shapes))
        assert sum(errors.nbytes for *_, errors in drawn) + (trials * 512) <= outputs
        assert peak < 8 << 20, shapes
        drawn, outputs, peak = traced(shapes, trials, 0.002, [4] * len(shapes))
        assert all(len(rows) < 20 for _, _, rows, _ in drawn), shapes
        assert peak < 4 << 20, shapes


def test_transmit_draws_at_most_one_philox_pass_of_trials(monkeypatch):
    # every chunk that `_transmit` passes to `_draw_shared` is at most
    # PHILOX_BLOCKS // ceil(n_max / 4) trials, and the chunks tile the
    # trials in order: the sweep (9 blocks, 1820 trials), an n = 512 code
    # over GF(64) (128 blocks, 128 trials) and a GF(2) code with no
    # replacement words (2 blocks, 8192 trials)
    chunks = []
    real = simulator._draw_shared

    def spy(seed, rate_index, lo, hi, shapes, rate, floors):
        chunks.append((rate_index, lo, hi))
        return real(seed, rate_index, lo, hi, shapes, rate, floors)

    monkeypatch.setattr(simulator, "_draw_shared", spy)
    long_code = build_onepoint_code(hermitian_curve(8), 9)
    assert (long_code.n, long_code.field.order) == (512, 64)
    for codes, trials, limit in [(benchmarks.sweep_codes(), 2000, 1820), ([long_code], 300, 128),
                                 ([gf2_hamming_7_4()], 20000, 8192)]:
        chunks.clear()
        run_sweep(codes, (0.0, 0.01, 0.3), trials, 3)
        n_max = max(code.n for code in codes)
        assert limit == simulator.PHILOX_BLOCKS // -(-n_max // 4)
        assert {i for i, *_ in chunks} == {1, 2}  # rate 0 draws nothing
        for i in (1, 2):
            mine = [(lo, hi) for j, lo, hi in chunks if j == i]
            assert mine == [(lo, min(lo + limit, trials)) for lo in range(0, trials, limit)], n_max


def lemire_rejected(seed, rate_index, trial, n, q):
    """Whether numpy rejected one of the trial's bounded uint32 draws.

    Up to the first rejection the stream is read in the plain layout: n
    uniform words, then replacement halves.  Lemire's method rejects u
    for range m when (u * m) mod 2^32 < (2^32 - m) mod m.
    """
    key = np.array([seed, ((rate_index + 1) << 44) | trial], dtype=np.uint64)
    words = np.random.Philox(key=key).random_raw(n + (n + 1) // 2)[n:]
    u = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).reshape(-1)[:n]
    m = q - 1
    return m > 1 and bool(((u * m) & 0xFFFFFFFF < (2**32 - m) % m).any())


def test_lemire_rejections_are_redrawn_from_the_reference(monkeypatch):
    # GF(3^10): ranges near 2^16 make real rejections likely in 10^4
    # trials.  With 200 symbols every trial at a positive rate carries an
    # error; at rate 0 none does, and none is redrawn.
    redrawn = []
    reference = simulator._reference_draw

    def spy(master_seed, rate_index, trial, *shape):
        redrawn.append(trial)
        return reference(master_seed, rate_index, trial, *shape)

    monkeypatch.setattr(simulator, "_reference_draw", spy)
    n, q, seed, trials = 200, 3**10, 2024, 10_000
    rejected = {t for t in range(trials) if lemire_rejected(seed, 0, t, n, q)}
    exercised = 0
    for rate in DRAW_RATES:
        redrawn.clear()
        hit, _, rows, matrix = _draw_shared(seed, 0, 0, trials, [(n, q)], rate, [1])[0]
        errors = set(rows.tolist())
        # at floor 1 a rejection is redrawn where an error reads its
        # replacement draws, and only a trial with an error is redrawn
        assert rejected & errors <= set(redrawn) <= errors
        exercised += len(rejected & errors)
        for t in rejected | set(redrawn[:20]):
            uniforms, offsets = numpy_draw(seed, 0, t, n, q)
            assert np.array_equal(hit[t], uniforms < rate), (t, rate)
            assert (t in errors) == bool((uniforms < rate).any()), (t, rate)
            if t in errors:
                assert np.array_equal(matrix[np.searchsorted(rows, t)],
                                      np.where(uniforms < rate, offsets + 1, 0)), (t, rate)
    assert exercised, "no trial exercises the redraw"
    # at rate 0.05 the weights spread around 10: a floor of 12 redraws the
    # rejections of the rows that reach it, and never a lighter row's
    redrawn.clear()
    _, _, rows, _ = _draw_shared(seed, 0, 0, trials, [(n, q)], 0.05, [12])[0]
    heavy = set(rows.tolist())
    assert 0 < len(heavy) < trials // 2
    assert rejected & heavy <= set(redrawn) <= heavy and rejected - heavy


def test_shared_draws_redraw_each_shapes_own_rejections(monkeypatch):
    # two rejection shapes read the prefixes of a longer third shape's
    # streams; each shape's draws, and the trials it redraws, are those of
    # its own one-shape draw, which the test above checks against numpy
    redrawn = []
    reference = simulator._reference_draw

    def spy(master_seed, rate_index, trial, *shape):
        redrawn.append((shape, trial))
        return reference(master_seed, rate_index, trial, *shape)

    monkeypatch.setattr(simulator, "_reference_draw", spy)
    q, seed, trials = 3**10, 2024, 10_000
    shapes = [(200, q), (301, 25), (60, q)]
    exercised = set()
    for rate in DRAW_RATES:
        redrawn.clear()
        alone = [_draw_shared(seed, 0, 0, trials, [shape], rate, [1])[0] for shape in shapes]
        redrawn_alone = sorted(redrawn)
        redrawn.clear()
        shared = _draw_shared(seed, 0, 0, trials, shapes, rate, [1] * len(shapes))
        assert sorted(redrawn) == redrawn_alone, rate
        exercised |= {shape for shape, _ in redrawn}
        for shape, a, b in zip(shapes, alone, shared):
            assert all(map(np.array_equal, a, b)), (shape, rate)
    assert exercised >= {shapes[0], shapes[2]}


def test_seeds_above_2_63_are_distinct_and_warning_free(code):
    # a key given as a Python list is cast through float64 by numpy, which
    # merges seeds >= 2^63 that differ in their low bits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = run_simulation(code, (0.3,), 500, 2**63)
        b = run_simulation(code, (0.3,), 500, 2**63 + 5)
        run_simulation(code, (0.3,), 500, 2**64 - 1)
        first = [_trial_rng(2**63 + d, 0, 0).integers(0, 2**32, size=4).tolist()
                 for d in (0, 5)]
    assert a != b
    assert first[0] != first[1]


def test_reference_stream_below_2_63_is_numpys_list_keyed_stream():
    for seed in (0, 123456789, 2**63 - 1):
        listed = np.random.Generator(np.random.Philox(key=[seed, (3 << 44) | 17]))
        assert np.array_equal(_trial_rng(seed, 2, 17).random(9), listed.random(9))


def test_stream_key_range_is_checked():
    with pytest.raises(ValueError):
        _trial_rng(0, 0, 1 << 44)
    with pytest.raises(ValueError):
        _draw_shared(0, (1 << 20) - 1, 0, 1, [(8, 4)], 0.1, [1])
    with pytest.raises(ValueError):
        _draw_shared(0, 0, (1 << 44) - 1, (1 << 44) + 1, [(8, 4)], 0.1, [1])


# ---------------------------------------------------------------------------
# channel


def test_apply_errors_rate_zero(code):
    rng = _trial_rng(1, 0, 0)
    word = encode(code, [1, 2, 3])
    received, count = apply_random_errors(code.field.order, word, 0.0, rng)
    assert np.array_equal(received, word) and count == 0


def test_apply_errors_rate_one_changes_every_symbol(code):
    word = encode(code, [1, 2, 3])
    for t in range(50):
        received, count = apply_random_errors(code.field.order, word, 1.0, _trial_rng(2, 0, t))
        received = np.array(received)
        assert count == 8
        assert np.all(received != word)
        assert np.all((received >= 0) & (received < 4))


def test_apply_errors_mean_count_within_binomial_band(code):
    # n * rate = 0.8; sigma of the mean over 10^4 trials
    trials, rate, n = 10_000, 0.1, 8
    word = encode(code, [1, 2, 3])
    total = 0
    for t in range(trials):
        _, count = apply_random_errors(code.field.order, word, rate, _trial_rng(3, 0, t))
        total += count
    mean = total / trials
    sigma = (n * rate * (1 - rate) / trials) ** 0.5
    assert abs(mean - n * rate) < 5 * sigma


def test_apply_errors_rejects_bad_rate(code):
    with pytest.raises(ValueError):
        apply_random_errors(code.field.order, encode(code, [0, 0, 0]), 1.5, _trial_rng(0, 0, 0))


def test_replacement_symbols_uniform_over_others(code):
    # every alternative symbol should appear, none equal to the original
    word = np.zeros(8, dtype=np.int64)
    seen = set()
    for t in range(300):
        received, _ = apply_random_errors(code.field.order, word, 1.0, _trial_rng(4, 0, t))
        seen.update(int(v) for v in received)
    assert seen == {1, 2, 3}


# ---------------------------------------------------------------------------
# decoding


def test_decode_valid_codeword_success(code):
    word = encode(code, [2, 1, 3])
    decoded, status = reference_decode(code, word)
    assert status == "success"
    assert np.array_equal(decoded, word)


def test_decode_single_errors_all_corrected(code):
    # exhaustive spot check on one codeword; the full 64x8x3 sweep is in
    # the acceptance suite
    word = encode(code, [1, 0, 2])
    for i in range(8):
        for c in range(4):
            if c == word[i]:
                continue
            received = word.copy()
            received[i] = c
            decoded, status = reference_decode(code, received)
            assert status == "corrected"
            assert np.array_equal(decoded, word)


def test_single_errors_corrected_for_second_code(se33):
    # [15, 2] over GF(9), d = 13 >= 3: all 81 * 15 * 8 = 9720 single-symbol
    # corruptions must decode back to the transmitted codeword
    code15 = build_onepoint_code(se33, 2)
    F = code15.field
    table = _column_table(F, code15.parity_check)
    codewords = np.array(list(naive_codewords(_tabled(F.p, F.e, F.modulus), code15.generator.tolist())))
    assert len(codewords) == 81
    for word in codewords:
        variants = []
        for i in range(code15.n):
            for c in range(F.order):
                if c != word[i]:
                    v = word.copy()
                    v[i] = c
                    variants.append(v)
        decoded, statuses = _decode_batch(code15, np.array(variants), table)
        assert (statuses == 1).all()
        assert np.array_equal(decoded, np.tile(word, (len(variants), 1)))


def test_decode_weight_two_and_three_fail(code):
    # d = 5: any word at distance 2 or 3 from a codeword is at distance
    # >= 2 from every codeword, out of reach of single-substitution search
    word = encode(code, [3, 3, 1])
    for positions, symbols in [((0, 1), (1, 2)), ((2, 5, 7), (1, 1, 2))]:
        received = word.copy()
        for i, s in zip(positions, symbols):
            received[i] = (received[i] + s) % 4
        decoded, status = reference_decode(code, received)
        assert status == "failure" and decoded is None


def test_decode_deterministic_tie_break():
    # repetition [2,1] code over GF(4): received (1, a) is at distance 1
    # from both (1,1) and (a,a); position 1 is scanned first, so the
    # substitution at position 1 wins and yields (a, a)
    F = field(2, 2)
    rep = LinearCode.from_generator(F, [[1, 1]])
    decoded, status = reference_decode(rep, np.array([1, 2]))
    assert status == "corrected"
    assert decoded == [2, 2]


def test_decode_full_space_always_success():
    sat = benchmarks.saturated_code_4_4()
    decoded, status = reference_decode(sat, np.array([1, 2, 3, 0]))
    assert status == "success"


def test_decode_zero_code_corrects_weight_one(se33):
    zero_code = build_onepoint_code(se33, -1)
    received = np.zeros(15, dtype=np.int64)
    received[4] = 7
    decoded, status = reference_decode(zero_code, received)
    assert status == "corrected"
    assert not any(decoded)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_batch_decoder_matches_reference(seed):
    code = benchmarks.benchmark_code_8_3()
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 4, size=(32, 8)).astype(np.int64)
    decoded, statuses = _decode_batch(code, words, _column_table(code.field, code.parity_check))
    names = {0: "success", 1: "corrected", 2: "failure"}
    for word, dec, status in zip(words, decoded, statuses):
        ref_word, ref_status = reference_decode(code, word)
        assert names[int(status)] == ref_status
        if ref_status != "failure":
            assert np.array_equal(dec, ref_word)


def code_with_parity_check(F, H):
    H = np.asarray(H, dtype=np.int64)
    return LinearCode(field=F, generator=right_nullspace(F, H), parity_check=H)


def test_dual_rejects_a_redundant_parity_check():
    # a repeated row: H has 3 rows but the code has n - k = 2, so the rows
    # of H are no basis of the dual and cannot be its generator
    F = field(2, 2)
    code = code_with_parity_check(F, [[1, 2, 0, 1], [1, 2, 0, 1], [0, 1, 3, 2]])
    assert (code.n, code.k, len(code.parity_check)) == (4, 2, 3)
    for make in (dual, hermitian_dual):
        with pytest.raises(ValueError, match="not a basis"):
            make(code)


def assert_batch_matches_reference(code, words):
    decoded, statuses = _decode_batch(code, words, _column_table(code.field, code.parity_check))
    names = {0: "success", 1: "corrected", 2: "failure"}
    for word, dec, status in zip(words, decoded, statuses):
        ref_word, ref_status = reference_decode(code, word)
        assert names[int(status)] == ref_status
        if ref_status != "failure":
            assert np.array_equal(dec, ref_word)
    return decoded, statuses


def test_batch_decoder_first_of_duplicate_columns_wins():
    # GF(4): column 0 is zero, columns 1, 2 and 4 are parallel (2 = a * 1,
    # 4 = 1), column 3 stands alone; every word of length 5 is decoded
    F = field(2, 2)
    H = [[0, 1, 2, 0, 1],
         [0, 1, 2, 1, 1]]
    code = code_with_parity_check(F, H)
    words = np.array(np.meshgrid(*[range(4)] * 5, indexing="ij")).reshape(5, -1).T
    decoded, statuses = assert_batch_matches_reference(code, words)
    changed = (decoded != words).any(axis=1) & (statuses == 1)
    # the parallel class {1, 2, 4} is always fixed at position 1
    positions = set(np.nonzero(decoded[changed] != words[changed])[1].tolist())
    assert positions == {1, 3}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2, 2), (3, 2), (5, 1)]), st.integers(0, 2**32 - 1))
def test_batch_decoder_matches_reference_with_repeated_columns(fe, seed):
    F = field(*fe)
    rng = np.random.default_rng(seed)
    code = repeated_column_code(F, rng)
    words = rng.integers(0, F.order, size=(24, code.n))
    assert_batch_matches_reference(code, words)


def repeated_column_code(F, rng):
    """A code of length 8 whose parity check has random columns, scaled
    repeats of earlier ones, and zero columns."""
    r = int(rng.integers(1, 4))
    base = rng.integers(0, F.order, size=(r, 3))
    cols = [base[:, 0], np.zeros(r, dtype=np.int64), base[:, 1]]
    for _ in range(4):
        src = cols[int(rng.integers(0, len(cols)))]
        cols.append(F.vmul(int(rng.integers(1, F.order)), src))
    cols.append(base[:, 2])
    return code_with_parity_check(F, np.stack(cols, axis=1))


@functools.cache
def coset_codes():
    # the sweep codes, a GF(2) code, a code whose parity check has a zero
    # column and parallel ones, and codes with k = 0 and k = n
    parallel = code_with_parity_check(field(2, 2), [[0, 1, 2, 0, 1], [0, 1, 2, 1, 1]])
    return (*benchmarks.sweep_codes(), gf2_hamming_7_4(), parallel,
            build_onepoint_code(superelliptic_curve(3, 3), -1),
            build_onepoint_code(hermitian_curve(2), 30))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_decoding_a_codeword_plus_errors_adds_the_codeword(seed):
    # the reduction behind sending the zero word: for any codeword c, c + e
    # decodes to c plus the decode of e, with the same status
    rng = np.random.default_rng(seed)
    for code in coset_codes():
        F, n, trials = code.field, code.n, 32
        hit = rng.random((trials, n)) < rng.random((trials, 1))
        errors = np.where(hit, rng.integers(1, F.order, (trials, n)), 0)
        words = np.array([encode(code, rng.integers(0, F.order, size=code.k))
                          for _ in range(trials)])
        table = _column_table(F, code.parity_check)
        decoded, statuses = _decode_batch(code, errors, table)
        shifted, shifted_statuses = _decode_batch(code, F.vadd(words, errors), table)
        assert np.array_equal(shifted_statuses, statuses), code.name
        assert np.array_equal(shifted, F.vadd(words, decoded)), code.name


# ---------------------------------------------------------------------------
# decoding by error weight


WEIGHT_FIELDS = [(2, 1), (2, 2), (3, 2), (5, 2), (3, 3)]


def random_generator_code(fe, rng, k_max=None):
    """A random [n, k] code over GF(p^e), n <= 10 and 1 <= k <= min(n,
    k_max), k = n included: [I | A] with its columns permuted."""
    F = field(*fe)
    n = int(rng.integers(1, 11))
    k = int(rng.integers(1, min(n, k_max or n) + 1))
    G = np.hstack([np.eye(k, dtype=np.int64), rng.integers(0, F.order, size=(k, n - k))])
    return LinearCode.from_generator(F, G[:, rng.permutation(n)])


@functools.cache
def designed_curve_codes():
    # one-point codes whose designed distance, at least 3, is their d_lb:
    # the sweep codes among them, and the zero code at r = -1, whose
    # designed distance exceeds n
    return (*benchmarks.sweep_codes(),
            *(build_onepoint_code(hermitian_curve(2), r) for r in (3, 4, 5)),
            *(build_onepoint_code(superelliptic_curve(3, 3), r) for r in (-1, 4, 8, 9)),
            build_onepoint_code(hermitian_curve(3), 11))


def test_curve_codes_bound_d_by_their_designed_distance():
    for code in designed_curve_codes():
        assert code.designed_distance >= 3, code.name
        assert simulator._decoder_table(code).d_lb == code.designed_distance, code.name
    assert [simulator._decoder_table(code).d_lb for code in benchmarks.sweep_codes()] == [6, 13, 28]


def test_decoder_table_reads_zero_and_parallel_columns():
    # GF(4): column 0 is zero, columns 1, 2 and 4 are parallel, column 3
    # stands alone; a weight-1 error decodes to zero only at 1 and 3
    code = code_with_parity_check(field(2, 2), [[0, 1, 2, 0, 1], [0, 1, 2, 1, 1]])
    table = simulator._decoder_table(code)
    assert table.exact.tolist() == [False, True, False, True, False]
    assert table.d_lb == 1
    full = build_onepoint_code(hermitian_curve(2), 30)
    assert full.k == full.n
    table = simulator._decoder_table(full)
    assert not table.exact.any() and table.d_lb == 1


def decode_every_nonzero_row(code, errors):
    """`_decode_errors`'s three counts with every nonzero row decoded."""
    nonzero = errors.any(axis=1)
    decoded, statuses = _decode_batch(code, errors[nonzero],
                                      _column_table(code.field, code.parity_check))
    ok = statuses != simulator.FAILURE
    successes = int((~nonzero).sum() + ok.sum())
    return successes, int((ok & decoded.any(axis=1)).sum()), int(np.count_nonzero(errors))


def weight_case_code(kind, rng):
    if kind == "curve":
        codes = designed_curve_codes()
        return codes[int(rng.integers(0, len(codes)))]
    if kind == "columns":
        return repeated_column_code(field(*WEIGHT_FIELDS[int(rng.integers(0, len(WEIGHT_FIELDS)))]), rng)
    return random_generator_code(kind, rng)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["curve", "columns", *WEIGHT_FIELDS]),
       st.sampled_from([0.05, 0.3, 0.7, 1.0]), st.integers(0, 2**32 - 1))
def test_decoding_by_weight_counts_as_decoding_every_nonzero_row(kind, rate, seed):
    # random generators over GF(2), GF(4), GF(9), GF(25) and GF(27), k = n
    # among them; parity checks with zero and parallel columns; and curve
    # codes whose d_lb is the designed distance.  Besides the rows drawn
    # at the rate, one row of each weight 0..n
    rng = np.random.default_rng(seed)
    code = weight_case_code(kind, rng)
    n, q = code.n, code.field.order
    hit = np.vstack([rng.random((200, n)) < rate,
                     rng.permuted(np.tri(n + 1, n, -1, dtype=bool), axis=1)])
    errors = np.where(hit, rng.integers(1, q, size=hit.shape), 0)
    table = simulator._decoder_table(code)
    heavy = errors[np.count_nonzero(errors, axis=1) >= table.floor]
    got = simulator._decode_errors(code, table, errors != 0, np.count_nonzero(errors, axis=1), heavy)
    assert got == decode_every_nonzero_row(code, errors)


# the report-exhaustive families: Hermitian q=3, superelliptic q=3 m=3
# and Hermitian q=4, every r from 0 while the code fits the budget
EXHAUSTIVE_FAMILIES = [(hermitian_curve, (3,)), (superelliptic_curve, (3, 3)),
                       (hermitian_curve, (4,))]


@pytest.mark.parametrize("make,args", EXHAUSTIVE_FAMILIES)
def test_decoder_distance_bound_holds_on_the_report_exhaustive_families(make, args):
    curve, r, checked = make(*args), 0, 0
    while True:
        code = build_onepoint_code(curve, r)
        exact = min_distance(code)
        if exact.method != "exhaustive":
            break
        assert simulator._decoder_table(code).d_lb <= exact.d, (code.name, exact.d)
        r, checked = r + 1, checked + 1
    assert checked >= 7


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WEIGHT_FIELDS), st.integers(0, 2**32 - 1))
def test_decoder_distance_bound_holds_on_random_codes(fe, seed):
    rng = np.random.default_rng(seed)
    code = random_generator_code(fe, rng, k_max=max(1, int(math.log(4096, fe[0] ** fe[1]))))
    F = code.field
    d = naive_min_distance(_tabled(F.p, F.e, F.modulus), code.generator.tolist())
    assert simulator._decoder_table(code).d_lb <= d


def test_only_rows_heavy_enough_to_reach_another_codeword_are_decoded(monkeypatch):
    # a row of weight 2..d_lb - 2 fails without a syndrome and one of
    # weight 1 is read from the exact table, so the syndrome decoder sees
    # only rows of weight >= max(2, d_lb - 1), and a chunk with none makes
    # no call.  At these rates only [8,2]_4 (d_lb = 6) has any, in the
    # first of each rate's chunks of 1820 and 180 trials: 2, 25 and 4
    # rows, 31 of the 18 000 trials.  [15,2]_9 and [35,7]_25 (d_lb = 13
    # and 28) have none
    seen = []
    real = simulator._decode_batch

    def spy(code, received, columns):
        seen.append((code.name, np.count_nonzero(received, axis=1)))
        return real(code, received, columns)

    monkeypatch.setattr(simulator, "_decode_batch", spy)
    codes = benchmarks.sweep_codes()
    run_sweep(codes, (0.05, 0.1, 0.2), 2000, 7)
    floors = {code.name: max(2, simulator._decoder_table(code).d_lb - 1) for code in codes}
    assert [(name, len(weights)) for name, weights in seen] == [("herm-q2-r2", 2), ("herm-q2-r2", 25),
                                                                ("herm-q2-r2", 4)]
    for name, weights in seen:
        assert (weights >= floors[name]).all(), name


# ---------------------------------------------------------------------------
# transmission statistics


def at_rate_index(code, rate, trials, master_seed, rate_index):
    """The row of `rate` read from the streams of `rate_index`: the rates
    before it are 0, which draw nothing."""
    return run_simulation(code, (0.0,) * rate_index + (rate,), trials, master_seed)[rate_index]


def transmission_codes():
    # [8,3]_4, a GF(2) code with no replacement draws, and an [8,8]_4 code
    # with an empty parity check, which decodes every word as received
    full = build_onepoint_code(hermitian_curve(2), 30)
    assert (full.n, full.k) == (8, 8)
    return [benchmarks.benchmark_code_8_3(), gf2_hamming_7_4(), full]


@pytest.mark.parametrize("rate_index,rate", [(0, 0.1), (3, 0.3), (1, 0.0), (2, 1.0)])
def test_transmission_matches_literal_trials(monkeypatch, rate_index, rate):
    # each trial read literally from its own numpy stream by the oracle
    # channel on the zero word, then decoded by the oracle decoder: once as
    # received, and once with a codeword c from an independent generator
    # added, where a decode other than c is a miscorrection.  Both agree
    # exactly with the simulator; 300 trials in three chunks, as 256
    # Philox blocks make chunks of 128 trials for n = 7 and n = 8
    trials, seed = 300, 31
    monkeypatch.setattr(simulator, "PHILOX_BLOCKS", 256)
    independent = np.random.default_rng(rate_index)
    for code in transmission_codes():
        F, q = code.field, code.field.order
        literal = {sent: [0, 0, 0] for sent in ("zero", "codeword")}
        for t in range(trials):
            errors, count = apply_random_errors(q, [0] * code.n, rate,
                                                _trial_rng(seed, rate_index, t))
            c = encode(code, independent.integers(0, q, size=code.k))
            for sent, word in (("zero", np.zeros(code.n, dtype=np.int64)), ("codeword", c)):
                decoded, status = reference_decode(code, F.vadd(word, np.array(errors)))
                counts = literal[sent]
                counts[2] += count
                if status != "failure":
                    counts[0] += 1
                    counts[1] += decoded != word.tolist()
        res = at_rate_index(code, rate, trials, seed, rate_index)
        for sent, counts in literal.items():
            assert [res.successes, res.miscorrected, res.total_errors] == counts, (code.name, sent)
        assert res.uncorrectable == trials - res.successes


def test_sweep_makes_no_encoding_product(monkeypatch):
    # one G H^T certificate per code, then one syndrome product per chunk
    # in which a code has a heavy row: at seed 7 only [8,2]_4 has any, 3, 1
    # and 19 rows at the three nonzero rates, each in the first chunk of
    # 1820 trials.  No trial is encoded
    shapes = []
    real = simulator.matmul

    def spy(F, A, B):
        shapes.append(np.shape(A))
        return real(F, A, B)

    monkeypatch.setattr(simulator, "matmul", spy)
    codes = benchmarks.sweep_codes()
    run_sweep(codes, (0.0, 0.05, 0.1, 0.2), 2000, 7)
    assert shapes[:3] == [(code.k, code.n) for code in codes]
    assert shapes[3:] == [(3, 8), (1, 8), (19, 8)]


def test_rate_zero_exact(code):
    (res,) = run_simulation(code, (0.0,), 500, 11)
    assert res.success_rate == 1.0
    assert res.avg_errors == 0.0
    assert res.miscorrected == 0


def test_rate_zero_draws_nothing(code, monkeypatch):
    # no uniform in [0, 1) is below 0, so no stream is computed; the
    # stream-key range is still checked
    monkeypatch.setattr(simulator, "_philox_words", forbidden_draw)
    assert at_rate_index(code, 0.0, 5000, 3, 7) == RateResult(0.0, 5000, 5000, 0, 0)
    zero = RateResult(0.0, 300, 300, 0, 0)
    monkeypatch.setattr(simulator, "PHILOX_BLOCKS", 274)  # chunks of 137 trials
    assert run_simulation(code, (0.0, 0.0), 300, 4) == (zero, zero)
    assert run_sweep([code, code], (0.0,), 300, 4) == ((zero,), (zero,))
    table = simulator._decoder_table(code)
    with pytest.raises(ValueError, match="stream-key range"):
        simulator._transmit([code], [table], 0.0, 10, 0, (1 << 20) - 1)
    with pytest.raises(ValueError, match="stream-key range"):
        simulator._transmit([code], [table], 0.0, (1 << 44) + 1, 0, 0)
    with pytest.raises(ValueError, match="stream-key range"):
        run_simulation(code, (0.0,), (1 << 44) + 1, 0)


def test_every_sweep_rows_rates_sum_to_one():
    # uncorrectable is derived, trials - successes, so no row can hold
    # counts that do not partition its trials
    for rows in run_sweep(benchmarks.sweep_codes(), (0.0, 0.05, 0.1, 0.2, 0.5, 1.0), 700, 3):
        for row in rows:
            assert row.successes + row.uncorrectable == row.trials
            assert row.success_rate + row.uncorrectable_rate == 1
    with pytest.raises(TypeError):
        RateResult(rate=0.1, trials=10, successes=7, uncorrectable=2, miscorrected=0, total_errors=3)


def test_counts_partition_trials(code):
    res = at_rate_index(code, 0.3, 2000, 12, 1)
    assert res.successes + res.uncorrectable == res.trials
    assert res.success_rate + res.uncorrectable_rate == 1.0
    assert 0 <= res.avg_errors <= code.n


def test_seeded_determinism_and_chunk_invariance(code, monkeypatch):
    # n = 8 fills 2 uniform blocks per trial: chunks of 2048 and 137
    # trials, then one chunk of all 3000 at the default 16384 blocks
    runs = []
    for blocks in (4096, 274, 16384):
        monkeypatch.setattr(simulator, "PHILOX_BLOCKS", blocks)
        runs.append(at_rate_index(code, 0.1, 3000, 13, 2))
    assert runs[0] == runs[1] == runs[2]
    assert at_rate_index(code, 0.1, 3000, 14, 2) != runs[0]


# (rate, trials, successes, uncorrectable, miscorrected, total_errors) of
# the three sweep codes at the reproduce rates, 2000 trials, seed 2^64 - 1:
# pinned, so any change to them is a golden shift
SWEEP_PINS = [
    [(0.0, 2000, 2000, 0, 0, 0), (0.05, 2000, 1898, 102, 0, 785),
     (0.1, 2000, 1642, 358, 0, 1556), (0.2, 2000, 1034, 966, 0, 3148)],
    [(0.0, 2000, 2000, 0, 0, 0), (0.05, 2000, 1677, 323, 0, 1491),
     (0.1, 2000, 1104, 896, 0, 2948), (0.2, 2000, 351, 1649, 0, 5931)],
    [(0.0, 2000, 2000, 0, 0, 0), (0.05, 2000, 947, 1053, 0, 3532),
     (0.1, 2000, 243, 1757, 0, 6865), (0.2, 2000, 9, 1991, 0, 13931)],
]


@pytest.mark.parametrize("philox_blocks", [2048, 199])
def test_sweep_results_are_pinned(monkeypatch, philox_blocks):
    # at the default Philox blocks, [8,2]_4, [15,2]_9 and [35,7]_25 run
    # alone in chunks of 8192, 4096 and 1820 trials; 2048 blocks make
    # chunks of 1024, 512 and 227, and 199 blocks chunks of 99, 49 and 22
    for blocks in (simulator.PHILOX_BLOCKS, philox_blocks):
        monkeypatch.setattr(simulator, "PHILOX_BLOCKS", blocks)
        for sweep_code, pins in zip(benchmarks.sweep_codes(), SWEEP_PINS):
            rows = run_simulation(sweep_code, (0.0, 0.05, 0.1, 0.2), 2000, 2**64 - 1)
            got = [(row.rate, row.trials, row.successes, row.uncorrectable, row.miscorrected, row.total_errors)
                   for row in rows]
            assert got == pins, (sweep_code.name, blocks)


def gf2_hamming_7_4():
    return LinearCode.from_generator(field(2, 1), [[1, 0, 0, 0, 1, 1, 0],
                                                   [0, 1, 0, 0, 1, 0, 1],
                                                   [0, 0, 1, 0, 0, 1, 1],
                                                   [0, 0, 0, 1, 1, 1, 1]], name="hamming-7-4")


MIXED_RATES = (0.0, 0.05, 0.2, 1.0)


@functools.cache
def mixed_codes():
    # the sweep codes, a GF(2) code with no replacement words, and the
    # [8,3]_4 code; the [35,7]_25 code has the longest streams
    return (*benchmarks.sweep_codes(), gf2_hamming_7_4(), benchmarks.benchmark_code_8_3())


@functools.cache
def mixed_alone(trials):
    return tuple(run_simulation(code, MIXED_RATES, trials, 2**64 - 3) for code in mixed_codes())


@pytest.mark.parametrize("trials, philox_blocks", [
    (2048, None), (199, None), (137, None), (199, 7), (2048, 100), (137, 100)])
def test_sweep_equals_per_code_simulations(monkeypatch, trials, philox_blocks):
    # the codes alone run at the default 16384 Philox blocks: chunks of
    # 1820 trials for [35,7]_25, of 4096 or more for the others.  Together,
    # the mixed codes fill 9 blocks per trial, so 2048 trials are two
    # chunks; 7 blocks make chunks of one trial
    # trials for the mixed codes and of 3 for [8,2]_4 alone; 100 make
    # chunks of 11 and 50, which divide none of the trial counts
    alone = mixed_alone(trials)
    if philox_blocks:
        monkeypatch.setattr(simulator, "PHILOX_BLOCKS", philox_blocks)
    assert run_sweep(mixed_codes(), MIXED_RATES, trials, 2**64 - 3) == alone
    codes = benchmarks.sweep_codes()[:1]
    assert run_sweep(codes, MIXED_RATES, trials, 2**64 - 3) == alone[:1]


def test_sweep_result_shape_and_checks(code):
    rows = run_sweep([code, gf2_hamming_7_4()], (0.0, 0.1), 50, 1)
    assert [[row.rate for row in per_code] for per_code in rows] == [[0.0, 0.1]] * 2
    with pytest.raises(ValueError, match="at least one code"):
        run_sweep([], (0.1,), 10, 0)


def test_success_rate_lower_bound_at_low_rate(code):
    # single errors are always corrected, so success probability is at
    # least P(0 or 1 errors); check within 5 sigma at rate 0.01
    trials, p, n = 100_000, 0.01, 8
    res = at_rate_index(code, p, trials, 15, 3)
    floor = (1 - p) ** n + n * p * (1 - p) ** (n - 1)
    sigma = (floor * (1 - floor) / trials) ** 0.5
    assert res.success_rate >= floor - 5 * sigma


@functools.cache
def sweep_distances():
    """A distance, or a proven lower bound on it, of each sweep code: by
    brute force for [8,2]_4 and [15,2]_9, and for [35,7]_25, built at
    r = 7 on a curve with one place at infinity, the Goppa bound n - r."""
    codes = benchmarks.sweep_codes()
    brute = [naive_min_distance(_tabled(c.field.p, c.field.e, c.field.modulus), c.generator.tolist())
             for c in codes[:2]]
    assert codes[2].name == "super-q5-m2-r7"
    return (*brute, codes[2].n - 7)


@pytest.mark.parametrize("seed", [7, 123456789])
def test_sweep_successes_lie_in_the_decoders_binomial_band(seed):
    # the substitution decoder counts every error of weight w <= 1 as a
    # success and every one of weight 2 <= w <= d - 2 as a failure, so a
    # trial succeeds with probability in [P(w <= 1), P(w <= 1) +
    # P(w >= max(2, d - 1))], w ~ Binomial(n, p); every sweep row's
    # successes lie within 5 sigma of that band.  A
    # decoder that corrects nothing succeeds only on weight 0: it falls
    # 13-55 sigma below the band on every row but [35,7]_25 at p = 0.2,
    # where P(w <= 1) is 0.4 % and it falls 1.4 and 2.5 sigma below
    trials = 2000
    codes = benchmarks.sweep_codes()
    assert sweep_distances() == (6, 13, 28)
    rows = run_sweep(codes, (0.05, 0.1, 0.2), trials, seed)
    for code, d, per_rate in zip(codes, sweep_distances(), rows):
        n = code.n
        for row in per_rate:
            p = row.rate
            pmf = [math.comb(n, w) * p**w * (1 - p) ** (n - w) for w in range(n + 1)]
            low = pmf[0] + pmf[1]
            high = low + sum(pmf[max(2, d - 1):])
            sigma = [math.sqrt(trials * x * (1 - x)) for x in (low, high)]
            context = (code.name, p, row.successes, trials * low, trials * high)
            assert row.successes >= trials * low - 5 * sigma[0], context
            assert row.successes <= trials * high + 5 * sigma[1], context


def test_run_simulation_orders_rates(code):
    rows = run_simulation(code, (0.0, 0.05, 0.2), 400, 16)
    assert [row.rate for row in rows] == [0.0, 0.05, 0.2]
    assert rows[0].success_rate == 1.0


def test_simulation_input_validation(code):
    for rate in (1.5, -0.5, float("nan")):
        with pytest.raises(ValueError, match=r"error rates must lie in \[0, 1\]"):
            run_simulation(code, (rate,), 100, 1)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_simulation(code, (0.1,), 0, 1)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="64-bit unsigned integer"):
            run_simulation(code, (0.1,), 100, seed)
    # every rate of a run is checked, not just the first
    with pytest.raises(ValueError, match=r"error rates must lie in \[0, 1\]"):
        run_simulation(code, (0.1, 1.5), 10, 0)
    with pytest.raises(ValueError, match="at least one rate"):
        run_simulation(code, (), 10, 0)


def forbidden_draw(*args):
    raise AssertionError("a stream was drawn before the inputs were checked")


@pytest.mark.parametrize("rates, trials, seed, match", [
    ((0.1, 1.5), 200_000, 0, r"error rates must lie in \[0, 1\]"),
    ((0.0, 0.1, float("nan")), 10, 0, r"error rates must lie in \[0, 1\]"),
    ((0.1, 0.2), 0, 0, "trials must be >= 1"),
    ((0.1, 0.2), 10, 2**64, "64-bit unsigned integer"),
])
def test_run_simulation_checks_every_rate_before_drawing(code, monkeypatch, rates, trials, seed, match):
    monkeypatch.setattr(simulator, "_draw_shared", forbidden_draw)
    with pytest.raises(ValueError, match=match):
        run_simulation(code, rates, trials, seed)
    with pytest.raises(ValueError, match=match):
        run_sweep([code, gf2_hamming_7_4()], rates, trials, seed)


def test_a_parity_check_that_does_not_annihilate_the_generator_is_refused(code, monkeypatch):
    # every trial sends the zero word in place of a codeword, which is
    # exact only when G H^T = 0; one changed entry of H breaks that
    F = code.field
    H = code.parity_check.copy()
    j = int(np.flatnonzero(code.generator.any(axis=0))[0])
    H[0, j] = F.add(int(H[0, j]), 1)
    bad = LinearCode(field=F, generator=code.generator, parity_check=H)
    monkeypatch.setattr(simulator, "_draw_shared", forbidden_draw)
    with pytest.raises(ValueError, match="does not annihilate the generator"):
        run_simulation(bad, (0.0, 0.1), 10, 0)
    # at rate 0 nothing is drawn, but the code is still certified
    for rate in (0.0, 0.1):
        with pytest.raises(ValueError, match="does not annihilate the generator"):
            run_simulation(bad, (rate,), 10, 0)
    # every code of a sweep is certified before its first draw
    with pytest.raises(ValueError, match="does not annihilate the generator"):
        run_sweep([code, bad], (0.1,), 10, 0)


# ---------------------------------------------------------------------------
# CSV emission


def test_csv_outputs_are_deterministic(tmp_path, monkeypatch, code):
    def emit(tag, blocks):
        monkeypatch.setattr(simulator, "PHILOX_BLOCKS", blocks)
        rows = run_simulation(code, (0.0, 0.1), 500, 21)
        run = SimRun(code_name=code.name, n=code.n, k=code.k, d=5, master_seed=21, rows=rows)
        out = tmp_path / f"res_{tag}.csv"
        series = tmp_path / f"series_{tag}.csv"
        write_results_csv([run], out)
        write_series_csv([run], series)
        return out.read_bytes(), series.read_bytes()

    first = emit("a", 16384)  # one chunk of 500 trials
    second = emit("b", 346)  # chunks of 173
    assert first == second


def test_csv_headers_and_shape(tmp_path, code):
    rows = run_simulation(code, (0.0,), 50, 5)
    run = SimRun(code_name="x", n=code.n, k=code.k, d=5, master_seed=5, rows=rows)
    out = tmp_path / "r.csv"
    series = tmp_path / "s.csv"
    write_results_csv([run], out)
    write_series_csv([run], series)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "code,n,k,d,rate,trials,success_rate,uncorrectable_rate,avg_errors,seed"
    assert lines[1] == "x,8,3,5,0.0,50,1.0,0.0,0.0,5"
    slines = series.read_text().strip().splitlines()
    assert slines[0] == "code,rate,success_rate,uncorrectable_rate,avg_errors"
    assert len(slines) == 2


def test_miscorrection_counter_is_tracked(code):
    # at a high error rate some decodes land on the wrong codeword but
    # still count as decode successes, mirrored in the extra counter
    res = at_rate_index(code, 0.35, 4000, 23, 4)
    assert res.miscorrected > 0
    assert res.successes >= res.miscorrected
