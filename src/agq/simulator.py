"""Monte-Carlo transmission and syndrome decoding over the q-ary
symmetric channel.

Channel model: each symbol of the codeword is independently replaced,
with probability `rate`, by a uniformly random *different* field
element.  Decoding checks the syndrome; on a nonzero syndrome it scans
positions 1..n and, per position, the q-1 alternative symbols in
canonical field order, accepting the first substitution with zero
syndrome ("corrected"), else reporting "failure".  Both "success" and
"corrected" count toward the decode success rate; a separate
`miscorrected` counter records decodes that returned a codeword other
than the transmitted one (possible once errors exceed the search
radius), without changing the two headline metrics.

Every trial sends the zero word.  That is exact for any codeword c: c
H^T = 0, so c + e has the syndrome of e, and the decoder's change to a
word is a function of its syndrome, so it decodes c + e to c plus its
result on e, with the same status.  Success, failure and miscorrection
thus depend on the error pattern e alone.  On the zero word the channel
puts o + 1, the o-th element other than 0, at a hit position with
replacement offset o, and a nonzero decoded word is a miscorrection.
`_decoder_table` certifies G H^T = 0, the premise of the reduction,
once per code.

Randomness: trial t at rate index i reads its own Philox4x64-10 stream
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11),
keyed by (master_seed, ((i + 1) << 44) | t), so results are bit-identical
for a given seed however the trials are blocked.  The stream is numpy's
`Generator(Philox(key))` (`_trial_rng`), which draws n uniforms with
`random`, then n replacement offsets with `integers(0, q - 1)`.  Every
simulation goes through `run_sweep`, which runs each rate in chunks of
`CHUNK_TRIALS` trials; `_draw_shared` computes a chunk's error matrix at
once, with Philox on uint64 arrays over the block counters 1, 2, ... of
each key, in row blocks of at most `PHILOX_BLOCKS` blocks.  The key does
not name the code, and Philox is counter-based, so codes simulated
together read one stream per trial: each row block of words is computed
once, for the code with the longest stream, and each code reads its own
prefix; the determinism check of `agq reproduce` reruns the first sweep
code alone, so it compares the shared path with the single-code one.
At rate 0 nothing is drawn: no uniform in [0, 1) is below 0, so every
trial arrives intact.  `_draw_shared` states the word layout of a
stream.

A trial is its error pattern: row t of the error matrix holds 0 where
trial t's uniform is >= rate and o + 1 where it is below, o the
replacement offset there.  The uniform test is read from the uniform
words as (word >> 11) < rate * 2^53, which is the same comparison.  Only
a trial with an error reads its replacement draws, and only a nonzero
row is decoded: an error-free trial receives the zero word, whose
syndrome is zero, so it counts as a success with no miscorrection.

The ten Philox rounds run in place on arrays allocated once per call,
and the high word of each 64x64-bit product comes from three 32-bit
partial products (the `mulhu` identity of Hacker's Delight, section 8-2).

Lemire's method rejects u when the low half of u * range falls below
(2^32 - range) mod range, which is less than range.  A trial with any
replacement draw whose low half is below range gets its offsets again
from `_trial_rng` itself, by `_reference_draw`; its uniforms come before
them, so its error positions stand, and every trial matches numpy
exactly, not just with high probability.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .agcode import LinearCode
from .linalg import _column_table, _row_bytes, matmul, normalize_rows

SUCCESS, CORRECTED, FAILURE = 0, 1, 2


@dataclass(frozen=True)
class RateResult:
    """Exact trial counts for one error rate (rates are derived views)."""

    rate: float
    trials: int
    successes: int
    uncorrectable: int
    miscorrected: int
    total_errors: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials

    @property
    def uncorrectable_rate(self) -> float:
        return self.uncorrectable / self.trials

    @property
    def avg_errors(self) -> float:
        return self.total_errors / self.trials


def encode(code: LinearCode, message) -> np.ndarray:
    """message @ generator; message is a length-k vector of element indices."""
    msg = np.asarray(message, dtype=np.int64).reshape(-1)
    if msg.shape[0] != code.k:
        raise ValueError(f"message length {msg.shape[0]} != k = {code.k}")
    if code.k == 0:
        return np.zeros(code.n, dtype=np.int64)
    return matmul(code.field, msg.reshape(1, -1), code.generator)[0]


def _trial_rng(master_seed: int, rate_index: int, trial: int) -> np.random.Generator:
    """The reference stream of one trial, a numpy Generator over Philox."""
    _check_stream_range(rate_index, trial + 1)
    key = np.array([master_seed, ((rate_index + 1) << 44) | trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_stream_range(rate_index: int, trial_stop: int) -> None:
    if trial_stop > 1 << 44 or not 0 <= rate_index < (1 << 20) - 1:
        raise ValueError("trial or rate index out of stream-key range")


def _reference_draw(master_seed: int, rate_index: int, trial: int, n: int, q: int):
    """(uniforms, replacement offsets) of one trial, read literally from
    `_trial_rng`; `_draw_shared` reproduces these values."""
    rng = _trial_rng(master_seed, rate_index, trial)
    return rng.random(n), rng.integers(0, q - 1, size=n)


# Philox4x64-10 multipliers, each with its 32-bit halves, and Weyl key
# increments, as in Random123 and numpy; uint64 scalars, so that no round
# converts a Python int
_PHILOX_M = tuple((np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32))
                  for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# Philox blocks (four uint64 words each) computed at once: the round
# temporaries stay at 128 KB per array for any code length.
PHILOX_BLOCKS = 1 << 14
# Trials drawn and decoded at once.  Each chunk is split again
# into Philox row blocks; a chunk as small as a row block would expand
# the parity check for many more, smaller decode calls.
CHUNK_TRIALS = 2048


def _mulhilo(a: np.ndarray, m: tuple, hi: np.ndarray, lo: np.ndarray,
             s: np.ndarray, s2: np.ndarray) -> None:
    """Write the high and low words of the 128-bit products a * m into hi
    and lo, overwriting a and the scratch arrays s and s2; m is one
    `_PHILOX_M` entry, (m, m_lo, m_hi).

    The low word is a * m, which wraps mod 2^64.  The high word is the
    three-product mulhu of Hacker's Delight (section 8-2): with a_lo, a_hi
    and m_lo, m_hi the 32-bit halves,
        t  = a_lo * m_hi + (a_lo * m_lo >> 32)
        w  = (t & 0xFFFFFFFF) + a_hi * m_lo
        hi = a_hi * m_hi + (t >> 32) + (w >> 32),
    and neither t nor w exceeds 2^64 - 2^32, so no sum wraps.
    """
    m, m_lo, m_hi = m
    np.multiply(a, m, out=lo)
    np.right_shift(a, _SHIFT32, out=s)             # a_hi
    a &= _LOW32                                    # a_lo
    np.multiply(a, m_lo, out=hi)
    hi >>= _SHIFT32
    a *= m_hi
    a += hi                                        # t
    np.bitwise_and(a, _LOW32, out=hi)
    a >>= _SHIFT32                                 # t >> 32
    np.multiply(s, m_lo, out=s2)
    hi += s2                                       # w
    hi >>= _SHIFT32
    hi += a
    s *= m_hi
    hi += s


def _philox_words(key0: np.ndarray, key1: np.ndarray, blocks: int) -> np.ndarray:
    """The first 4 * blocks words of the Philox4x64-10 stream of each key.

    key0 and key1 are uint64 arrays of shape (b, 1) or (1, 1); the result
    is (b, 4 * blocks).  Block j is the cipher of the counter (j + 1, 0,
    0, 0), the order in which numpy's Philox increments its counter
    before each block.

    The rounds run in place on ten (b, blocks) arrays allocated once: the
    four counter words, the four products that become the next round's
    counter words, and two scratch arrays.  After a round the spent
    counter words are renamed to hold the next round's products.
    """
    shape = (key1.shape[0], blocks)
    c0 = np.empty(shape, dtype=np.uint64)
    c0[:] = np.arange(1, blocks + 1, dtype=np.uint64)
    c1, c2, c3 = (np.zeros(shape, dtype=np.uint64) for _ in range(3))
    hi0, lo0, hi1, lo1, s, s2 = (np.empty(shape, dtype=np.uint64) for _ in range(6))
    for r in range(_PHILOX_ROUNDS):
        if r:
            key0, key1 = key0 + _PHILOX_W[0], key1 + _PHILOX_W[1]
        _mulhilo(c0, _PHILOX_M[0], hi0, lo0, s, s2)
        _mulhilo(c2, _PHILOX_M[1], hi1, lo1, s, s2)
        hi1 ^= c1
        hi1 ^= key0
        hi0 ^= c3
        hi0 ^= key1
        c0, c1, c2, c3, hi0, lo0, hi1, lo1 = hi1, lo1, hi0, lo0, c0, c1, c2, c3
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(-1, 4 * blocks)


def _lemire(u: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw in [0, bound) from the uint32 values of the
    uint64 array u, which it overwrites, and a mask of the draws that
    Lemire's method might have rejected."""
    u *= np.uint64(bound)
    bad = (u & _LOW32) < bound
    u >>= _SHIFT32
    return u.view(np.int64), bad


def _draw_shared(master_seed: int, rate_index: int, lo: int, hi: int,
                 shapes: Sequence[tuple[int, int]], rate: float) -> list[np.ndarray]:
    """For each (n, q) of `shapes`, the (hi - lo, n) int64 error matrix of
    the trials lo..hi-1 at `rate`, from one Philox pass.

    Row t is the error pattern of trial lo + t.  With the uniforms and
    replacement offsets of `_reference_draw`, it holds 0 where the uniform
    is >= rate and o + 1 where it is below, o the replacement offset.

    Each row block's words are computed once, for the shape with the most
    blocks, and every shape reads its own prefix of them, with its own
    Lemire checks and redraws.
    """
    _check_stream_range(rate_index, hi)
    b = hi - lo
    # the word layout of a trial's stream, four words to a block: n uniform
    # words, (word >> 11) * 2^-53 each, then the replacement draws, Lemire-
    # bounded uint32s (u * (q - 1)) >> 32 from the low then the high half
    # of each word; over GF(2) their range is 1 and they take no words
    blocks = max(-(-(n + ((n + 1) // 2 if q > 2 else 0)) // 4) for n, q in shapes)
    errors = [np.zeros((b, n), dtype=np.int64) for n, _ in shapes]
    key0 = np.full((1, 1), master_seed, dtype=np.uint64)
    key1 = np.arange(lo, hi, dtype=np.uint64).reshape(-1, 1) | np.uint64((rate_index + 1) << 44)
    # (w >> 11) * 2^-53 < rate holds for the integer w >> 11 exactly when
    # w >> 11 < ceil(rate * 2^53), and rate * 2^53 is exact
    threshold = np.uint64(math.ceil(rate * 2.0**53))
    longest = max(n for n, _ in shapes)
    step = max(1, PHILOX_BLOCKS // max(blocks, 1))
    for r0 in range(0, b, step):
        words = _philox_words(key0, key1[r0:r0 + step], blocks)
        halves = words.astype("<u8", copy=False).view("<u4")
        # each shape compares its own prefix of the longest uniform run
        uniforms = words[:, :longest] >> 11
        for (n, q), error in zip(shapes, errors):
            hit = uniforms[:, :n] < threshold
            at = np.flatnonzero(hit.any(axis=1))
            pattern = hit[at]  # over GF(2) every offset is 0
            if q > 2:
                # uint64 before the bound, as a uint32 product u * (q - 1) would wrap
                offsets, bad = _lemire(halves[at, 2 * n:3 * n].astype(np.uint64), q - 1)
                for i in np.flatnonzero(bad.any(axis=1)):
                    _, offsets[i] = _reference_draw(master_seed, rate_index,
                                                    lo + r0 + int(at[i]), n, q)
                offsets += 1
                offsets *= pattern
                pattern = offsets
            error[r0 + at] = pattern
    return errors


def _decode_batch(code: LinearCode, received: np.ndarray, table):
    """Vectorized syndrome decoder of the position-then-symbol scan.

    A substitution at position i changes the syndrome by a nonzero
    multiple of column H[:, i], so a nonzero syndrome s is killable at
    position i iff -s is parallel to that column; the scalar, and hence
    the substituted symbol, is then unique.  The earliest such position
    is exactly the first hit of the position-then-symbol scan.  `table`
    is the `_column_table` of the parity check: its normalized nonzero
    columns sorted stably as byte strings, so a left `searchsorted` lands
    on the first position among equal columns.  It depends only on the
    code, so `_decoder_table` builds it once for all rates and chunks.

    Returns (decoded, statuses); rows with status FAILURE hold the
    received word unchanged in `decoded` and must be ignored there.
    """
    F = code.field
    H = code.parity_check
    B = received.shape[0]
    decoded = received.copy()
    statuses = np.full(B, FAILURE, dtype=np.int64)
    if H.shape[0] == 0:
        statuses[:] = SUCCESS
        return decoded, statuses
    syndromes = matmul(F, received, H.T)
    zero = ~syndromes.any(axis=1)
    statuses[zero] = SUCCESS

    todo = np.nonzero(~zero)[0]
    keys, positions = table
    if len(todo) == 0 or len(positions) == 0:
        return decoded, statuses
    targets = F.vneg(syndromes[todo])
    queries = _row_bytes(normalize_rows(F, targets).astype(np.uint16))
    slot = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    hit = keys[slot] == queries
    rows, cols, targets = todo[hit], positions[slot[hit]], targets[hit]
    leads = (targets != 0).argmax(axis=1)
    lam = F.vmul(targets[np.arange(len(rows)), leads], F.vinv(H[leads, cols]))
    decoded[rows, cols] = F.vadd(received[rows, cols], lam)
    statuses[rows] = CORRECTED
    return decoded, statuses


def _check_inputs(rates: Sequence[float], trials: int, master_seed: int) -> None:
    if not rates:
        raise ValueError("rates must name at least one rate")
    if not all(0.0 <= rate <= 1.0 for rate in rates):  # NaN fails this too
        raise ValueError("error rates must lie in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= master_seed < 1 << 64:
        raise ValueError("master_seed must be a 64-bit unsigned integer")


def _decoder_table(code: LinearCode):
    """The `_column_table` of the parity check, once G H^T = 0 is certified.

    Every trial sends the zero word in place of a codeword c = m G.  That
    is exact because c H^T = m G H^T = 0: c + e has the syndrome of e, so
    the decoder returns c plus its result on e, with the same status.  One
    k x n x (n - k) product certifies G H^T = 0, and a code that fails
    raises ValueError.
    """
    F = code.field
    if matmul(F, code.generator, code.parity_check.T).any():
        raise ValueError("the parity check does not annihilate the generator")
    return _column_table(F, code.parity_check)


def _transmit(codes: Sequence[LinearCode], tables: Sequence, rate: float, trials: int,
              master_seed: int, rate_index: int) -> tuple[RateResult, ...]:
    """One `RateResult` per code at one rate, on checked inputs with each
    code's `_decoder_table`; the codes share each chunk's streams."""
    _check_stream_range(rate_index, trials)
    if math.ceil(rate * 2.0**53) == 0:
        # no uniform in [0, 1) is below 0: every trial arrives intact
        return tuple(RateResult(rate, trials, trials, 0, 0, 0) for _ in codes)
    shapes = [(code.n, code.field.order) for code in codes]
    counts = np.zeros((len(codes), 4), dtype=np.int64)
    for lo in range(0, trials, CHUNK_TRIALS):
        hi = min(lo + CHUNK_TRIALS, trials)
        drawn = _draw_shared(master_seed, rate_index, lo, hi, shapes, rate)
        for i, (code, table) in enumerate(zip(codes, tables)):
            # each code's error matrix is released once it is decoded
            counts[i] += _decode_errors(code, table, drawn.pop(0))
    return tuple(RateResult(rate, trials, *map(int, count)) for count in counts)


def _decode_errors(code: LinearCode, table, errors: np.ndarray):
    """(successes, uncorrectable, miscorrected, total errors) of the trials
    sending the zero word whose error patterns are the rows of the
    `_draw_shared` matrix `errors`; only the nonzero rows are decoded, and
    the others count as successes."""
    # the entries are >= 0, so a row is nonzero exactly when its sum is;
    # einsum's row sums take a third of the time of any(axis=1) on short rows
    received = errors.compress(np.einsum("ij->i", errors) > 0, axis=0)
    decoded, statuses = _decode_batch(code, received, table)
    ok = statuses != FAILURE
    return (len(errors) - len(received) + int(ok.sum()), int((~ok).sum()),
            int((ok & decoded.any(axis=1)).sum()), np.count_nonzero(errors))


def run_sweep(codes: Sequence[LinearCode], rates: Sequence[float], trials: int,
              master_seed: int) -> tuple[tuple[RateResult, ...], ...]:
    """Each code's `run_simulation` rows, one tuple per code in order.

    Trial t at rate index i reads the stream keyed by (master_seed,
    ((i + 1) << 44) | t) whatever the code, so the codes read one stream
    per trial: each row block of Philox words is computed once, for the
    code with the longest stream, and the others read its prefix.  Every
    input, and every code, is checked before the first draw.
    """
    codes = list(codes)
    if not codes:
        raise ValueError("run_sweep needs at least one code")
    _check_inputs(rates, trials, master_seed)
    tables = [_decoder_table(code) for code in codes]
    per_rate = [_transmit(codes, tables, rate, trials, master_seed, i)
                for i, rate in enumerate(rates)]
    return tuple(zip(*per_rate))


def run_simulation(code: LinearCode, rates: Sequence[float], trials: int,
                   master_seed: int) -> tuple[RateResult, ...]:
    """`trials` independent transmissions of `code` at each rate in order,
    rate i reading the streams of rate index i: `run_sweep([code], ...)[0]`.
    Every input, and the code, is checked before the first draw."""
    return run_sweep([code], rates, trials, master_seed)[0]


# ---------------------------------------------------------------------------
# CSV emission


@dataclass(frozen=True)
class SimRun:
    """One simulated code, the distance value to print in the CSV, and
    its rows from `run_simulation`."""

    code_name: str
    n: int
    k: int
    d: int | None
    master_seed: int
    rows: tuple[RateResult, ...]


RESULTS_HEADER = ["code", "n", "k", "d", "rate", "trials", "success_rate",
                  "uncorrectable_rate", "avg_errors", "seed"]
SERIES_HEADER = ["code", "rate", "success_rate", "uncorrectable_rate", "avg_errors"]


def _fmt(x: float) -> str:
    return repr(float(x))


def write_results_csv(runs: Sequence[SimRun], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for run in runs:
            for row in run.rows:
                writer.writerow([
                    run.code_name, run.n, run.k, "" if run.d is None else run.d,
                    _fmt(row.rate), row.trials, _fmt(row.success_rate),
                    _fmt(row.uncorrectable_rate), _fmt(row.avg_errors),
                    run.master_seed,
                ])


def write_series_csv(runs: Sequence[SimRun], path) -> None:
    """Per-rate series with exactly the plotted quantities."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SERIES_HEADER)
        for run in runs:
            for row in run.rows:
                writer.writerow([
                    run.code_name, _fmt(row.rate), _fmt(row.success_rate),
                    _fmt(row.uncorrectable_rate), _fmt(row.avg_errors),
                ])
