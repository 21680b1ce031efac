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

Randomness is drawn from counter-based per-trial Philox streams keyed
by (master_seed, rate index, trial index), so results are bit-identical
for a given seed regardless of chunking or execution order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .agcode import LinearCode
from .linalg import matmul, normalize_rows

SUCCESS, CORRECTED, FAILURE = 0, 1, 2
_STATUS_NAMES = {SUCCESS: "success", CORRECTED: "corrected", FAILURE: "failure"}


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one simulation run over a list of symbol error rates."""

    code: LinearCode
    error_rates: tuple[float, ...]
    num_transmissions: int
    master_seed: int

    def __post_init__(self):
        if any(not 0.0 <= r <= 1.0 for r in self.error_rates):
            raise ValueError("error rates must lie in [0, 1]")
        if self.num_transmissions < 1:
            raise ValueError("num_transmissions must be >= 1")
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")


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
    def miscorrected_rate(self) -> float:
        return self.miscorrected / self.trials

    @property
    def avg_errors(self) -> float:
        return self.total_errors / self.trials


@dataclass(frozen=True)
class SimResult:
    master_seed: int
    rows: tuple[RateResult, ...]


def encode(code: LinearCode, message) -> np.ndarray:
    """message @ generator; message is a length-k vector of element indices."""
    msg = np.asarray(message, dtype=np.int64).reshape(-1)
    if msg.shape[0] != code.k:
        raise ValueError(f"message length {msg.shape[0]} != k = {code.k}")
    if code.k == 0:
        return np.zeros(code.n, dtype=np.int64)
    return matmul(code.field, msg.reshape(1, -1), code.generator)[0]


def _trial_rng(master_seed: int, rate_index: int, trial: int) -> np.random.Generator:
    if trial >= 1 << 44 or rate_index >= 1 << 20:
        raise ValueError("trial or rate index out of stream-key range")
    key = [master_seed, ((rate_index + 1) << 44) | trial]
    return np.random.Generator(np.random.Philox(key=key))


def apply_random_errors(field, codeword, rate: float, rng: np.random.Generator):
    """Corrupt each position independently with probability `rate`; a hit
    replaces the symbol by a uniformly random different element of
    `field`.  Returns (received, number_of_changed_positions).

    Always consumes n uniforms and n replacement draws from `rng`, so
    the stream layout does not depend on the outcome.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    word = np.asarray(codeword, dtype=np.int64)
    n = word.shape[0]
    mask = rng.random(n) < rate
    repl = rng.integers(0, field.order - 1, size=n)
    received = np.where(mask, repl + (repl >= word), word)
    return received, int(mask.sum())


def decode_word(code: LinearCode, received):
    """Reference single-word decoder; returns (word or None, status string).

    Zero syndrome returns the word unchanged ("success"); otherwise the
    first single-position substitution (scanning positions in order and
    alternative symbols in canonical order) with zero syndrome is
    returned ("corrected"); if none exists the result is (None,
    "failure").  Deterministic in its input.
    """
    F = code.field
    H = code.parity_check
    word = np.asarray(received, dtype=np.int64).copy()
    if word.shape[0] != code.n:
        raise ValueError(f"received word length {word.shape[0]} != n = {code.n}")
    syndrome = matmul(F, H, word.reshape(-1, 1))[:, 0] if H.shape[0] else np.zeros(0, np.int64)
    if not syndrome.any():
        return word, _STATUS_NAMES[SUCCESS]
    for i in range(code.n):
        current = int(word[i])
        for c in range(F.order):
            if c == current:
                continue
            trial = word.copy()
            trial[i] = c
            if not matmul(F, H, trial.reshape(-1, 1))[:, 0].any():
                return trial, _STATUS_NAMES[CORRECTED]
    return None, _STATUS_NAMES[FAILURE]


def _column_match_table(code: LinearCode) -> dict[bytes, tuple[int, int]]:
    """Map normalized parity-check columns to (first position, lead row).

    A substitution at position i changes the syndrome by a nonzero
    multiple of column H[:, i], so a nonzero syndrome s is killable at
    position i iff -s is parallel to that column; the scalar, and hence
    the substituted symbol, is then unique.  The earliest such position
    is exactly the first hit of the position-then-symbol scan.
    """
    columns = normalize_rows(code.field, code.parity_check.T)
    leads = (columns != 0).argmax(axis=1)
    table: dict[bytes, tuple[int, int]] = {}
    for i, col in enumerate(columns.astype(np.uint16)):
        if col.any():
            table.setdefault(col.tobytes(), (i, int(leads[i])))
    return table


def _decode_batch(code: LinearCode, received: np.ndarray):
    """Vectorized decoder; identical results to decode_word row by row.

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
    if len(todo) == 0:
        return decoded, statuses
    table = _column_match_table(code)
    targets = F.vneg(syndromes[todo])
    normalized = normalize_rows(F, targets).astype(np.uint16)
    for row, target, norm in zip(todo, targets, normalized):
        hit = table.get(norm.tobytes())
        if hit is None:
            continue
        i, lead = hit
        lam = F.div(int(target[lead]), int(H[lead, i]))
        decoded[row, i] = F.add(int(received[row, i]), lam)
        statuses[row] = CORRECTED
    return decoded, statuses


def simulate_transmission(code: LinearCode, rate: float, trials: int, master_seed: int,
                          rate_index: int = 0, chunk_size: int = 2048) -> RateResult:
    """Run `trials` independent transmissions at one error rate.

    Every trial draws (message, uniforms, replacements) from its own
    keyed stream, so the result does not depend on `chunk_size`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    F = code.field
    n, k, q = code.n, code.k, F.order
    successes = uncorrectable = miscorrected = 0
    total_errors = 0
    for lo in range(0, trials, chunk_size):
        hi = min(lo + chunk_size, trials)
        b = hi - lo
        messages = np.zeros((b, k), dtype=np.int64)
        uniforms = np.zeros((b, n))
        repl = np.zeros((b, n), dtype=np.int64)
        for t in range(lo, hi):
            rng = _trial_rng(master_seed, rate_index, t)
            if k:
                messages[t - lo] = rng.integers(0, q, size=k)
            uniforms[t - lo] = rng.random(n)
            repl[t - lo] = rng.integers(0, q - 1, size=n)
        codewords = (
            matmul(F, messages, code.generator) if k else np.zeros((b, n), dtype=np.int64)
        )
        mask = uniforms < rate
        alts = repl + (repl >= codewords)
        received = np.where(mask, alts, codewords)
        total_errors += int(mask.sum())
        decoded, statuses = _decode_batch(code, received)
        ok = statuses != FAILURE
        successes += int(ok.sum())
        uncorrectable += int((~ok).sum())
        miscorrected += int((ok & (decoded != codewords).any(axis=1)).sum())
    return RateResult(
        rate=rate,
        trials=trials,
        successes=successes,
        uncorrectable=uncorrectable,
        miscorrected=miscorrected,
        total_errors=total_errors,
    )


def run_simulation(config: SimConfig, chunk_size: int = 2048) -> SimResult:
    """Algorithm loop over all configured rates, in order."""
    rows = tuple(
        simulate_transmission(
            config.code, rate, config.num_transmissions, config.master_seed,
            rate_index=i, chunk_size=chunk_size,
        )
        for i, rate in enumerate(config.error_rates)
    )
    return SimResult(master_seed=config.master_seed, rows=rows)


# ---------------------------------------------------------------------------
# CSV emission


@dataclass(frozen=True)
class SimRun:
    """One simulated code plus the distance value to print in the CSV."""

    code_name: str
    n: int
    k: int
    d: int | None
    result: SimResult


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
            for row in run.result.rows:
                writer.writerow([
                    run.code_name, run.n, run.k, "" if run.d is None else run.d,
                    _fmt(row.rate), row.trials, _fmt(row.success_rate),
                    _fmt(row.uncorrectable_rate), _fmt(row.avg_errors),
                    run.result.master_seed,
                ])


def write_series_csv(runs: Sequence[SimRun], path) -> None:
    """Per-rate series with exactly the plotted quantities."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SERIES_HEADER)
        for run in runs:
            for row in run.result.rows:
                writer.writerow([
                    run.code_name, _fmt(row.rate), _fmt(row.success_rate),
                    _fmt(row.uncorrectable_rate), _fmt(row.avg_errors),
                ])
