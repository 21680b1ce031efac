"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np
import pytest

from agq import benchmarks, simulator
from agq.agcode import (
    build_onepoint_code,
    dual,
    hermitian_inner,
    is_hermitian_self_orthogonal,
    min_distance,
    weight_distribution,
)
from agq.curve import hermitian_curve, maximality_check, superelliptic_curve
from agq.gf import field
from agq.linalg import matmul, rank
from agq.quantum import parameter_table
from agq.rrspace import dimension_report
from agq.simulator import SimRun, run_simulation, write_results_csv, write_series_csv
from oracles import NaiveField, naive_codewords, naive_hermitian_inner


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"exceeded time budget: {self.elapsed:.2f}s >= {self.seconds}s"
            )
        return False


def verdict(number, ok, message):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, message


def test_criterion_1_benchmark_code_and_dual():
    with Budget(1.0) as b:
        code = build_onepoint_code(hermitian_curve(2), 3)
        dist = min_distance(code)
        dcode = dual(code)
        ddist = min_distance(dcode)
    ok = (code.n, code.k, dist.d) == (8, 3, 5) and (dcode.n, dcode.k, ddist.d) == (8, 5, 3)
    verdict(1, ok, f"one-point code [{code.n},{code.k},{dist.d}] with dual "
                   f"[{dcode.n},{dcode.k},{ddist.d}] in {b.elapsed:.3f}s")


def test_criterion_2_reference_matrix_cross_check():
    with Budget(1.0) as b:
        built = build_onepoint_code(hermitian_curve(2), 3)
        ref = benchmarks.reference_code_8_3()
        wd_match = np.array_equal(weight_distribution(ref), weight_distribution(built))
        F = field(2, 2)
        h_rank = rank(F, benchmarks.REFERENCE_H_8_3)
        gh_zero = not matmul(F, benchmarks.REFERENCE_G_8_3, benchmarks.REFERENCE_H_8_3.T).any()
    ok = wd_match and h_rank == 5 and gh_zero
    verdict(2, ok, f"weight distributions match={wd_match}, rank(H)={h_rank}, "
                   f"G.H^T=0 is {gh_zero} in {b.elapsed:.3f}s")


def test_criterion_3_saturated_code():
    code = benchmarks.saturated_code_4_4()
    wd = weight_distribution(code)
    dist = min_distance(code)
    ok = (code.n, code.k, dist.d, int(wd.sum())) == (4, 4, 1, 256)
    verdict(3, ok, f"saturated construction gives [{code.n},{code.k},{dist.d}] "
                   f"with {int(wd.sum())} codewords")


def test_criterion_4_maximality_counts():
    with Budget(1.0) as b:
        rep_se = maximality_check(superelliptic_curve(3, 3))
        rep_h = maximality_check(hermitian_curve(2))
    ok = (rep_se.count_points, rep_se.is_maximal) == (16, True) and (
        rep_h.count_points, rep_h.is_maximal) == (9, True)
    verdict(4, ok, f"point counts {rep_se.count_points} (q=3,m=3) and "
                   f"{rep_h.count_points} (hermitian q=2) in {b.elapsed:.3f}s")


def test_criterion_5_quantum_tables():
    rows3 = parameter_table(3, 3, range(2, 5))
    rows5 = parameter_table(5, 3, range(4, 9))
    got3 = [r.params.triple() for r in rows3]
    got5 = [r.params.triple() for r in rows5]
    singleton = all(r.params.singleton_ok for r in rows3 + rows5)
    ok = (
        got3 == [(9, 5, 2), (9, 3, 3), (9, 1, 4)]
        and got5 == [(25, 19, 2), (25, 17, 3), (25, 15, 4), (25, 13, 5), (25, 11, 6)]
        and singleton
    )
    verdict(5, ok, f"q=3 table {got3}, q=5 table {got5}, all satisfy k+2d<=n+2")


def test_criterion_6_dimension_ground_truth():
    with Budget(5.0) as b:
        curve = superelliptic_curve(3, 3)
        rows = dimension_report(curve, 30)
        rank_ok = all(row.rank == row.verified_count for row in rows)
        rr_ok = all(row.riemann_roch is None or row.riemann_roch == row.rank for row in rows)
        disagreements = [row.r for row in rows if not row.prediction_matches_rank]
    ok = rank_ok and rr_ok and disagreements == list(range(3, 31))
    verdict(6, ok, f"rank==|verified basis| for all r in 0..30, Riemann-Roch holds "
                   f"unsaturated, formula disagrees at r in 3..30 ({len(disagreements)} rows) "
                   f"in {b.elapsed:.2f}s")


def test_criterion_7_hermitian_orthogonality_consistency():
    with Budget(5.0) as b:
        curve = superelliptic_curve(3, 3)
        nf = NaiveField(3, 2, curve.tower.ext.modulus)
        verdicts = {}
        consistent = True
        for r in range(0, curve.q):  # r <= q - 1 = 2
            code = build_onepoint_code(curve, r)
            fast = is_hermitian_self_orthogonal(code)
            direct = all(
                naive_hermitian_inner(nf, 3, gi, gj) == 0
                for gi in code.generator.tolist()
                for gj in code.generator.tolist()
            )
            verdicts[r] = fast
            consistent = consistent and fast is direct
    claim_range = f"threshold r <= {curve.q - 1} predicts all true; computed {verdicts}"
    verdict(7, consistent, f"verdict matches all-pairs oracle for every r; {claim_range} "
                           f"in {b.elapsed:.2f}s")


def test_criterion_8_simulator_statistics(tmp_path, monkeypatch):
    with Budget(30.0) as b:
        code = build_onepoint_code(hermitian_curve(2), 3, name="herm-q2-r3")
        seed = 2024
        (zero,) = run_simulation(code, (0.0,), 1000, seed)
        exact_ok = zero.success_rate == 1.0 and zero.avg_errors == 0.0

        rates = (0.05, 0.1, 0.2)
        trials = 10_000
        rows = run_simulation(code, rates, trials, seed)
        bands_ok = True
        for row in rows:
            sigma = (code.n * row.rate * (1 - row.rate) / trials) ** 0.5
            if abs(row.avg_errors - code.n * row.rate) > 5 * sigma:
                bands_ok = False
        monotone_ok = True
        for a, c in zip(rows, rows[1:]):
            va = a.success_rate * (1 - a.success_rate) / trials
            vc = c.success_rate * (1 - c.success_rate) / trials
            if a.success_rate - c.success_rate < -5 * (va + vc) ** 0.5 - 1e-12:
                monotone_ok = False

        def emit(tag, blocks):
            monkeypatch.setattr(simulator, "PHILOX_BLOCKS", blocks)
            res = run_simulation(code, rates, trials, seed)
            path = tmp_path / f"c8_{tag}.csv"
            write_results_csv([SimRun(code.name, code.n, code.k, 5, seed, res)], path)
            return path.read_bytes()

        # n = 8 fills 2 Philox blocks per trial: chunks of 8192 trials at the
        # default 16384 blocks, against chunks of 613
        determinism_ok = emit("a", 16384) == emit("b", 1226)
    ok = exact_ok and bands_ok and monotone_ok and determinism_ok
    verdict(8, ok, f"rate-0 exact={exact_ok}, 5-sigma bands={bands_ok}, "
                   f"monotone={monotone_ok}, byte-identical CSVs across chunks of 8192 "
                   f"and 613 trials={determinism_ok} in {b.elapsed:.1f}s")


def test_criterion_9_single_error_correction_exhaustive():
    from agq.linalg import _column_table
    from agq.simulator import _decode_batch

    with Budget(5.0) as b:
        code = build_onepoint_code(hermitian_curve(2), 3)
        F = code.field
        table = _column_table(F, code.parity_check)
        # all 64 codewords x 8 positions x 3 wrong symbols
        codewords = np.array(list(naive_codewords(NaiveField(F.p, F.e, F.modulus),
                                                  code.generator.tolist())))
        total = corrected = 0
        for word in codewords:
            for i in range(code.n):
                for c in range(F.order):
                    if c == word[i]:
                        continue
                    received = word.copy()
                    received[i] = c
                    total += 1
                    decoded, statuses = _decode_batch(code, received.reshape(1, -1), table)
                    if statuses[0] == 1 and np.array_equal(decoded[0], word):
                        corrected += 1
    ok = total == 64 * 8 * 3 and corrected == total
    verdict(9, ok, f"{corrected}/{total} single-symbol errors corrected to the "
                   f"transmitted codeword in {b.elapsed:.2f}s")


def test_criterion_10_figures_shaped_csv_pair(tmp_path):
    # no external data tables exist to compare against numerically, and the
    # family admits no GF(16) code trio; accepted instead: the emitted CSV
    # pair carries the plot axes/metrics, three code blocks, and
    # criterion-8-style statistical properties.
    seed = 77
    rates = (0.0, 0.05, 0.1, 0.2)
    trials = 10_000

    def emit(tag):
        runs = []
        for code in benchmarks.sweep_codes():
            dist = min_distance(code)
            res = run_simulation(code, rates, trials, seed)
            runs.append(SimRun(code.name, code.n, code.k,
                               dist.d if dist.exact else dist.lower, seed, res))
        results_path = tmp_path / f"results_{tag}.csv"
        series_path = tmp_path / f"series_{tag}.csv"
        write_results_csv(runs, results_path)
        write_series_csv(runs, series_path)
        return runs, results_path, series_path

    runs, results_path, series_path = emit("a")

    header = results_path.read_text().splitlines()[0]
    series_header = series_path.read_text().splitlines()[0]
    headers_ok = (
        header == "code,n,k,d,rate,trials,success_rate,uncorrectable_rate,avg_errors,seed"
        and series_header == "code,rate,success_rate,uncorrectable_rate,avg_errors"
    )
    blocks_ok = len(runs) == 3 and len({run.code_name for run in runs}) == 3
    zero_ok = all(run.rows[0].success_rate == 1.0
                  and run.rows[0].avg_errors == 0.0 for run in runs)
    bands_ok = True
    partition_ok = True
    for run in runs:
        for row in run.rows:
            sigma = (run.n * row.rate * (1 - row.rate) / trials) ** 0.5
            if row.rate and abs(row.avg_errors - run.n * row.rate) > 5 * sigma:
                bands_ok = False
            if row.successes + row.uncorrectable != row.trials:
                partition_ok = False
    _, results_b, series_b = emit("b")
    determinism_ok = (results_path.read_bytes() == results_b.read_bytes()
                      and series_path.read_bytes() == series_b.read_bytes())
    ok = headers_ok and blocks_ok and zero_ok and bands_ok and partition_ok and determinism_ok
    verdict(10, ok, f"CSV pair has figure axes/metrics, 3 code blocks "
                    f"({[run.code_name for run in runs]}), zero-rate exactness, "
                    f"5-sigma bands, exact metric partition, deterministic rerun")
