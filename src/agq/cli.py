"""Command-line driver: build code reports, tabulate stabilizer
parameters, run channel simulations, and regenerate the benchmark
bundle with golden-value checks.

Subcommands: field-info, code-report, quantum-table, simulate,
reproduce.  The master seed is taken from --seed, then the AGQ_SEED
environment variable, then a fixed default; simulate (whenever it writes
a CSV) and reproduce also write a JSON manifest sufficient to re-run
them identically.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, benchmarks, claims
from .agcode import (
    DEFAULT_BUDGET,
    build_onepoint_code,
    code_report,
    dual,
    hermitian_inner,
    is_hermitian_self_orthogonal,
    load_code,
    min_distance,
    weight_distribution,
)
from .curve import Family, enumerate_points, hermitian_curve, maximality_check, superelliptic_curve
from .gf import FieldError, field
from .linalg import matmul, rank
from .quantum import load_known_codes, parameter_table, table_to_json, write_table_csv
from .rrspace import candidate_monomials, dimension_report, evaluation_matrix
from .simulator import (
    SimRun,
    _check_inputs,
    run_simulation,
    run_sweep,
    write_results_csv,
    write_series_csv,
)

DEFAULT_SEED = 123456789


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value) & (1 << 64) - 1
    env = os.environ.get("AGQ_SEED")
    if env is not None:
        try:
            return int(env) & (1 << 64) - 1
        except ValueError:
            raise ValueError(f"AGQ_SEED needs an integer, got {env!r}") from None
    return DEFAULT_SEED


def _write_manifest(path: Path, command: str, parameters: dict, outputs: list[str],
                    seed: int | None = None, codes: list[dict] | None = None) -> None:
    manifest = {
        "command": command,
        "parameters": parameters,
        "outputs": outputs,
        "master_seed": seed,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if codes is not None:
        manifest["codes"] = codes
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _simulate_codes(codes, rates, trials: int, seed: int,
                    budget: int) -> tuple[list[SimRun], list[dict]]:
    """Simulate the codes together at every rate: the CSV runs, and one manifest
    record per code, its distance computed within `budget` codewords.  The
    CSV's `d` column holds the lower bound when the distance is not exact,
    so the record names the method, both bounds and each rate's counts."""
    # run_sweep checks every input and code before the distance enumerations
    sweep = run_sweep(codes, rates, trials, seed)
    runs, records = [], []
    for code, rows in zip(codes, sweep):
        dist = min_distance(code, budget)
        runs.append(SimRun(code_name=code.name, n=code.n, k=code.k,
                           d=dist.d if dist.exact else dist.lower, master_seed=seed, rows=rows))
        records.append({
            "code": code.name, "n": code.n, "k": code.k,
            "d_method": dist.method, "d_lower": dist.lower, "d_upper": dist.upper,
            "rates": [{"rate": row.rate, "trials": row.trials, "successes": row.successes,
                       "uncorrectable": row.uncorrectable, "miscorrected": row.miscorrected}
                      for row in rows],
        })
    return runs, records


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ValueError(f"--budget needs a codeword count >= 0, got {budget}")


def _curve_from_args(args):
    family = Family(args.family)
    if family is Family.HERMITIAN:
        if args.m is not None and args.m != args.q + 1:
            raise ValueError(f"--m {args.m} differs from q+1 = {args.q + 1}, the Hermitian curve's exponent of x")
        return hermitian_curve(args.q)
    if args.m is None:
        raise ValueError("--m is required for the superelliptic family")
    return superelliptic_curve(args.q, args.m)


# ---------------------------------------------------------------------------
# subcommands


def cmd_field_info(args) -> int:
    F = field(args.p, args.e)
    payload = json.loads(F.to_json())
    payload["order"] = F.order
    payload["primitive_order"] = F.order - 1
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


def cmd_code_report(args) -> int:
    _check_budget(args.budget)
    curve = _curve_from_args(args)
    report = code_report(
        curve, args.r, eval_set=args.eval_set, budget=args.budget,
        include_weights=args.weights,
    )
    text = report.to_json()
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


def cmd_quantum_table(args) -> int:
    known = load_known_codes(args.known) if args.known else ()
    rows = parameter_table(args.q, args.m, range(args.r_min, args.r_max + 1), known=known)
    for row in rows:
        p = row.params
        flags = []
        if p.singleton_ok is False:
            flags.append("singleton-violated")
        if p.range_ok is False:
            flags.append("outside-proven-range")
        if not p.valid:
            flags.append("invalid")
        note = f"  {p.comparison}" if p.comparison else ""
        print(f"r={row.r}: [[{p.n},{p.k},{p.d}]]_{p.q}"
              + (f"  [{', '.join(flags)}]" if flags else "") + note)
    if args.out:
        write_table_csv(rows, args.out)
    if args.json:
        Path(args.json).write_text(table_to_json(rows) + "\n")
    return 0


def _parse_rates(text: str) -> tuple[float, ...]:
    try:
        rates = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ValueError(f"--rates needs comma-separated numbers, got {text!r}") from None
    if not rates:
        raise ValueError(f"--rates needs at least one rate, got {text!r}")
    return rates


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    rates = _parse_rates(args.rates)
    _check_budget(args.budget)
    if args.manifest and not (args.out or args.series_out):
        raise ValueError("--manifest needs --out or --series-out: it records the CSVs a run writes")
    if args.preset == "sweep":
        codes = benchmarks.sweep_codes()
        print("preset sweep: substituted three constructible codes over "
              "GF(4)/GF(9)/GF(25); the family needs odd q, so no GF(16) trio exists")
    elif args.matrix:
        codes = [load_code(args.matrix)]
    else:
        if args.q is None:
            raise ValueError("--q is required to build a code (or pass --matrix / --preset)")
        if args.r is None:
            raise ValueError("--r is required to build a code")
        curve = _curve_from_args(args)
        codes = [build_onepoint_code(curve, args.r)]
    runs, records = _simulate_codes(codes, rates, args.trials, seed, args.budget)
    for run in runs:
        for row in run.rows:
            print(f"{run.code_name} rate={row.rate}: success={row.success_rate:.4f} "
                  f"uncorrectable={row.uncorrectable_rate:.4f} avg_errors={row.avg_errors:.4f} "
                  f"(miscorrected={row.miscorrected})")
    outputs = []
    if args.out:
        write_results_csv(runs, args.out)
        outputs.append(str(args.out))
    if args.series_out:
        write_series_csv(runs, args.series_out)
        outputs.append(str(args.series_out))
    if outputs:
        manifest_path = Path(args.manifest or outputs[0] + ".manifest.json")
        _write_manifest(
            manifest_path, "simulate",
            {
                "preset": args.preset, "matrix": args.matrix, "family": args.family,
                "q": args.q, "m": args.m, "r": args.r, "rates": list(rates),
                "trials": args.trials, "budget": args.budget,
            },
            outputs, seed, records,
        )
    return 0


def _check(results: list, name: str, ok: bool, detail: str = "") -> None:
    results.append((name, bool(ok), detail))
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail else ""))


def _in_decoder_band(n: int, d: int, row) -> bool:
    """Whether a row's successes lie within 7 sigma of the band that the
    decoder allows a code of length n and distance at least d.

    Every error of weight w <= 1 is a success and every one of weight
    2 <= w <= d - 2 a failure, so a trial succeeds with probability in
    [P(w <= 1), P(w <= 1) + P(w >= max(2, d - 1))], w ~ Binomial(n, rate);
    sigma is that of the trials' success count at each edge.  A decoder
    that corrected nothing would succeed on weight 0 alone."""
    p, trials = row.rate, row.trials
    pmf = [math.comb(n, w) * p**w * (1 - p) ** (n - w) for w in range(n + 1)]
    low, fail = pmf[0] + pmf[1], sum(pmf[2:max(2, d - 1)])
    # a count at probability x has variance trials * x * (1 - x); 1 - x is
    # summed from the pmf, not subtracted, so that it is not below 0
    low_sd = math.sqrt(trials * low * sum(pmf[2:]))
    high_sd = math.sqrt(trials * (1 - fail) * fail)
    return trials * low - 7 * low_sd <= row.successes <= trials * (1 - fail) + 7 * high_sd


def cmd_reproduce(args) -> int:
    seed = _resolve_seed(args.seed)
    rates = (0.0, 0.05, 0.1, 0.2)
    # the manifest records the trials under --skip-sim too, so they are
    # checked, with the simulation's own messages, before the first output
    _check_inputs(rates, args.trials, seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results: list[tuple[str, bool, str]] = []
    outputs: list[str] = []
    records: list[dict] | None = None

    # benchmark [8,3,5] code and its dual
    code = benchmarks.benchmark_code_8_3()
    dist = min_distance(code)
    dcode = dual(code)
    ddist = min_distance(dcode)
    _check(results, "benchmark-code-8-3-5",
           (code.n, code.k, dist.d) == (8, 3, 5), f"[{code.n},{code.k},{dist.d}]")
    _check(results, "benchmark-dual-8-5-3",
           (dcode.n, dcode.k, ddist.d) == (8, 5, 3), f"[{dcode.n},{dcode.k},{ddist.d}]")
    report = code_report(hermitian_curve(2), 3, include_weights=True)
    (out_dir / "report_8_3.json").write_text(report.to_json() + "\n")
    outputs.append(str(out_dir / "report_8_3.json"))

    # reference matrices: same weight distribution, rank 5 parity check, G.H^T = 0
    ref = benchmarks.reference_code_8_3()
    wd_match = np.array_equal(weight_distribution(ref), weight_distribution(code))
    _check(results, "reference-generator-weight-distribution", wd_match)
    F4 = field(2, 2)
    h_rank = rank(F4, benchmarks.REFERENCE_H_8_3)
    gh = matmul(F4, benchmarks.REFERENCE_G_8_3, benchmarks.REFERENCE_H_8_3.T)
    _check(results, "reference-parity-check", h_rank == 5 and not gh.any(),
           f"rank={h_rank}, G.H^T zero={not gh.any()}")

    # saturated [4,4,1] code with 256 codewords
    sat = benchmarks.saturated_code_4_4()
    sat_wd = weight_distribution(sat)
    sat_d = min_distance(sat)
    _check(results, "saturated-4-4-1",
           (sat.n, sat.k, sat_d.d, int(sat_wd.sum())) == (4, 4, 1, 256),
           f"[{sat.n},{sat.k},{sat_d.d}] codewords={int(sat_wd.sum())}")

    # maximality by exhaustive point counts
    rep_se = maximality_check(superelliptic_curve(3, 3))
    rep_h = maximality_check(hermitian_curve(2))
    _check(results, "maximality-counts",
           rep_se.count_points == 16 and rep_se.is_maximal
           and rep_h.count_points == 9 and rep_h.is_maximal,
           f"superelliptic q=3 m=3: {rep_se.count_points}, hermitian q=2: {rep_h.count_points}")

    # stabilizer parameter tables
    rows3 = parameter_table(3, 3, range(2, 5))
    rows5 = parameter_table(5, 3, range(4, 9))
    expected3 = [(9, 5, 2), (9, 3, 3), (9, 1, 4)]
    expected5 = [(25, 19, 2), (25, 17, 3), (25, 15, 4), (25, 13, 5), (25, 11, 6)]
    got3 = [row.params.triple() for row in rows3]
    got5 = [row.params.triple() for row in rows5]
    singleton = all(row.params.singleton_ok for row in rows3 + rows5)
    _check(results, "quantum-tables", got3 == expected3 and got5 == expected5 and singleton,
           f"q=3: {got3}, q=5: {got5}")
    write_table_csv(rows3, out_dir / "quantum_q3_m3.csv")
    write_table_csv(rows5, out_dir / "quantum_q5_m3.csv")
    outputs += [str(out_dir / "quantum_q3_m3.csv"), str(out_dir / "quantum_q5_m3.csv")]

    # dimension ground truth vs the case formula; the ladder's readings
    # against the rank of the candidate matrix itself, next to where the
    # formula changes case (r = 2, 9, 11) and at r_max
    se = superelliptic_curve(3, 3)
    dim_rows = dimension_report(se, 30)
    points = enumerate_points(se)
    rank_ok = all(dim_rows[r].rank
                  == rank(se.tower.ext, evaluation_matrix(se, candidate_monomials(se, r).monomials, points))
                  for r in (2, 9, 11, 30))
    rr_ok = all(row.riemann_roch is None or row.riemann_roch == row.rank for row in dim_rows)
    disagreements = [row.r for row in dim_rows if not row.prediction_matches_rank]
    _check(results, "dimension-vs-rank", rank_ok and rr_ok,
           f"formula disagrees at r in {disagreements}")
    (out_dir / "dimension_report_q3_m3.json").write_text(
        json.dumps([asdict(row) for row in dim_rows], indent=2) + "\n"
    )
    outputs.append(str(out_dir / "dimension_report_q3_m3.json"))

    # Hermitian self-orthogonality at the report's r within the claimed
    # threshold: the library's verdict on each C_r must match an all-pairs
    # oracle over its generator rows
    herm_ok = True
    verdicts = {}
    for row in dim_rows:
        if not claims.report_claims(se.q, se.m, row.r)["hermitian_threshold_r"]:
            continue
        c_r = build_onepoint_code(se, row.r)
        verdict = is_hermitian_self_orthogonal(c_r)
        G = c_r.generator
        direct = all(hermitian_inner(se.tower, gi, gj) == 0 for gi in G for gj in G)
        verdicts[row.r] = verdict
        herm_ok = herm_ok and (verdict == direct)
    _check(results, "hermitian-orthogonality-consistency", herm_ok,
           f"verdicts for r<=q-1: {verdicts} (threshold claim: all true)")

    if not args.skip_sim:
        sweep = benchmarks.sweep_codes()
        runs, records = _simulate_codes(sweep, rates, args.trials, seed, DEFAULT_BUDGET)
        write_results_csv(runs, out_dir / "results.csv")
        write_series_csv(runs, out_dir / "series.csv")
        outputs += [str(out_dir / "results.csv"), str(out_dir / "series.csv")]

        zero_ok = all(run.rows[0].success_rate == 1.0 and run.rows[0].avg_errors == 0.0
                      for run in runs)
        _check(results, "simulation-zero-rate", zero_ok)
        # each nonzero rate's average error count within 5 sigma of n * rate,
        # and its successes within the decoder's band
        bands_ok = all(abs(row.avg_errors - run.n * row.rate)
                       <= 5 * (run.n * row.rate * (1 - row.rate) / row.trials) ** 0.5
                       and _in_decoder_band(run.n, run.d, row)
                       for run in runs for row in run.rows[1:])
        _check(results, "simulation-error-bands", bands_ok)
        # the first code at rates 0 and 0.05 over at most 2000 trials, run
        # alone, against the same trials read from the streams shared with
        # the longer codes: up to 2000 trials the sweep's own first two
        # rows, above that a 2000-trial sweep.  From 1821 trials the two
        # sides also split the trials into different chunks.
        first, n_first = sweep[0], min(args.trials, 2000)
        rerun = run_simulation(first, rates[:2], n_first, seed)
        base = runs[0].rows if args.trials <= 2000 else run_sweep(sweep, rates[:2], n_first, seed)[0]
        _check(results, "simulation-determinism", rerun == base[:2])

    _write_manifest(out_dir / "manifest.json", "reproduce",
                    {"trials": args.trials, "skip_sim": args.skip_sim}, outputs, seed, records)

    failures = [name for name, ok, _ in results if not ok]
    if failures:
        print(f"\n{len(failures)} golden check(s) failed: {', '.join(failures)}")
        return 1
    print(f"\nall {len(results)} golden checks passed; outputs in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agq",
        description="algebraic-geometry codes on maximal curves: reports, "
                    "stabilizer parameters, channel simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info", help="print a field description as JSON")
    p.add_argument("--p", type=int, required=True, help="prime characteristic")
    p.add_argument("--e", type=int, default=1, help="extension degree")
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=cmd_field_info)

    p = sub.add_parser("code-report", help="build a one-point code and verify its parameters")
    _add_curve_args(p)
    p.add_argument("--r", type=int, required=True, help="weight bound: x^i y^j with i*n + j*m <= r")
    p.add_argument("--eval-set", default="all", help="all | first:N | exclude-subfield")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max codewords q^k that exact distances and weights may cover")
    p.add_argument("--weights", action="store_true", help="include the weight distribution")
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=cmd_code_report)

    p = sub.add_parser("quantum-table", help="tabulate [[n,k,d]]_q parameters over a range of r")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r-min", type=int, required=True)
    p.add_argument("--r-max", type=int, required=True)
    p.add_argument("--known", help="CSV of known codes (n, k, d, tag) for comparison")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--json", help="JSON output path")
    p.set_defaults(func=cmd_quantum_table)

    p = sub.add_parser("simulate", help="Monte-Carlo transmission and decoding")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--matrix", help="explicit generator matrix file")
    src.add_argument("--preset", choices=["sweep"], help="three-code rate sweep")
    _add_curve_args(p, required=False)
    p.add_argument("--r", type=int, help="weight bound: x^i y^j with i*n + j*m <= r")
    p.add_argument("--rates", default="0.0,0.05,0.1,0.2", help="comma-separated symbol error rates")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, help="master seed (fallback: AGQ_SEED, then default)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max codewords q^k that exact distances may cover")
    p.add_argument("--out", help="results CSV path")
    p.add_argument("--series-out", help="per-rate series CSV path")
    p.add_argument("--manifest", help="manifest path, written with either CSV "
                   "(default: <out>.manifest.json, else <series-out>.manifest.json)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce", help="regenerate the benchmark bundle and check golden values")
    p.add_argument("--out-dir", default="reproduction", help="output directory")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int)
    p.add_argument("--skip-sim", action="store_true", help="algebra-only bundle")
    p.set_defaults(func=cmd_reproduce)
    return parser


def _add_curve_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--family", choices=[f.value for f in Family],
                   default=Family.SUPERELLIPTIC.value)
    p.add_argument("--q", type=int, required=required, help="subfield size (field is GF(q^2))")
    p.add_argument("--m", type=int, help="exponent of x (superelliptic family)")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FieldError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
