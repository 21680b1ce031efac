"""Stabilizer code parameters from Hermitian self-orthogonal codes.

A q-ary [[n, n-2k, d]] stabilizer code exists for every Hermitian
self-orthogonal [n, k] code over GF(q^2) whose Hermitian dual has
minimum distance d.  `params_from_code` derives the triple from an
actual code (brute-forcing the dual distance within a budget, and
reporting no distance past it); `designed_params` records the
closed-form family of `claims.quantum_family`, flagging fractional
intermediates, out-of-range r, and quantum-Singleton violations instead
of correcting them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import claims
from .agcode import (
    DEFAULT_BUDGET,
    LinearCode,
    hermitian_dual,
    hermitian_violation,
    min_distance,
)


@dataclass(frozen=True)
class QuantumParams:
    """One [[n, k, d]]_q record with its sanity flags.

    `d_verified` is False when d is a designed value that was not
    confirmed by brute force.  `valid` requires integer parameters,
    n >= 1, d >= 1 and k >= 0.
    """

    q: int
    n: int
    k: int
    d: int | None
    source: str
    d_verified: bool
    singleton_ok: bool | None
    k_nonnegative: bool
    degenerate: bool = False
    range_ok: bool | None = None
    fractional: bool = False
    comparison: str = ""

    @property
    def valid(self) -> bool:
        return (
            not self.fractional
            and self.n >= 1
            and self.d is not None
            and self.d >= 1
            and self.k_nonnegative
        )

    def triple(self) -> tuple[int, int, int | None]:
        return (self.n, self.k, self.d)

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["valid"] = self.valid
        return out


def _singleton_ok(n: int, k: int, d: int | None) -> bool | None:
    if d is None:
        return None
    return k + 2 * d <= n + 2


def params_from_code(code: LinearCode, budget: int = DEFAULT_BUDGET) -> QuantumParams:
    """[[n, n-2k, d_dual]]_q from a Hermitian self-orthogonal code over GF(q^2).

    Raises ValueError (naming the violating row pair) when the input is
    not Hermitian self-orthogonal.  The dual distance is brute-forced
    when it fits the budget; otherwise d is None, with d_verified=False.
    """
    pair = hermitian_violation(code)
    if pair is not None:
        raise ValueError(
            f"code is not Hermitian self-orthogonal: generator rows {pair[0]} and {pair[1]} "
            "have nonzero Hermitian product"
        )
    tower = code.tower
    dual_code = hermitian_dual(code)
    dist = min_distance(dual_code, budget)
    d = dist.d if dist.exact else None
    n, k = code.n, code.n - 2 * code.k
    return QuantumParams(
        q=tower.q,
        n=n,
        k=k,
        d=d,
        source="derived-from-code",
        d_verified=dist.exact,
        singleton_ok=_singleton_ok(n, k, d),
        k_nonnegative=k >= 0,
        degenerate=code.k == 0,
    )


def designed_params(q: int, m: int, r: int) -> QuantumParams:
    """The closed-form [[n, k, d]]_q triple for the curve parameters (q, m, r).

    Outside the proven range of r the record is returned with
    range_ok=False rather than rejected.  FieldError when q is not a
    prime power or m < 2.
    """
    n, k, d, range_ok = claims.quantum_family(q, m, r)
    fractional = not (k.denominator == 1 and d.denominator == 1)
    k_i = int(k) if k.denominator == 1 else 0
    d_i = int(d) if d.denominator == 1 else None
    return QuantumParams(q=q, n=int(n), k=k_i, d=d_i, source="formula", d_verified=False,
                         singleton_ok=None if fractional else _singleton_ok(int(n), k_i, d_i),
                         k_nonnegative=k >= 0, range_ok=range_ok, fractional=fractional)


@dataclass(frozen=True)
class KnownCode:
    n: int
    k: int
    d: int
    tag: str


def load_known_codes(path) -> list[KnownCode]:
    """CSV with columns n, k, d, tag (header optional)."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or not row[0].strip().isdigit():
                continue
            try:
                n, k, d = (int(c) for c in row[:3])
            except ValueError:
                raise ValueError(f"{path}, line {reader.line_num}: expected integers n, k, d, got {row}") from None
            out.append(KnownCode(n, k, d, row[3].strip() if len(row) > 3 else ""))
    return out


@dataclass(frozen=True)
class TableRow:
    q: int
    m: int
    r: int
    params: QuantumParams


def parameter_table(q: int, m: int, r_values: Iterable[int],
                    known: Sequence[KnownCode] = ()) -> list[TableRow]:
    """One record per r, sorted by r, with optional known-code comparisons."""
    rows = []
    for r in sorted(set(int(r) for r in r_values)):
        params = designed_params(q, m, r)
        notes = [
            f"known [[{kc.n},{kc.k},{kc.d}]] ({kc.tag})" if kc.tag else f"known [[{kc.n},{kc.k},{kc.d}]]"
            for kc in known
            if kc.n == params.n and kc.k == params.k
        ]
        if notes:
            params = QuantumParams(**{**params.__dict__, "comparison": "; ".join(notes)})
        rows.append(TableRow(q=q, m=m, r=r, params=params))
    return rows


def write_table_csv(rows: Sequence[TableRow], path) -> None:
    include_comparison = any(row.params.comparison for row in rows)
    header = ["q", "m", "r", "n", "k", "d", "singleton_ok", "source"]
    if include_comparison:
        header.append("comparison")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            p = row.params
            record = [row.q, row.m, row.r, p.n, p.k, "" if p.d is None else p.d,
                      "" if p.singleton_ok is None else int(p.singleton_ok), p.source]
            if include_comparison:
                record.append(p.comparison)
            writer.writerow(record)


def table_to_json(rows: Sequence[TableRow]) -> str:
    return json.dumps(
        [{"q": row.q, "m": row.m, "r": row.r, **row.params.to_dict()} for row in rows],
        indent=2,
        sort_keys=True,
    )
