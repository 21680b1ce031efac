#!/usr/bin/env python3
"""Survey one-point codes on a curve across a range of r.

For each r, one `code_report` row: computed dimension vs the closed-form
prediction, designed and brute-forced distances, self-orthogonality
verdicts, and the dual index comparison.  Useful for spotting where the
closed forms and the computed ground truth part ways.
"""

import argparse

from agq.agcode import DEFAULT_BUDGET, code_report
from agq.curve import hermitian_curve, superelliptic_curve


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", choices=["superelliptic", "hermitian"],
                        default="superelliptic")
    parser.add_argument("--q", type=int, default=3)
    parser.add_argument("--m", type=int, default=3)
    parser.add_argument("--r-max", type=int, default=12)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    args = parser.parse_args()

    curve = (hermitian_curve(args.q) if args.family == "hermitian"
             else superelliptic_curve(args.q, args.m))
    print(f"{curve.label()}: genus {curve.genus}, "
          f"{curve.places_at_infinity} rational place(s) at infinity, "
          f"weights ({curve.n}, {curve.m})")
    print(f"{'r':>3} {'n':>4} {'k':>3} {'pred':>6} {'d*':>4} {'d':>8} "
          f"{'eucl':>5} {'herm':>5}  dual-index")
    for r in range(0, args.r_max + 1):
        rep = code_report(curve, r, budget=args.budget)
        d_str = str(rep.d) if rep.d is not None else f"[{rep.d_lower},{rep.d_upper}]"
        claim = rep.duality_claim
        if claim["applicable"]:
            dual_str = (f"r'={claim['r_prime']} dims {claim['dim_dual']}/{claim['dim_companion']} "
                        f"equal={claim['row_spaces_equal']}")
        else:
            dual_str = "n/a"
        print(f"{r:>3} {rep.n:>4} {rep.k:>3} {rep.dimension_predicted:>6} "
              f"{rep.d_designed:>4} {d_str:>8} "
              f"{str(rep.euclidean_self_orthogonal):>5} "
              f"{str(rep.hermitian_self_orthogonal):>5}  {dual_str}")


if __name__ == "__main__":
    main()
