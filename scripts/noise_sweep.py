"""Sweep a noise parameter and track the crosstalk and entanglement measures.

Works on the exact noisy POVM (no sampling), so the printed curves show the
measures themselves rather than shot noise. For the entangled model the
distance of the all-zeros element grows with p while its smallest
partial-transpose eigenvalue falls as -p/2; for classical_corr the distance
grows but the element stays PPT everywhere.
"""

import argparse
import csv
import sys

from detomo import (
    NoiseSpec,
    Partition,
    crosstalk_error,
    make_noisy_povm,
    normalize,
    nppt_test,
    total_error,
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=("entangled", "classical_corr"), default="entangled")
    parser.add_argument("--steps", type=int, default=11, help="grid points on [0, 1]")
    parser.add_argument("--out", default=None, help="optional CSV path")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    if args.steps < 2:
        raise SystemExit("need at least two grid points")
    split = Partition(((0,), (1,)))
    rows = []
    for i in range(args.steps):
        x = i / (args.steps - 1)
        spec = (
            NoiseSpec(kind="entangled", p=x)
            if args.kind == "entangled"
            else NoiseSpec(kind="classical_corr", w=x)
        )
        povm = make_noisy_povm(2, spec)
        elem = normalize(povm.element("00"))
        verdict = nppt_test(elem, split)
        rows.append(
            {
                "x": x,
                "D_N": total_error(elem, "00"),
                "D_C": crosstalk_error(elem, split),
                "min_pt_eigenvalue": verdict.min_eigenvalue,
                "verdict": verdict.verdict,
            }
        )

    print(f"{args.kind} sweep, all-zeros element, partition 0:1")
    print(f"{'x':>6} {'D_N':>8} {'D_C':>8} {'min PT eig':>11}  verdict")
    for r in rows:
        print(
            f"{r['x']:6.2f} {r['D_N']:8.4f} {r['D_C']:8.4f} "
            f"{r['min_pt_eigenvalue']:+11.4f}  {r['verdict']}"
        )

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
