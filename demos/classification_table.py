#!/usr/bin/env python3
"""Classification table for the built-in operator catalog.

For each operator the table lists, at a handful of rational points, the
strongest classifications that hold together with the index. A second
table follows one shift across the unit circle to show the regularity
collapsing on the boundary.

Example:
    python3 demos/classification_table.py
    python3 demos/classification_table.py --points 0,0 1/2,0 0,1 2,0
"""
import sys

from fredprofile import CATALOG, RIGHT_SHIFT, OperatorExpr, classify
from fredprofile.cli import Parser, entry, parse_point

# most specific first; the first flag that holds is the headline
HEADLINES = (
    ("invertible", "invertible"),
    ("fredholm", "fredholm"),
    ("upper_semi_fredholm", "upper semi-F"),
    ("lower_semi_fredholm", "lower semi-F"),
    ("b_fredholm", "B-Fredholm"),
    ("upper_semi_b_fredholm", "upper semi-BF"),
    ("lower_semi_b_fredholm", "lower semi-BF"),
    ("pseudo_b_fredholm", "pseudo-BF"),
    ("upper_pseudo_semi_b_fredholm", "upper psBF"),
    ("lower_pseudo_semi_b_fredholm", "lower psBF"),
)


def headline(rec):
    for name, short in HEADLINES:
        if rec.flag(name):
            return short
    return "irregular"


def main(argv=None):
    ap = Parser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--points",
        nargs="+",
        default=["0,0", "1/2,0", "0,1"],
        metavar="RE,IM",
        help="points to classify at",
    )
    args = ap.parse_args(argv)
    # one error line and exit 1, as analyze --lambda gives
    try:
        points = [parse_point(t) for t in args.points]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    width = max(len(e.name) for e in CATALOG)
    header = f"{'operator':<{width}}"
    for lam in points:
        header += f" | {f'{lam[0]},{lam[1]}':>19}"
    print(header)
    print("-" * len(header))
    for entry in CATALOG:
        row = f"{entry.name:<{width}}"
        for lam in points:
            rec = classify(entry.expr, lam, entry.power)
            idx = rec.summary.index.to_str()
            row += f" | {headline(rec):>13} {idx:>5}"
        print(row)

    print()
    print("right shift across the unit circle:")
    shift = OperatorExpr.of(RIGHT_SHIFT)
    for text in ("0,0", "9/10,0", "1,0", "3/5,4/5", "11/10,0", "0,2"):
        lam = parse_point(text)
        rec = classify(shift, lam)
        mods = lam[0] * lam[0] + lam[1] * lam[1]
        where = "inside" if mods < 1 else ("on" if mods == 1 else "outside")
        flags = ", ".join(n for n in ("invertible", "fredholm", "semi_regular",
                                      "pseudo_fredholm") if rec.flag(n)) or "nothing"
        print(f"  {text:>8} ({where:>7}): {flags}; index {rec.summary.index}")
    return 0


if __name__ == "__main__":
    entry(main)
