#!/usr/bin/env python3
"""Scan a rational grid, draw the chosen spectrum, and report components.

The map marks spectrum points with '#'. Every other point belongs to a
connected component of the complement; those are drawn with the component
id (mod 10). The report below the map lists each component with its
constant index.

Example:
    python3 demos/spectrum_regions.py
    python3 demos/spectrum_regions.py --name right_right_left --set pbw
"""
import sys

from fredprofile import CATALOG, SPECTRUM_NAMES, by_name, component_index_report, scan
from fredprofile.cli import Parser, entry, parse_grid
from fredprofile.spectra import component_runs


def main(argv=None):
    ap = Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--name", default="right_shift", choices=[e.name for e in CATALOG])
    ap.add_argument(
        "--grid",
        default="-2,2,-2,2,21,21",
        metavar="RE0,RE1,IM0,IM1,NR,NI",
    )
    ap.add_argument("--set", dest="set_name", default="pbf", choices=SPECTRUM_NAMES)
    args = ap.parse_args(argv)

    entry = by_name(args.name)
    if entry.power != 1:
        print("error: grid scans use the operator itself, not a power", file=sys.stderr)
        return 1
    try:
        grid = parse_grid(args.grid)
    except ValueError as exc:
        # one line and exit code 1, as the CLI's spectrum --grid gives
        print(f"error: {exc}", file=sys.stderr)
        return 1

    s = scan(entry.expr, grid)
    # a cell of the spectrum stays '#'; the runs outside it carry their component
    cells = ["#"] * len(s.ids)
    for first, n, cid, _ in component_runs(s, args.set_name):
        cells[first : first + n] = [str(cid % 10)] * n

    print(f"operator {entry.name}, spectrum sigma_{args.set_name}, "
          f"{grid.re_steps}x{grid.im_steps} points on "
          f"[{grid.re_min},{grid.re_max}]x[{grid.im_min},{grid.im_max}]")
    print()
    # top row = largest imaginary part
    for i in reversed(range(grid.im_steps)):
        print("   " + " ".join(cells[i * grid.re_steps : (i + 1) * grid.re_steps]))
    print()
    rep = component_index_report(s, args.set_name)
    print(f"{cells.count('#')} of {len(cells)} points lie in sigma_{args.set_name}")
    for c in rep.components:
        print(f"  component {c.id}: index {c.index}, {c.point_count} points, "
              f"first at ({c.first_point[0]}, {c.first_point[1]})")
    return 0


if __name__ == "__main__":
    entry(main)
