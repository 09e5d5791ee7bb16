#!/usr/bin/env python3
"""Walk through the chain profile of one operator at one point.

Prints the four dimension chains with their eventual affine tails, the
structural summary (alpha, beta, ascent, descent, index), and for matrix
atoms the decomposition bases and the Drazin inverse of the shifted block.

Examples:
    python3 demos/chain_profiles.py --name jordan3
    python3 demos/chain_profiles.py --name right_jordan3_qnil --lambda 1/10,0
    python3 demos/chain_profiles.py --doc my_operator.json
"""
import sys

from fredprofile import (
    CATALOG,
    FredprofileError,
    OperatorDocument,
    analyze_expr,
    build_report,
    by_name,
)
from fredprofile.cli import Parser, entry, parse_point, read_document


def load(args):
    if args.doc:
        return read_document(args.doc), 1
    entry = by_name(args.name)
    return OperatorDocument(entry.name, entry.expr), entry.power


def main(argv=None):
    ap = Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--name", default="jordan3", choices=[e.name for e in CATALOG])
    ap.add_argument("--doc", metavar="F", help="operator document instead of --name")
    ap.add_argument("--lambda", dest="lam", default="0,0", metavar="RE,IM")
    args = ap.parse_args(argv)

    # one error line and the CLI's exit codes: 1 for the point, as analyze
    # --lambda gives, and the error class's code for the rest
    try:
        lam = parse_point(args.lam)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        doc, power = load(args)
        an = analyze_expr(doc.expr, lam, power)
        rep = build_report(doc, lam)
    except FredprofileError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code

    print(f"operator: {doc.name}   point: {rep.re} + {rep.im}i   power: {power}")
    print()
    # the chains and summary are those of (e - lam)^power; the report, of
    # e - lam, gives the decomposition, whose two sides the power keeps
    print("chains (kernel a, range defect r, meet c, join defect b):")
    shown = rep.chains["display_length"]
    full = an.full
    print(f"  n   : {'  '.join(f'{n:>4}' for n in range(shown))}")
    for label, seq in zip("arcbk", (full.a, full.r, full.c, full.b, full.c.diff())):
        cells = "  ".join(f"{seq.at(n).to_str():>4}" for n in range(shown))
        print(f"  {label}_n : {cells}   then {seq.tail_formula()}")
    closed = [True] + [full.range_closed] * (shown - 1)
    print(f"  closed range at step n: {'  '.join('yes' if c else ' no' for c in closed)}")
    print()
    s = an.summary.to_strs()
    print("summary:")
    print(f"  alpha={s['alpha']}  beta={s['beta']}  p={s['p']}  q={s['q']}  index={s['index']}")
    print(f"  dis={an.summary.dis.to_str()}  "
          f"fitting index={full.a.stabilization_point().to_str()}  "
          f"quasi-nilpotent={full.is_quasinilpotent}")
    print()
    if not rep.gkd["decomposable"]:
        print("no kernel/range decomposition at this point (not pseudo-Fredholm)")
        return 0
    print("decomposition:")
    m_part = rep.gkd["m_part"]
    n_part = rep.gkd["n_part"]
    print(f"  regular side : {'(empty)' if m_part is None else [a['type'] for a in m_part]}")
    print(f"  nilpotent side: {'(empty)' if n_part is None else [a['type'] for a in n_part]}")
    for sp in rep.gkd["splits"]:
        print(f"  matrix atom {sp['atom_index']}: regular basis {sp['m_basis'] or '[]'}"
              f", nilpotent basis {sp['n_basis'] or '[]'}")
    for ma in rep.matrix_atoms:
        print()
        print(f"matrix atom {ma['atom_index']} shifted by the point:")
        for row in ma["shifted_block"]:
            print("   ", "  ".join(f"{x:>6}" for x in row))
        print("  Drazin inverse:")
        for row in ma["drazin"]:
            print("   ", "  ".join(f"{x:>6}" for x in row))
        print(f"  core-kernel meet dim {ma['core_kernel_meet_dim']}, "
              f"range+h0 join codim {ma['range_h0_join_codim']}")
    return 0


if __name__ == "__main__":
    entry(main)
