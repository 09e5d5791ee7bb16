"""Command line interface.

Commands: analyze (classify one operator document at one point), spectrum
(grid scan to CSV or JSON), drazin (Drazin inverse of a single matrix
document), verify (randomized property suites).

Exit codes: 0 success; 1 usage error (including a grid of more than
MAX_GRID_POINTS points, a verify --cases count past verify.MAX_CASES and
a point count, --cases or --seed not in ASCII digits); 4 drazin on a
non-matrix document; 5 verify found a property violation. Any other
failure is a FredprofileError: one "prefix: message" line on stderr and
its class's exit_code, 2 for a DocumentError (a document that does not
parse or validate, is not UTF-8 or has more than MAX_DOCUMENT_BYTES
bytes), 7 for an OutputError (an unwritable output file or stdout, or a
rational too long to print) and 6 for every other class (an internal
error: a bug in this package). Code 3 is not used.
"""
from __future__ import annotations

import argparse
import errno
import os
import sys

from .docio import MAX_DOCUMENT_BYTES, build_report, matrix_rows, parse_document
from .errors import DocumentError, FredprofileError, OutputError
from .extvals import int_numeral, natural_numeral
from .model import Point, point
from .spectra import GridSpec, SPECTRUM_NAMES, scan, scan_to_csv, scan_to_json
from .structure import drazin_inverse
from .verify import MAX_CASES, SUITE_NAMES, run as run_suites


class Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> Parser:
    p = Parser(prog="fredprofile", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify a document at one point")
    pa.add_argument("--in", dest="infile", required=True, metavar="F")
    pa.add_argument(
        "--lambda",
        dest="lam",
        default="0,0",
        metavar="RE,IM",
        help="rational point, e.g. 1/2,-3",
    )
    pa.add_argument("--out", dest="outfile", metavar="F")
    pa.set_defaults(parser=pa)

    ps = sub.add_parser("spectrum", help="scan a rational grid")
    ps.add_argument("--in", dest="infile", required=True, metavar="F")
    ps.add_argument(
        "--grid",
        required=True,
        metavar="RE0,RE1,IM0,IM1,NR,NI",
        help="bounds and point counts per axis",
    )
    ps.add_argument(
        "--set",
        dest="set_name",
        default="pbf",
        choices=SPECTRUM_NAMES,
        help="spectrum whose components --format json reports; CSV ignores it",
    )
    ps.add_argument("--out", dest="outfile", metavar="F")
    ps.add_argument("--format", dest="fmt", default="csv", choices=("csv", "json"))
    ps.set_defaults(parser=ps)

    pd = sub.add_parser("drazin", help="Drazin inverse of a matrix document")
    pd.add_argument("--in", dest="infile", required=True, metavar="F")

    pv = sub.add_parser("verify", help="run randomized property suites")
    pv.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))
    # ASCII digits only, as for grid point counts; a seed may be negative
    pv.add_argument("--cases", type=natural_numeral, default=200)
    pv.add_argument("--seed", type=int_numeral, default=0)
    pv.set_defaults(parser=pv)
    return p


def parse_point(text: str) -> Point:
    """The point RE,IM of a --lambda text; a ValueError names what is
    wrong."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"point must be RE,IM, got {text!r}")
    return point(parts[0], parts[1])


def parse_grid(text: str) -> GridSpec:
    """The grid RE0,RE1,IM0,IM1,NR,NI of a --grid text; a ValueError names
    what is wrong."""
    parts = text.split(",")
    if len(parts) != 6:
        raise ValueError(f"grid must be RE0,RE1,IM0,IM1,NR,NI, got {text!r}")
    return GridSpec(*parts[:4], natural_numeral(parts[4]), natural_numeral(parts[5]))


def _usage(args, parse, text: str):
    # a malformed argument is a usage error of the subcommand args.parser
    try:
        return parse(text)
    except ValueError as exc:
        args.parser.error(str(exc))


# read_document reads at most this many bytes at a time: one read of the
# whole bound would allocate it, 1 MiB, for a document of a few hundred bytes
_READ_CHUNK = 1 << 16


def read_document(path: str):
    """The document in file path; DocumentError names what is wrong."""
    # one byte past the limit is enough to tell that a document is too long
    chunks, size = [], 0
    try:
        with open(path, "rb") as fh:
            while size <= MAX_DOCUMENT_BYTES:
                chunk = fh.read(min(_READ_CHUNK, MAX_DOCUMENT_BYTES + 1 - size))
                if not chunk:
                    break
                chunks.append(chunk)
                size += len(chunk)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    if size > MAX_DOCUMENT_BYTES:
        raise DocumentError(f"{path} is larger than {MAX_DOCUMENT_BYTES} bytes")
    try:
        text = b"".join(chunks).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8: {exc}") from None
    return parse_document(text)


# _emit writes a text in slices of this many characters: each write encodes
# its slice into a buffer of its own, so a large scan is not held twice. A
# 41 x 41 JSON scan (about 1.6 MB) is still one write: a StringIO stdout
# joins several writes at a cost of about 1 ms per MB.
WRITE_SLICE = 1 << 22


def _write_slices(fh, text: str):
    for i in range(0, len(text), WRITE_SLICE):
        fh.write(text[i : i + WRITE_SLICE])


class _ClosedStdout:
    """Stdout of a process started with stdout closed, where Python leaves
    sys.stdout None and print drops its text: a write fails as on a closed
    descriptor. entry installs it; _emit writes to it for a None stdout."""

    def write(self, text: str):
        raise OSError(errno.EBADF, "stdout is closed")

    def flush(self):
        pass


def _emit(text: str, outfile: str | None = None):
    """Write text to outfile, or to stdout when it is None. Stdout is flushed
    here, so that a failed write is an OutputError and not an error at exit."""
    try:
        if outfile is None:
            out = _ClosedStdout() if sys.stdout is None else sys.stdout
            _write_slices(out, text)
            out.flush()
        else:
            with open(outfile, "w", encoding="utf-8") as fh:
                _write_slices(fh, text)
    except OSError as exc:
        where = "stdout" if outfile is None else outfile
        raise OutputError(f"cannot write {where}: {exc}") from None


def _cmd_analyze(args) -> int:
    lam = _usage(args, parse_point, args.lam)
    doc = read_document(args.infile)
    report = build_report(doc, lam)
    _emit(report.to_json(), args.outfile)
    return 0


def _cmd_spectrum(args) -> int:
    grid = _usage(args, parse_grid, args.grid)
    doc = read_document(args.infile)
    s = scan(doc.expr, grid)
    if args.fmt == "csv":
        _emit(scan_to_csv(s), args.outfile)
    else:
        _emit(scan_to_json(s, args.set_name), args.outfile)
    return 0


def _cmd_drazin(args) -> int:
    doc = read_document(args.infile)
    atoms = doc.expr.atoms
    if len(atoms) != 1 or atoms[0].kind != "matrix":
        print("error: drazin needs a document with a single matrix atom", file=sys.stderr)
        return 4
    dz = drazin_inverse(atoms[0].matrix)
    _emit("".join(" ".join(row) + "\n" for row in matrix_rows(dz)))
    return 0


def _cmd_verify(args) -> int:
    if args.cases > MAX_CASES:
        args.parser.error(f"--cases must be <= {MAX_CASES}, got {args.cases}")
    text, code = run_suites(args.suite, args.cases, args.seed)
    _emit(text)
    return code


# built once per process: parse_args keeps no state between calls, and help
# text is formatted (and COLUMNS read) when it is printed
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "drazin":
            return _cmd_drazin(args)
        return _cmd_verify(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except FredprofileError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code


def entry(run=main):
    """Exit with the code of run(), main or a demo's main. A write to stdout
    that fails, in run or in the flush after it, is one "error: cannot
    write stdout: ..." line and exit 7, unless run has failed and reported
    its own error (main reports its writes' as an OutputError). So is a
    print to a stdout closed at start. Every other failure reaches run as a
    FredprofileError, so an OSError out of run is a failed write to
    stdout."""
    closed = sys.stdout is None
    if closed:
        sys.stdout = _ClosedStdout()
    code = None
    try:
        code = run()
        sys.stdout.flush()
    except OSError as exc:
        if not code:
            err = OutputError(f"cannot write stdout: {exc}")
            print(f"{err.prefix}: {err}", file=sys.stderr)
            code = err.exit_code
        # a failed write leaves its bytes in stdout's buffer; the flush at
        # interpreter exit would fail on them again, print a second error and
        # exit 120. Stdout is pointed at devnull, so that they go nowhere.
        if not closed:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    entry()
