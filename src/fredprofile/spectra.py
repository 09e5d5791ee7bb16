"""Grid scans over rational points: classify every point of a rectangular
grid, report membership in the eight pseudo-Fredholm-type spectra, and
split the complement of a chosen spectrum into connected components of
constant index.

Scans are region-keyed: a point's record depends only on the tuple of its
atoms' exact regions (a shift's model.shift_region; a matrix atom's, the
point itself at an eigenvalue and one region off them), so a scan walks
each row as runs of points with one tuple, builds a run's tuple once and
classifies once per distinct tuple. It keeps the distinct records in
first-seen order and one integer id per point, the position of its
record among them. The renderers build each column's, row's and distinct
record's text once and join references to them, no text per point.
Every region comes from integer keys: each axis is integers over one
common denominator, a column's code (the circle side, or lam = 0) is two
integer comparisons, and a matrix atom's region is decided by
linalg.root_multiplicity, which also gives an eigenvalue's algebraic
multiplicity. A new key's analysis takes a shift's profile from its
region and a matrix atom's ranks from the chain bounded by that
multiplicity, so an eigenvalue of multiplicity m costs only the ranks m
leaves open (none when m = 1) and a point off the spectrum none.

Adjacency for components is 4-neighbour adjacency refined by equal index:
two neighbouring grid points belong to the same component only when their
index values agree. On coarse grids the refinement is what keeps regions
whose indices differ from being glued through gaps in the spectrum.
Components are labelled on runs (Hoshen and Kopelman, Phys. Rev. B 14,
3438, 1976): a run is a maximal stretch of a row outside the set with one
index; union-find joins it to the equal-index runs it touches in the row
before, and a component is numbered by its first run in row-major order,
which holds its smallest cell.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, cycle, groupby, repeat
from typing import Iterator

from .classify import FLAG_NAMES, ClassificationRecord, classify, classify_analysis
from .docio import json_text, quote, rational_str
from .linalg import exact_rational, root_multiplicity
from .model import SHIFT_PROFILES, OperatorExpr, Point, matrix_chain_data, shift_region
from .structure import assemble_analysis, matrix_analysis, shift_analysis

_SET_FLAGS: dict[str, tuple[str, ...]] = {
    "upbf": ("upper_pseudo_semi_b_fredholm",),
    "lpbf": ("lower_pseudo_semi_b_fredholm",),
    "spbf": ("upper_pseudo_semi_b_fredholm", "lower_pseudo_semi_b_fredholm"),
    "pbf": ("pseudo_b_fredholm",),
    "upbw": ("upper_pseudo_semi_b_weyl",),
    "lpbw": ("lower_pseudo_semi_b_weyl",),
    "spbw": ("upper_pseudo_semi_b_weyl", "lower_pseudo_semi_b_weyl"),
    "pbw": ("pseudo_b_weyl",),
}
SPECTRUM_NAMES: tuple[str, ...] = tuple(_SET_FLAGS)

# scans hold an id per point and render every point, so the grid is bounded
MAX_GRID_POINTS = 10**6


def spectrum_membership(rec: ClassificationRecord, name: str) -> bool:
    """True when the point belongs to the named spectrum, i.e. the
    corresponding regularity fails (for the semi variants: both one-sided
    regularities fail)."""
    try:
        flags = _SET_FLAGS[name]
    except KeyError:
        raise ValueError(f"unknown spectrum name {name!r}") from None
    return not any(rec.flag(fl) for fl in flags)


def spectrum_membership_at(e: OperatorExpr, lam: Point, name: str) -> bool:
    return spectrum_membership(classify(e, lam), name)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular rational grid of at most MAX_GRID_POINTS points. Steps
    count points per axis; an axis with one step collapses to its minimum.
    The bounds are made Fractions by linalg.exact_rational."""

    re_min: Fraction
    re_max: Fraction
    im_min: Fraction
    im_max: Fraction
    re_steps: int
    im_steps: int

    def __post_init__(self):
        for name in ("re_min", "re_max", "im_min", "im_max"):
            object.__setattr__(self, name, exact_rational(getattr(self, name)))
        if type(self.re_steps) is not int or type(self.im_steps) is not int:
            raise TypeError("grid step counts must be ints")
        if self.re_steps < 1 or self.im_steps < 1:
            raise ValueError("grid needs at least one step per axis")
        if self.re_steps * self.im_steps > MAX_GRID_POINTS:
            raise ValueError(
                f"grid has {self.re_steps * self.im_steps} points, "
                f"more than the limit of {MAX_GRID_POINTS}"
            )
        if self.re_max < self.re_min or self.im_max < self.im_min:
            raise ValueError("grid bounds out of order")

    @staticmethod
    def _axis(lo: Fraction, hi: Fraction, steps: int) -> tuple[tuple[int, ...], int, tuple]:
        """The axis values as integer numerators over one common
        denominator, that denominator, and the values themselves."""
        h = (hi - lo) / max(steps - 1, 1)
        den = math.lcm(lo.denominator, h.denominator)
        start, step = lo.numerator * den // lo.denominator, h.numerator * den // h.denominator
        nums = tuple([start + i * step for i in range(steps)])
        return nums, den, tuple([Fraction(n, den) for n in nums])

    @functools.cached_property
    def _axes(self) -> tuple[tuple, tuple]:
        """Both axes, each computed once per grid."""
        return (
            self._axis(self.re_min, self.re_max, self.re_steps),
            self._axis(self.im_min, self.im_max, self.im_steps),
        )

    def re_axis(self) -> tuple[tuple[int, ...], int]:
        return self._axes[0][:2]

    def im_axis(self) -> tuple[tuple[int, ...], int]:
        return self._axes[1][:2]

    def re_values(self) -> list[Fraction]:
        return list(self._axes[0][2])

    def im_values(self) -> list[Fraction]:
        return list(self._axes[1][2])

    def points(self) -> list[Point]:
        """Row-major: imaginary part ascending in the outer loop, real part
        ascending in the inner loop."""
        res = self.re_values()
        return [(re, im) for im in self.im_values() for re in res]


@dataclass(frozen=True)
class SpectrumScan:
    """A scan's distinct records in first-seen order, and for each point of
    grid.points() the id of its record: its position in distinct."""

    grid: GridSpec
    distinct: tuple[ClassificationRecord, ...]
    ids: tuple[int, ...]

    @property
    def records(self) -> tuple[ClassificationRecord, ...]:
        return tuple(map(self.distinct.__getitem__, self.ids))

    @property
    def points(self) -> tuple[Point, ...]:
        return tuple(self.grid.points())


def scan(e: OperatorExpr, grid: GridSpec) -> SpectrumScan:
    """Classify every grid point, once per distinct tuple of atom regions,
    walking each row as runs of points with one tuple: a run builds its key
    once, and the record made at the first point of a key serves every
    later point with that key. With re = R_k / D_r and im = I_j / D_i on
    the integer axes, |lam|^2 - 1 has the sign of a_k - t_j,
    a_k = R_k^2 D_i^2 and t_j = D_r^2 D_i^2 - I_j^2 D_r^2, and lam = 0 is
    R_k = I_j = 0: one comprehension per row gives each column a code, the
    sign or 2 at lam = 0, and the shifts' regions follow from the code. A
    matrix atom's region is lam at an eigenvalue and None off them, decided
    over the one denominator q = lcm(D_r, D_i): its weighted_char_poly(q)
    once per scan, z's real part once per column and its imaginary part
    once per row, then root_multiplicity per point; each eigenvalue column
    is a run of its own and keeps its multiplicity. A new key analyses a
    shift atom from the profile of its region and a matrix atom from the
    chain that the multiplicity bounds (model.matrix_chain_data): 0 off the
    spectrum, where the ranks are (d, d) and none is computed."""
    (re_nums, re_den), (im_nums, im_den) = grid.re_axis(), grid.im_axis()
    res, ims = grid.re_values(), grid.im_values()
    a = [r * r * im_den * im_den for r in re_nums]
    c = re_den * re_den * im_den * im_den
    q = math.lcm(re_den, im_den)
    kinds = [at.kind for at in e.atoms if at.kind != "matrix"]
    mats = [at for at in e.atoms if at.kind == "matrix"]
    # per matrix atom: its polynomial, z = den*q*lam's real part per column,
    # and the factor that turns I_j into its imaginary part
    polys = [
        (
            m.matrix.weighted_char_poly(q),
            [m.matrix.den * (q // re_den) * r for r in re_nums],
            m.matrix.den * (q // im_den),
        )
        for m in mats
    ]

    def eigenvalue_columns(ws, zrs, zi):
        """Each eigenvalue column of the row, with its multiplicity."""
        return {k: mult for k, zr in enumerate(zrs) if (mult := root_multiplicity(ws, zr, zi))}

    # the shifts' regions by column code: the circle sign, and 2 at lam = 0
    keys = {sign: tuple(shift_region(k, sign, False) for k in kinds) for sign in (0, 1, -1)}
    keys[2] = tuple(shift_region(k, -1, True) for k in kinds)
    no_eigenvalue, no_mults = (None,) * len(mats), (0,) * len(mats)
    distinct: list[ClassificationRecord] = []
    ids: list[int] = []
    by_key: dict[tuple, int] = {}
    for im, i_num in zip(ims, im_nums):
        t = c - i_num * i_num * re_den * re_den
        codes = [(x > t) - (x < t) if i_num or x else 2 for x in a]
        eigs = [eigenvalue_columns(ws, zrs, f * i_num) for ws, zrs, f in polys]
        # an eigenvalue column's code is made unique, so that it is a run of its own
        for k in set().union(*eigs):
            codes[k] = (codes[k], k)
        first = 0
        for code, run in groupby(codes):
            n = len(list(run))
            if type(code) is tuple:
                code, k = code
                mults = [cols.get(k, 0) for cols in eigs]
                key = keys[code] + tuple((res[k], im) if mult else None for mult in mults)
            else:
                mults, key = no_mults, keys[code] + no_eigenvalue
            rid = by_key.get(key)
            if rid is None:
                rid = by_key[key] = len(distinct)
                lam = (res[first], im)
                # the shifts' regions lead the key, in the order of their atoms
                regions, mults = iter(key), iter(mults)
                parts = tuple(
                    matrix_analysis(at, lam, matrix_chain_data(at.matrix, lam, next(mults)))
                    if at.kind == "matrix"
                    else shift_analysis(at, lam, SHIFT_PROFILES[at.kind, next(regions)])
                    for at in e.atoms
                )
                distinct.append(classify_analysis(assemble_analysis(e, lam, parts)))
            ids += [rid] * n
            first += n
    return SpectrumScan(grid, tuple(distinct), tuple(ids))


def _point_texts(
    s: SpectrumScan, heads: list[str], im_format: str, tails: list[str]
) -> Iterator[str]:
    """Each point's column head, row text and record tail in row-major
    order, as references to strings built once per column, row and record."""
    w = len(heads)
    rows = (repeat(im_format.format(rational_str(im)), w) for im in s.grid.im_values())
    return chain.from_iterable(
        zip(cycle(heads), chain.from_iterable(rows), map(tails.__getitem__, s.ids))
    )


@dataclass(frozen=True)
class Component:
    """A maximal equal-index 4-connected patch of the scanned region that
    lies outside the chosen spectrum. Ids follow row-major discovery
    order. Its index is constant by construction, since runs and unions
    join only points of equal index; the JSON report records that as
    "index_constant": true."""

    id: int
    index: str
    point_count: int
    first_point: tuple[str, str]


@dataclass(frozen=True)
class ComponentReport:
    set_name: str
    components: tuple[Component, ...]


def component_runs(s: SpectrumScan, set_name: str) -> list[tuple[int, int, int, str]]:
    """The runs of points outside the named spectrum in row-major order, as
    (first cell, length, component id, index), cells numbered as in
    grid.points(). A run is a maximal stretch of a row whose points share
    their index; ids number the components by their first run."""
    # a point's class: None in the set, else its index
    cls = [
        None if spectrum_membership(rec, set_name) else rec.summary.index.to_str()
        for rec in s.distinct
    ]
    w = s.grid.re_steps
    runs: list[tuple[int, int, str]] = []  # (first cell, length, index)
    parent: list[int] = []

    def find(r: int) -> int:
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    above: list[tuple[int, int, str, int]] = []  # (lo, hi, index, run) of the row before
    for start in range(0, len(s.ids), w):
        row, lo, k = [], 0, 0
        for c, same in groupby(map(cls.__getitem__, s.ids[start : start + w])):
            hi = lo + len(list(same))
            if c is not None:
                r = len(runs)
                runs.append((start + lo, hi - lo, c))
                parent.append(r)
                row.append((lo, hi, c, r))
                # the runs above that overlap [lo, hi) start at above[k]
                while k < len(above) and above[k][1] <= lo:
                    k += 1
                i = k
                while i < len(above) and above[i][0] < hi:
                    if above[i][2] == c:
                        parent[find(r)] = find(above[i][3])
                    i += 1
            lo = hi
        above = row
    comp: dict[int, int] = {}  # root run -> component id, numbered at its first run
    return [
        (first, n, comp.setdefault(find(r), len(comp)), c) for r, (first, n, c) in enumerate(runs)
    ]


def component_index_report(s: SpectrumScan, set_name: str) -> ComponentReport:
    comps: list[list] = []  # [first cell, point count, index] by component id
    for first, n, cid, index in component_runs(s, set_name):
        if cid == len(comps):
            comps.append([first, 0, index])
        comps[cid][1] += n
    res, ims = s.grid.re_values(), s.grid.im_values()
    out = []
    for cid, (first, n, index) in enumerate(comps):
        j, k = divmod(first, s.grid.re_steps)
        at = rational_str(res[k]), rational_str(ims[j])
        out.append(Component(cid, index, n, at))
    return ComponentReport(set_name, tuple(out))


CSV_HEADER = "re,im," + ",".join(FLAG_NAMES) + ",alpha,beta,p,q,index"


def _csv_tail(rec: ClassificationRecord) -> str:
    cells = ["1" if v else "0" for v in rec.flags().values()]
    return ",".join(cells + list(rec.summary.to_strs().values()))


def scan_to_csv(s: SpectrumScan) -> str:
    heads = [rational_str(re) + "," for re in s.grid.re_values()]
    tails = [_csv_tail(rec) + "\n" for rec in s.distinct]
    return "".join(chain((CSV_HEADER, "\n"), _point_texts(s, heads, "{},", tails)))


# the flag items' keys as the row lays them out, each followed by true or false
_FLAG_HEADS = tuple(f",\n      {quote(name)}: " for name in FLAG_NAMES)


def _json_row_tail(rec: ClassificationRecord) -> str:
    """The items of a points row after "re" and "im", laid out as
    docio.json_text lays them out."""
    flags = rec.flags().values()
    out = [h + ("true" if v else "false") for h, v in zip(_FLAG_HEADS, flags)]
    out += [f",\n      {quote(k)}: {quote(v)}" for k, v in rec.summary.to_strs().items()]
    return "".join(out)


def scan_to_json(s: SpectrumScan, set_name: str) -> str:
    """The scan as docio.json_text(doc) + "\n" writes it, joined from texts
    built once per column, row and distinct record."""
    report = component_index_report(s, set_name)
    head = {
        "grid": {
            "re_min": rational_str(s.grid.re_min),
            "re_max": rational_str(s.grid.re_max),
            "im_min": rational_str(s.grid.im_min),
            "im_max": rational_str(s.grid.im_max),
            "re_steps": s.grid.re_steps,
            "im_steps": s.grid.im_steps,
        },
        "set": set_name,
        "component_report": [
            {
                "id": c.id,
                "index": c.index,
                "point_count": c.point_count,
                "first_point": {"re": c.first_point[0], "im": c.first_point[1]},
                "index_constant": True,
            }
            for c in report.components
        ],
    }
    # the points list is the last member, so it goes where head's "\n}" was;
    # a point's column head opens with the separator from the point before,
    # and a rational's text needs no JSON escaping
    sep = "\n    },\n    {"
    heads = [f'{sep}\n      "re": "{rational_str(x)}",\n      "im": "' for x in s.grid.re_values()]
    points = _point_texts(s, heads, '{}"', [_json_row_tail(rec) for rec in s.distinct])
    next(points)  # the first point's head, which has no point before it
    opening = (json_text(head)[:-2], ',\n  "points": [\n    {', heads[0][len(sep) :])
    return "".join(chain(opening, points, ("\n    }\n  ]\n}\n",)))
