"""Grid scans over rational points: classify every point of a rectangular
grid, report membership in the eight pseudo-Fredholm-type spectra, and
split the complement of a chosen spectrum into connected components of
constant index.

Scans are region-keyed: a point's record depends only on the tuple of its
atoms' exact regions (a shift's model.shift_region; a matrix atom's, the
point itself at an eigenvalue and one region off them), so a scan
computes that tuple at every point and classifies once per distinct
tuple. It keeps the distinct records in first-seen order and one integer
id per point, the position of its record among them; the renderers
render each distinct record once and index that list by id. Every
region comes from integer keys: each axis is integers over one common
denominator, the shifts' regions are integer comparisons, a matrix
atom's is linalg.gaussian_root on those integers, and no Fraction is
built per point.

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
from itertools import groupby, repeat
from typing import Iterator

from .classify import FLAG_NAMES, ClassificationRecord, classify, classify_analysis
from .docio import json_text, quote, rational_str
from .linalg import exact_rational, gaussian_root
from .model import OperatorExpr, Point, shift_region
from .structure import analyze_atom, assemble_analysis, invertible_analysis

SPECTRUM_NAMES: tuple[str, ...] = (
    "upbf",
    "lpbf",
    "spbf",
    "pbf",
    "upbw",
    "lpbw",
    "spbw",
    "pbw",
)

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
    """Classify every grid point, once per distinct tuple of atom regions:
    the record made at the first point of a key serves every later point
    with that key. With re = R_k / D_r and im = I_j / D_i on the integer
    axes, |lam|^2 - 1 has the sign of a_k - t_j, a_k = R_k^2 D_i^2 and
    t_j = D_r^2 D_i^2 - I_j^2 D_r^2, and lam = 0 is R_k = I_j = 0: the
    shifts' regions take integer comparisons. A matrix atom's region is
    lam at an eigenvalue and None off them, decided over the one
    denominator q = lcm(D_r, D_i): its weighted_char_poly(q) once per scan,
    z's real part once per column and its imaginary part once per row,
    then gaussian_root per point. A key that puts a matrix atom off its
    spectrum gives that atom invertible_analysis, so only eigenvalues take
    ranks."""
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

    def row_regions(ws, zrs, zi, im):
        """A matrix atom's regions along the row im, with zi its z's imaginary part."""
        return [(re, im) if gaussian_root(ws, zr, zi) else None for re, zr in zip(res, zrs)]

    # the shifts' regions, indexed by the circle sign (0, 1, -1), and at lam = 0
    keys = [tuple(shift_region(k, sign, False) for k in kinds) for sign in (0, 1, -1)]
    zero_key = tuple(shift_region(k, -1, True) for k in kinds)
    distinct: list[ClassificationRecord] = []
    ids: list[int] = []
    by_key: dict[tuple, int] = {}
    for im, i_num in zip(ims, im_nums):
        t = c - i_num * i_num * re_den * re_den
        # the matrix atoms' regions along the row, transposed into one tuple per point
        regions = [row_regions(ws, zrs, f * i_num, im) for ws, zrs, f in polys]
        for re, x, mat_key in zip(res, a, zip(*regions) if polys else repeat(())):
            key = (zero_key if not (i_num or x) else keys[(x > t) - (x < t)]) + mat_key
            rid = by_key.get(key)
            if rid is None:
                rid = by_key[key] = len(distinct)
                lam = (re, im)
                off = {id(m) for m, r in zip(mats, key[len(kinds) :]) if r is None}
                parts = tuple(
                    invertible_analysis(at, lam) if id(at) in off else analyze_atom(at, lam)
                    for at in e.atoms
                )
                distinct.append(classify_analysis(assemble_analysis(e, lam, parts)))
            ids.append(rid)
    return SpectrumScan(grid, tuple(distinct), tuple(ids))


def _coord_rows(s: SpectrumScan) -> Iterator[tuple[str, list[str], tuple[int, ...]]]:
    """(im text, re texts, ids) of each grid row, one rational_str per axis value."""
    res = [rational_str(re) for re in s.grid.re_values()]
    w = len(res)
    for j, im in enumerate(map(rational_str, s.grid.im_values())):
        yield im, res, s.ids[j * w : (j + 1) * w]


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
    tails = [_csv_tail(rec) for rec in s.distinct]
    lines = [CSV_HEADER]
    for im, res, ids in _coord_rows(s):
        lines += [f"{re},{im},{tails[i]}" for re, i in zip(res, ids)]
    return "\n".join(lines) + "\n"


# the start of a points row as docio.json_text lays it out; the text of a
# rational needs no JSON escaping
_ROW_HEAD = '\n      "re": "{}",\n      "im": "{}"'
# the flag items' keys as the row lays them out, each followed by true or false
_FLAG_HEADS = tuple(f",\n      {quote(name)}: " for name in FLAG_NAMES)


def _json_row_tail(rec: ClassificationRecord) -> str:
    """The items of a points row after "re" and "im", laid out as _ROW_HEAD."""
    flags = rec.flags().values()
    out = [h + ("true" if v else "false") for h, v in zip(_FLAG_HEADS, flags)]
    out += [f",\n      {quote(k)}: {quote(v)}" for k, v in rec.summary.to_strs().items()]
    return "".join(out)


def scan_to_json(s: SpectrumScan, set_name: str) -> str:
    """The scan as docio.json_text(doc) + "\n" writes it, with each distinct
    record's row items rendered once and shared by its points."""
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
    # the points list is the last member, so it goes where head's "\n}" was
    parts = [json_text(head)[:-2], ',\n  "points": [\n    {']
    sep = ""
    tails = [_json_row_tail(rec) for rec in s.distinct]
    for im, res, ids in _coord_rows(s):
        for re, i in zip(res, ids):
            parts += (sep, _ROW_HEAD.format(re, im), tails[i])
            sep = "\n    },\n    {"
    parts.append("\n    }\n  ]\n}\n")
    return "".join(parts)
