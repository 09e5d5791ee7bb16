"""Grid scans over rational points: classify every point of a rectangular
grid, report membership in the eight pseudo-Fredholm-type spectra, and
split the complement of a chosen spectrum into connected components of
constant index.

Scans are region-keyed: a point's record depends only on the tuple of its
atoms' exact regions (model.atom_region), so a scan computes that tuple at
every point, classifies once per distinct tuple, shares the record among
its points and renders each distinct record's cells once. The shifts'
regions come from integer keys: each axis is integers over one common
denominator, and no Fraction is built per point.

Adjacency for components is 4-neighbour adjacency refined by equal index:
two neighbouring grid points belong to the same component only when their
index values agree. On coarse grids the refinement is what keeps regions
whose indices differ from being glued through gaps in the spectrum.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, TypeVar

from .classify import FLAG_NAMES, ClassificationRecord, classify
from .docio import rational_str
from .linalg import exact_rational
from .model import OperatorExpr, Point, atom_region, shift_region

T = TypeVar("T")

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

# scans hold every point and a reference to its record, so the grid is bounded
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
    def _axis(lo: Fraction, hi: Fraction, steps: int) -> tuple[list[int], int]:
        """The axis values as integer numerators over one common denominator."""
        h = (hi - lo) / max(steps - 1, 1)
        den = math.lcm(lo.denominator, h.denominator)
        start, step = lo.numerator * den // lo.denominator, h.numerator * den // h.denominator
        return [start + i * step for i in range(steps)], den

    def re_axis(self) -> tuple[list[int], int]:
        return self._axis(self.re_min, self.re_max, self.re_steps)

    def im_axis(self) -> tuple[list[int], int]:
        return self._axis(self.im_min, self.im_max, self.im_steps)

    def re_values(self) -> list[Fraction]:
        nums, den = self.re_axis()
        return [Fraction(n, den) for n in nums]

    def im_values(self) -> list[Fraction]:
        nums, den = self.im_axis()
        return [Fraction(n, den) for n in nums]

    def points(self) -> list[Point]:
        """Row-major: imaginary part ascending in the outer loop, real part
        ascending in the inner loop."""
        res = self.re_values()
        return [(re, im) for im in self.im_values() for re in res]


@dataclass(frozen=True)
class SpectrumScan:
    """A scan's records, one per point; points are grid.points()."""

    grid: GridSpec
    points: tuple[Point, ...]
    records: tuple[ClassificationRecord, ...]


def scan(e: OperatorExpr, grid: GridSpec) -> SpectrumScan:
    """Classify every grid point, once per distinct tuple of atom regions:
    the record made at the first point of a key serves every later point
    with that key. With re = R_k / D_r and im = I_j / D_i on the integer
    axes, |lam|^2 - 1 has the sign of a_k - t_j, a_k = R_k^2 D_i^2 and t_j =
    D_r^2 D_i^2 - I_j^2 D_r^2, and lam = 0 is R_k = I_j = 0: the shifts'
    regions take integer comparisons, a matrix atom's its exact
    is_eigenvalue test."""
    (re_nums, re_den), (im_nums, im_den) = grid.re_axis(), grid.im_axis()
    res, ims = grid.re_values(), grid.im_values()
    a = [r * r * im_den * im_den for r in re_nums]
    c = re_den * re_den * im_den * im_den
    kinds = [at.kind for at in e.atoms if at.kind != "matrix"]
    mats = [at for at in e.atoms if at.kind == "matrix"]
    # the shifts' regions, indexed by the circle sign (0, 1, -1), and at lam = 0
    keys = [tuple(shift_region(k, sign, False) for k in kinds) for sign in (0, 1, -1)]
    zero_key = tuple(shift_region(k, -1, True) for k in kinds)
    recs: list[ClassificationRecord] = []
    by_key: dict[tuple, ClassificationRecord] = {}
    for im, i_num in zip(ims, im_nums):
        t = c - i_num * i_num * re_den * re_den
        for re, x in zip(res, a):
            key = zero_key if not (i_num or x) else keys[(x > t) - (x < t)]
            if mats:
                key += tuple(atom_region(m, (re, im)) for m in mats)
            rec = by_key.get(key)
            if rec is None:
                rec = by_key[key] = classify(e, (re, im))
            recs.append(rec)
    pts = tuple((re, im) for im in ims for re in res)
    return SpectrumScan(grid, pts, tuple(recs))


def _coord_strs(grid: GridSpec) -> list[tuple[str, str]]:
    """The (re, im) text of grid.points(), one rational_str per axis value."""
    res = [rational_str(re) for re in grid.re_values()]
    return [(re, im) for im in map(rational_str, grid.im_values()) for re in res]


def _per_record(
    records: Sequence[ClassificationRecord], render: Callable[[ClassificationRecord], T]
) -> list[T]:
    """render(rec) for every record, called once per distinct record object:
    a scan shares one record among the points of a region."""
    done: dict[int, T] = {}
    for rec in records:
        if id(rec) not in done:
            done[id(rec)] = render(rec)
    return [done[id(rec)] for rec in records]


@dataclass(frozen=True)
class Component:
    """A maximal equal-index 4-connected patch of the scanned region that
    lies outside the chosen spectrum. Ids follow row-major discovery
    order. index_constant is rechecked after the fact and recorded."""

    id: int
    index: str
    point_count: int
    first_point: tuple[str, str]
    index_constant: bool


@dataclass(frozen=True)
class ComponentReport:
    set_name: str
    components: tuple[Component, ...]


def grouped_cells(
    mask: list[bool], keys: list[str], re_steps: int, im_steps: int
) -> list[list[int]]:
    """Connected components of the masked cells of an im_steps x re_steps
    row-major grid under 4-adjacency refined by equal keys. Returned in
    row-major discovery order; each component lists cell indices sorted."""
    n = re_steps * im_steps
    if len(mask) != n or len(keys) != n:
        raise ValueError("mask/keys length must match the grid")
    seen = [False] * n
    comps: list[list[int]] = []
    for start in range(n):
        if seen[start] or not mask[start]:
            continue
        todo = [start]
        seen[start] = True
        cells = []
        while todo:
            cur = todo.pop()
            cells.append(cur)
            i, j = divmod(cur, re_steps)
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ni, nj = i + di, j + dj
                if not (0 <= ni < im_steps and 0 <= nj < re_steps):
                    continue
                nb = ni * re_steps + nj
                if seen[nb] or not mask[nb] or keys[nb] != keys[cur]:
                    continue
                seen[nb] = True
                todo.append(nb)
        comps.append(sorted(cells))
    return comps


def component_index_report(s: SpectrumScan, set_name: str) -> ComponentReport:
    mask = _per_record(s.records, lambda rec: not spectrum_membership(rec, set_name))
    keys = _per_record(s.records, lambda rec: rec.summary.index.to_str())
    comps = grouped_cells(mask, keys, s.grid.re_steps, s.grid.im_steps)
    out = []
    for cid, cells in enumerate(comps):
        vals = {keys[c] for c in cells}
        first = s.points[cells[0]]
        out.append(
            Component(
                id=cid,
                index=keys[cells[0]] if len(vals) == 1 else "nonconstant",
                point_count=len(cells),
                first_point=(rational_str(first[0]), rational_str(first[1])),
                index_constant=len(vals) == 1,
            )
        )
    return ComponentReport(set_name, tuple(out))


CSV_HEADER = "re,im," + ",".join(FLAG_NAMES) + ",alpha,beta,p,q,index"


def _csv_tail(rec: ClassificationRecord) -> str:
    cells = ["1" if v else "0" for v in rec.flags().values()]
    return ",".join(cells + list(rec.summary.to_strs().values()))


def scan_to_csv(s: SpectrumScan) -> str:
    tails = _per_record(s.records, _csv_tail)
    lines = [CSV_HEADER]
    for (re, im), tail in zip(_coord_strs(s.grid), tails):
        lines.append(f"{re},{im},{tail}")
    return "\n".join(lines) + "\n"


# the start of a points row as json.dumps(..., indent=2) lays it out; the
# text of a rational needs no JSON escaping
_ROW_HEAD = '\n      "re": "{}",\n      "im": "{}"'


def _json_row_tail(rec: ClassificationRecord) -> str:
    """The items of a points row after "re" and "im", laid out as _ROW_HEAD."""
    vals: dict[str, object] = {**rec.flags(), **rec.summary.to_strs()}
    return "".join(f",\n      {json.dumps(k)}: {json.dumps(v)}" for k, v in vals.items())


def scan_to_json(s: SpectrumScan, set_name: str) -> str:
    """The scan as json.dumps(doc, indent=2) + "\n" writes it, with each
    distinct record's row items rendered once and shared by its points."""
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
                "index_constant": c.index_constant,
            }
            for c in report.components
        ],
    }
    # the points list is the last member, so it goes where head's "\n}" was
    parts = [json.dumps(head, indent=2)[:-2], ',\n  "points": [\n    {']
    sep = ""
    tails = _per_record(s.records, _json_row_tail)
    for (re, im), tail in zip(_coord_strs(s.grid), tails):
        parts += (sep, _ROW_HEAD.format(re, im), tail)
        sep = "\n    },\n    {"
    parts.append("\n    }\n  ]\n}\n")
    return "".join(parts)
