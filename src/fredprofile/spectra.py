"""Grid scans over rational points: classify every point of a rectangular
grid, report membership in the eight pseudo-Fredholm-type spectra, and
split the complement of a chosen spectrum into connected components of
constant index.

Adjacency for components is 4-neighbour adjacency refined by equal index:
two neighbouring grid points belong to the same component only when their
index values agree. On coarse grids the refinement is what keeps regions
whose indices differ from being glued through gaps in the spectrum.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .classify import FLAG_NAMES, ClassificationRecord, classify
from .docio import rational_str
from .model import OperatorExpr, Point

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

# scans hold every point and record in memory, so the grid size is bounded
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
    count points per axis; an axis with one step collapses to its minimum."""

    re_min: Fraction
    re_max: Fraction
    im_min: Fraction
    im_max: Fraction
    re_steps: int
    im_steps: int

    def __post_init__(self):
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
    def _axis(lo: Fraction, hi: Fraction, steps: int) -> list[Fraction]:
        if steps == 1:
            return [lo]
        h = (hi - lo) / (steps - 1)
        return [lo + i * h for i in range(steps)]

    def re_values(self) -> list[Fraction]:
        return self._axis(self.re_min, self.re_max, self.re_steps)

    def im_values(self) -> list[Fraction]:
        return self._axis(self.im_min, self.im_max, self.im_steps)

    def points(self) -> list[Point]:
        """Row-major: imaginary part ascending in the outer loop, real part
        ascending in the inner loop."""
        res = self.re_values()
        return [(re, im) for im in self.im_values() for re in res]


@dataclass(frozen=True)
class SpectrumScan:
    grid: GridSpec
    points: tuple[Point, ...]
    records: tuple[ClassificationRecord, ...]


def scan(e: OperatorExpr, grid: GridSpec) -> SpectrumScan:
    pts = grid.points()
    recs = tuple(classify(e, lam) for lam in pts)
    return SpectrumScan(grid, tuple(pts), recs)


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
    mask = [not spectrum_membership(rec, set_name) for rec in s.records]
    keys = [rec.summary.index.to_str() for rec in s.records]
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


def scan_to_csv(s: SpectrumScan) -> str:
    lines = [CSV_HEADER]
    for (re, im), rec in zip(s.points, s.records):
        cells = [rational_str(re), rational_str(im)]
        cells += ["1" if v else "0" for v in rec.flags().values()]
        cells += rec.summary.to_strs().values()
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def scan_to_json(s: SpectrumScan, set_name: str) -> str:
    report = component_index_report(s, set_name)
    points = []
    for (re, im), rec in zip(s.points, s.records):
        row: dict[str, object] = {"re": rational_str(re), "im": rational_str(im)}
        row.update(rec.flags())
        row.update(rec.summary.to_strs())
        points.append(row)
    doc = {
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
        "points": points,
    }
    return json.dumps(doc, indent=2) + "\n"
