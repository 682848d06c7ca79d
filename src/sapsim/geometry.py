"""Waveguide-array layouts for adiabatic-passage beam splitters.

Units: transverse positions, separations, widths and z are in micrometers.
All separations are center-to-center. Layouts are never modified after
construction and are safe to share between threads.

Three kinds are supported, each placed by its row of ``TOPOLOGY``:

* ``SAP3``:    two straight outer guides (1, 3) a distance ``s`` apart and an
  inclined middle guide (2) that starts near guide 3 (strong kappa_23 first,
  the counterintuitive ordering needed for 1 -> 3 transfer) and ends near
  guide 1, crossing the midpoint at z = L. Total length 2L.
* ``FSAP3``:   the same structure cut at z = f*L (fractional device): f = 1
  freezes the equal superposition at the midpoint, f != 1 models dicing
  imprecision and f = 2 is the full SAP3.
* ``FOLDED5``: two mirror-image SAP3 halves sharing the central guide 3;
  straight guides 1, 3, 5 at 0, s, 2s; inclined guides 2 and 4 start near
  the outer guides and end near the center, so the zero-eigenvalue
  supermode evolves from guide 3 into the symmetric superposition of
  guides 1 and 5. Total length 2L.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import GeometryError, Record

# Sanity bound on inclinations; adiabatic-passage angles are fractions of a degree.
MAX_SLOPE = math.tan(math.radians(5.0))


class Kind(str, Enum):
    SAP3 = "sap3"
    FSAP3 = "fsap3"
    FOLDED5 = "folded5"


class Topology(namedtuple("Topology", "input_label central_label output_labels "
                                      "offsets tilts ideal_phase_rad")):
    """A kind's guides by 1-based label: their roles and where they run.

    Guide i runs along x(z) = offsets[i] * s + tilts[i] * (L - z) * tan(alpha):
    its offset is in units of the outer separation s, its tilt in units of
    L tan(alpha) (slope -tilt * tan(alpha)), and every guide passes its
    offset at z = L. ``ideal_phase_rad`` is the output phase
    arg(a_out1 * conj(a_out2)) the device is designed for.
    """

    __slots__ = ()

    @property
    def inclined_labels(self) -> tuple:
        """The guides with a tilt, which carry the detuning (also at angle 0)."""
        return tuple(label for label, tilt in enumerate(self.tilts, 1) if tilt)


TOPOLOGY = {
    Kind.SAP3: Topology(1, 2, (1, 3), (0, .5, 1), (0, 1, 0), math.pi),
    Kind.FSAP3: Topology(1, 2, (1, 3), (0, .5, 1), (0, 1, 0), math.pi),
    Kind.FOLDED5: Topology(3, 3, (1, 5), (0, .5, 1, 1.5, 2), (0, -1, 0, 1, 0),
                           0.0),
}


class WaveguidePath(namedtuple("WaveguidePath", "x0 slope label")):
    """Straight centerline x(z) = x0 + slope * z of the guide with 1-based
    index ``label``: x0 in um at z = 0, slope dx/dz 0 for straight guides
    and +-tan(alpha) for inclined ones."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks

    def __new__(cls, x0: float, slope: float, label: int):
        if abs(slope) > MAX_SLOPE:
            raise GeometryError(
                f"waveguide {label}: |slope| {abs(slope):.3g} exceeds "
                f"tan(5 deg) = {MAX_SLOPE:.3g}"
            )
        return super().__new__(cls, x0, slope, label)

    def position(self, z: float) -> float:
        return self.x0 + self.slope * z


class GeometrySpec(namedtuple("GeometrySpec", "kind half_length_um "
                              "outer_separation_um angle_deg width_um "
                              "cut_fraction", defaults=[1.0])):
    """Build parameters of a layout, kept for rebuilds in parameter scans.
    Only fsap3 reads ``cut_fraction``."""

    __slots__ = ()

    def rescaled(self, length_factor: float) -> "GeometrySpec":
        """Stretch the device by ``length_factor`` at fixed profile shape.

        The half length is multiplied and the inclination reduced so the
        lateral travel (hence every facet separation) is unchanged; the
        coupling profile versus normalized position is identical.
        """
        if length_factor <= 0:
            raise GeometryError("length_factor must be positive")
        tan_a = math.tan(math.radians(self.angle_deg)) / length_factor
        return self._replace(
            half_length_um=self.half_length_um * length_factor,
            angle_deg=math.degrees(math.atan(tan_a)))


class ArrayLayout(Record):
    """An ordered set of straight waveguide paths over z in [0, z_end]."""

    # __dict__ holds the cached properties
    __slots__ = ("paths", "z_end_um", "width_um", "kind", "spec", "__dict__")

    def __init__(self, paths: tuple, z_end_um: float, width_um: float,
                 kind: Kind, spec: GeometrySpec = None):
        self.paths, self.z_end_um, self.width_um = paths, z_end_um, width_um
        self.kind, self.spec = kind, spec

    @property
    def n_guides(self) -> int:
        return len(self.paths)

    @property
    def input_label(self) -> int:
        """The launched guide."""
        return TOPOLOGY[self.kind].input_label

    @property
    def central_label(self) -> int:
        """The guide whose residual power defines crosstalk."""
        return TOPOLOGY[self.kind].central_label

    @property
    def output_labels(self) -> tuple:
        """The two guides carrying the intended split outputs."""
        return TOPOLOGY[self.kind].output_labels

    @cached_property
    def inclined_labels(self) -> tuple:
        """The inclined guides, which carry the detuning (also at angle 0)."""
        return TOPOLOGY[self.kind].inclined_labels

    @cached_property
    def gaps(self) -> tuple:
        """(dx0, dslope), each (n - 1,): neighbours i and i + 1 are
        dx0[i] + dslope[i] * z apart (signed, um)."""
        return (np.diff([p.x0 for p in self.paths]),
                np.diff([p.slope for p in self.paths]))

    @cached_property
    def lambda_block(self) -> tuple:
        """(dx0, dslope, scale), each (2,): the gaps of k12 and k23 and their
        factors (1, c) in the three-level block [[0, k12, 0], [k12, d, c k23],
        [0, c k23, 0]] that holds the launched guide. For 3 guides it is the
        device (c = 1); for 5, the mirror-even block on (e1 + e5) / sqrt 2,
        (e2 + e4) / sqrt 2 and e3 (c = sqrt 2), exact when the reversed gaps
        equal the gaps (to 1e-9 relative; else GeometryError)."""
        g = np.array(self.gaps)
        if self.n_guides == 3:
            return (*g, np.ones(2))
        if self.n_guides != 5 or not np.all(abs(g[:, ::-1] - g) <= 1e-9 * abs(g)):
            raise GeometryError(f"{self.n_guides}-guide layout has no three-"
                                "level block: it is not mirror symmetric")
        return (*g[:, :2], np.array([1.0, math.sqrt(2.0)]))

    def _path(self, label: int) -> WaveguidePath:
        if not 1 <= label <= self.n_guides:
            raise GeometryError(f"guide label {label} out of range 1..{self.n_guides}")
        return self.paths[label - 1]

    def position(self, label: int, z: float) -> float:
        self._check_z(z)
        return self._path(label).position(z)

    def separation(self, i: int, j: int, z: float) -> float:
        """Center-to-center distance |x_j(z) - x_i(z)|."""
        self._check_z(z)
        return abs(self._path(j).position(z) - self._path(i).position(z))

    def _check_z(self, z: float):
        if not 0.0 <= z <= self.z_end_um:
            raise GeometryError(f"z = {z} outside [0, {self.z_end_um}]")


def _validate(layout: ArrayLayout) -> ArrayLayout:
    # Paths are straight, so checking finite positions, transverse order and
    # minimum separation at both ends of the device covers every interior z.
    for z in (0.0, layout.z_end_um):
        xs = [p.position(z) for p in layout.paths]
        for p, x in zip(layout.paths, xs):
            if not math.isfinite(x):
                raise GeometryError(
                    f"guide {p.label} position at z = {z:g} um is not finite")
        for a, b, pa, pb in zip(xs, xs[1:], layout.paths, layout.paths[1:]):
            if b <= a:
                raise GeometryError(
                    f"guides {pa.label} and {pb.label} cross or touch at z = {z:g} um"
                )
            if b - a < layout.width_um:
                raise GeometryError(
                    f"guides {pa.label} and {pb.label} overlap at z = {z:g} um: "
                    f"separation {b - a:.3f} um < width {layout.width_um:g} um"
                )
    return layout


def build_layout(spec: GeometrySpec) -> ArrayLayout:
    """The layout a GeometrySpec describes, placed by its kind's TOPOLOGY row."""
    try:
        kind = Kind(spec.kind)
    except ValueError:
        raise GeometryError(f"unknown layout kind {spec.kind!r}") from None
    cut = spec.cut_fraction if kind is Kind.FSAP3 else 1.0
    if not 0 < cut <= 2:
        raise GeometryError("cut_fraction must lie in (0, 2]")
    L, s, angle, width = (spec.half_length_um, spec.outer_separation_um,
                          spec.angle_deg, spec.width_um)
    if L <= 0:
        raise GeometryError("half_length must be positive")
    if s <= 0:
        raise GeometryError("outer_separation must be positive")
    if angle < 0:
        raise GeometryError("angle must be non-negative")
    if width <= 0:
        raise GeometryError("width must be positive")
    tan_a = math.tan(math.radians(angle))
    row = TOPOLOGY[kind]
    paths = tuple(
        WaveguidePath(offset * s + tilt * L * tan_a, -tilt * tan_a, label)
        if tilt else WaveguidePath(offset * s, 0.0, label)
        for label, (offset, tilt) in enumerate(zip(row.offsets, row.tilts), 1))
    z_end = cut * L if kind is Kind.FSAP3 else 2 * L
    return _validate(ArrayLayout(paths, z_end, width, kind,
                                 GeometrySpec(kind, L, s, angle, width, cut)))


# Shorthands for build_layout of one kind.
def build_sap3(half_length: float, outer_separation: float, angle_deg: float,
               width: float) -> ArrayLayout:
    return build_layout(GeometrySpec(Kind.SAP3, half_length, outer_separation,
                                     angle_deg, width))


def build_fsap3(half_length: float, outer_separation: float, angle_deg: float,
                width: float, cut_fraction: float) -> ArrayLayout:
    return build_layout(GeometrySpec(Kind.FSAP3, half_length, outer_separation,
                                     angle_deg, width, cut_fraction))


def build_folded5(half_length: float, outer_separation: float, angle_deg: float,
                  width: float) -> ArrayLayout:
    return build_layout(GeometrySpec(Kind.FOLDED5, half_length,
                                     outer_separation, angle_deg, width))
