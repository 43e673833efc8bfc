"""Problem data model: instance container, validation, file I/O, and generators.

Locations are integer ids: 0 is the depot, customers are 1..n.  Driving times
are stored as an (n+1) x (n+1) matrix over depot+customers; walking times are
defined between customers only and stored zero-padded to the same shape so
that ``walk[i, k]`` works with the same ids.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import InfeasibleInstanceError, InstanceFormatError, UnsupportedError

TOL = 1e-6


def _float_array(name: str, value) -> np.ndarray:
    """``value`` as a finite float array; numpy would quietly parse numeric
    strings and booleans, so anything but integer or float entries is refused."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise InstanceFormatError(f"{name} is not a rectangular array: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise InstanceFormatError(f"{name} must hold numbers only, got {arr.dtype} entries")
    if not np.isfinite(arr).all():
        raise InstanceFormatError(f"non-finite value in {name}")
    return np.asarray(arr, dtype=float)


def _number(name: str, value, integral: bool = False) -> float | int:
    """``value`` as a finite float, or as an int when ``integral``; a fraction
    is refused there rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InstanceFormatError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise InstanceFormatError(f"non-finite {name}: {value}")
    if integral and value != int(value):
        raise InstanceFormatError(f"{name} must be an integer, got {value!r}")
    return int(value) if integral else float(value)


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable problem instance; safe to share across parallel workers.

    The constructor normalizes shapes: ``walk`` may be given as n x n (customers
    only) and ``park_time``/``weights``/``volumes`` as length-n vectors; all are
    padded so index 0 (the depot) exists but is unused.  Both diagonals are
    stored as exact zeros, in copies of the given arrays.
    """

    drive: np.ndarray
    walk: np.ndarray
    park_time: np.ndarray
    load_per_package: float = 0.0
    capacity_count: int | None = None
    capacity_weight: float | None = None
    weights: np.ndarray | None = None
    capacity_volume: float | None = None
    volumes: np.ndarray | None = None
    parking_locations: tuple[int, ...] = ()
    coords: np.ndarray | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        drive = _float_array("drive", self.drive)
        if drive.ndim != 2 or drive.shape[0] != drive.shape[1]:
            raise InstanceFormatError(f"drive matrix must be square, got shape {drive.shape}")
        n = drive.shape[0] - 1
        if n < 1:
            raise InstanceFormatError("instance needs at least one customer")
        walk = _float_array("walk", self.walk)
        if walk.shape == (n, n):
            padded = np.zeros((n + 1, n + 1))
            padded[1:, 1:] = walk
            walk = padded
        if walk.shape != (n + 1, n + 1):
            raise InstanceFormatError(
                f"walk matrix must be {n}x{n} or {n + 1}x{n + 1}, got {walk.shape}"
            )
        park = self._pad_vector(self.park_time, n, "park_time")
        if park is None:
            raise InstanceFormatError("park_time is required")
        for name in ("load_per_package", "capacity_count", "capacity_weight", "capacity_volume"):
            value = getattr(self, name)
            if value is not None or name == "load_per_package":  # the one number that is never optional
                object.__setattr__(self, name, _number(name, value, integral=name == "capacity_count"))
        if self.load_per_package < 0:
            raise InstanceFormatError(f"negative load_per_package: {self.load_per_package}")
        for name, mat in (("drive", drive), ("walk", walk)):
            if np.any(mat < 0):
                raise InstanceFormatError(f"negative time in {name} matrix")
            if np.any(np.abs(np.diag(mat)) > 1e-9):
                raise InstanceFormatError(f"{name} matrix diagonal must be zero")
        # exact zeros, so a customer walked from its own spot costs 0 in every pricer
        drive, walk = drive.copy(), walk.copy()
        np.fill_diagonal(drive, 0.0)
        np.fill_diagonal(walk, 0.0)

        weights = self._pad_vector(self.weights, n, "weights")
        volumes = self._pad_vector(self.volumes, n, "volumes")
        for kind, per_package in (("weight", weights), ("volume", volumes)):
            if getattr(self, f"capacity_{kind}") is not None and per_package is None:
                raise InstanceFormatError(f"a {kind} capacity needs per-package {kind}s")

        spots = tuple(sorted(
            _number("parking location", s, integral=True) for s in self.parking_locations or range(1, n + 1)
        ))
        if any(s < 1 or s > n for s in spots):
            raise InstanceFormatError("parking locations must be customer ids (depot is implicit)")
        if len(set(spots)) != len(spots):
            raise InstanceFormatError("duplicate parking location")

        coords = self.coords
        if coords is not None:
            coords = _float_array("coords", coords)
            if coords.shape != (n + 1, 2):
                raise InstanceFormatError(f"coords must be {(n + 1, 2)}, got {coords.shape}")

        object.__setattr__(self, "drive", drive)
        object.__setattr__(self, "walk", walk)
        object.__setattr__(self, "park_time", park)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "volumes", volumes)
        object.__setattr__(self, "parking_locations", spots)
        object.__setattr__(self, "coords", coords)
        if self.capacity_count is not None and self.capacity_count < 1:
            raise InstanceFormatError("capacity_count must be >= 1 or omitted")
        # the CDPP is defined only when every package fits some walking set
        over: dict[str, list[int]] = {}
        if self.capacity_weight is not None or self.capacity_volume is not None:
            for c in self.customers:
                for kind in self.over_capacity((c,)):
                    over.setdefault(kind, []).append(c)
        for kind, cs in over.items():
            cap = getattr(self, f"capacity_{kind}")
            raise InfeasibleInstanceError(f"packages {cs} exceed the {kind} capacity {cap} on their own")

    @staticmethod
    def _pad_vector(vec, n: int, name: str) -> np.ndarray | None:
        if vec is None:
            return None
        arr = _float_array(name, vec).ravel()
        if arr.shape == (n,):
            arr = np.concatenate([[0.0], arr])
        if arr.shape != (n + 1,):
            raise InstanceFormatError(f"{name} must have {n} entries, got {arr.shape[0]}")
        if np.any(arr < 0):
            raise InstanceFormatError(f"negative value in {name}")
        return arr

    def over_capacity(self, members) -> list[str]:
        """The capacities ("package", "weight", "volume") that one walking set
        of these customers exceeds; empty when the set fits."""
        over = []
        if self.capacity_count is not None and len(members) > self.capacity_count:
            over.append("package")
        if self.capacity_weight is not None:
            if sum(self.weights[c] for c in members) > self.capacity_weight + 1e-9:
                over.append("weight")
        if self.capacity_volume is not None:
            if sum(self.volumes[c] for c in members) > self.capacity_volume + 1e-9:
                over.append("volume")
        return over

    @property
    def n(self) -> int:
        return self.drive.shape[0] - 1

    @property
    def customers(self) -> range:
        return range(1, self.n + 1)

    @property
    def spots(self) -> tuple[int, ...]:
        """Non-depot parking locations (the depot never needs a parking search)."""
        return self.parking_locations

    def D(self, i: int, k: int) -> float:
        return float(self.drive[i, k])

    def W(self, i: int, k: int) -> float:
        return float(self.walk[i, k])

    def d(self, i: int, k: int) -> float:
        """Drive from i to k and park at k; returning to the depot has no search time."""
        t = float(self.drive[i, k])
        return t if k == 0 else t + float(self.park_time[k])


@dataclass(frozen=True)
class GridParams:
    """Parameters of the sqrt(n) x sqrt(n) complete-grid setting used for the
    TSP-optimality threshold analysis."""

    sqrt_n: int
    block_len: float = 1.0
    drive_rate: float = 1.0
    walk_rate: float = 1.0
    park_time: float = 0.0
    load: float = 0.0
    capacity: int = 3

    def __post_init__(self):
        for name in ("block_len", "drive_rate", "walk_rate"):
            _number(name, getattr(self, name))  # before numpy warns on inf times the zero diagonal
        if self.sqrt_n < 2 or self.sqrt_n % 2 != 0:
            raise UnsupportedError(f"grid analysis requires an even sqrt_n >= 2, got {self.sqrt_n}")
        if self.drive_rate > self.walk_rate:
            raise UnsupportedError("grid analysis assumes drive_rate <= walk_rate")
        for name in ("block_len", "drive_rate", "walk_rate", "park_time", "load"):
            if getattr(self, name) < 0:
                raise UnsupportedError(f"{name} must be nonnegative")
        if self.capacity < 1:
            raise UnsupportedError("capacity must be >= 1")

    @property
    def n(self) -> int:
        return self.sqrt_n * self.sqrt_n

    @property
    def min_distance(self) -> int:
        """Rectilinear blocks from the depot at the origin to the nearest grid
        point (1,1); the closest customer is unique."""
        return 2


@dataclass
class ValidationReport:
    """Report-only diagnostics; metric violations warn, they do not reject."""

    drive_triangle_violations: int = 0
    drive_triangle_worst_excess: float = 0.0
    walk_triangle_violations: int = 0
    walk_triangle_worst_excess: float = 0.0
    drive_asymmetries: int = 0
    walk_asymmetries: int = 0
    messages: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.drive_triangle_violations == 0
            and self.walk_triangle_violations == 0
            and self.drive_asymmetries == 0
            and self.walk_asymmetries == 0
        )


def _triangle_stats(mat: np.ndarray) -> tuple[int, float]:
    m = mat.shape[0]
    count = 0
    worst = 0.0
    for j in range(m):
        excess = mat - (mat[:, j][:, None] + mat[j, :][None, :])
        excess[j, :] = 0.0
        excess[:, j] = 0.0
        np.fill_diagonal(excess, 0.0)
        bad = excess > TOL
        count += int(np.count_nonzero(bad))
        if bad.any():
            worst = max(worst, float(excess[bad].max()))
    return count, worst


def validate_instance(inst: Instance) -> ValidationReport:
    """Report the metric properties of an instance.

    Triangle-inequality violations and asymmetries are reported, not rejected
    (real road data violates both); everything that makes an instance
    malformed or unservable is refused by the ``Instance`` constructor.
    """
    report = ValidationReport()
    report.drive_triangle_violations, report.drive_triangle_worst_excess = _triangle_stats(inst.drive)
    report.walk_triangle_violations, report.walk_triangle_worst_excess = _triangle_stats(
        inst.walk[1:, 1:]
    )
    report.drive_asymmetries = int(np.count_nonzero(np.abs(inst.drive - inst.drive.T) > TOL)) // 2
    report.walk_asymmetries = int(np.count_nonzero(np.abs(inst.walk - inst.walk.T) > TOL)) // 2
    if report.drive_triangle_violations:
        report.messages.append(
            f"drive matrix violates the triangle inequality on "
            f"{report.drive_triangle_violations} triples "
            f"(worst excess {report.drive_triangle_worst_excess:.6f} min)"
        )
    if report.walk_triangle_violations:
        report.messages.append(
            f"walk matrix violates the triangle inequality on "
            f"{report.walk_triangle_violations} triples "
            f"(worst excess {report.walk_triangle_worst_excess:.6f} min)"
        )
    if report.drive_asymmetries:
        report.messages.append(f"drive matrix asymmetric on {report.drive_asymmetries} pairs")
    if report.walk_asymmetries:
        report.messages.append(f"walk matrix asymmetric on {report.walk_asymmetries} pairs")
    return report


# ---------------------------------------------------------------------------
# serialization

def instance_to_dict(inst: Instance) -> dict:
    n = inst.n
    doc: dict[str, Any] = {
        "n": n,
        "drive": inst.drive.tolist(),
        "walk": inst.walk[1:, 1:].tolist(),
        "park_time": inst.park_time[1:].tolist(),
        "q": inst.capacity_count,
        "f": inst.load_per_package,
    }
    if inst.weights is not None:
        doc["weights"] = inst.weights[1:].tolist()
    if inst.capacity_weight is not None:
        doc["cap_weight"] = inst.capacity_weight
    if inst.volumes is not None:
        doc["volumes"] = inst.volumes[1:].tolist()
    if inst.capacity_volume is not None:
        doc["cap_volume"] = inst.capacity_volume
    if inst.coords is not None:
        doc["coords"] = inst.coords.tolist()
    if inst.parking_locations != tuple(range(1, n + 1)):
        doc["parking"] = list(inst.parking_locations)
    if inst.meta:
        doc["meta"] = inst.meta
    return doc


def instance_from_dict(doc: dict) -> Instance:
    """Build an instance from its JSON document; every number must be a JSON
    number, and the ``Instance`` constructor checks the rest."""
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    try:
        n = _number("n", doc["n"], integral=True)
        drive = _float_array("drive", doc["drive"])
        walk = _float_array("walk", doc["walk"])
        park = doc["park_time"]
    except KeyError as exc:
        raise InstanceFormatError(f"missing required field: {exc}") from exc
    if drive.shape != (n + 1, n + 1):
        raise InstanceFormatError(f"drive matrix must be {(n + 1, n + 1)}, got {drive.shape}")
    if walk.shape != (n, n):
        raise InstanceFormatError("walk matrix dimension mismatch")
    if doc.get("parking") == []:  # the constructor reads an empty tuple as every customer
        raise InstanceFormatError("parking must list at least one customer id; omit it to park at every customer")
    parking, meta = doc.get("parking", []), doc.get("meta", {})
    if not isinstance(parking, list):
        raise InstanceFormatError(f"parking must be a list of customer ids, got {parking!r}")
    if not isinstance(meta, dict):
        raise InstanceFormatError(f"meta must be a JSON object, got {meta!r}")
    return Instance(
        drive=drive,
        walk=walk,
        park_time=park,
        load_per_package=doc.get("f", 0.0),
        capacity_count=doc.get("q"),
        capacity_weight=doc.get("cap_weight"),
        weights=doc.get("weights"),
        capacity_volume=doc.get("cap_volume"),
        volumes=doc.get("volumes"),
        parking_locations=tuple(parking),
        coords=doc.get("coords"),
        meta=dict(meta),
    )


def load_instance(source: str | Path, format: str = "json") -> Instance:
    """Load an instance; the ``Instance`` constructor validates it.

    ``format="json"`` accepts a path to a JSON document (or a raw JSON string).
    ``format="published-dataset"`` reads a local directory with ``drive.csv``
    (n+1 square, depot row first), ``walk.csv`` (n square) and ``meta.json``
    holding ``{"p": ..., "q": ..., "f": ...}``; adapt this layout to whatever
    the downloaded archive uses.  Both modes are network-free.
    """
    if format == "published-dataset":
        return _load_dataset_dir(Path(source))
    if format != "json":
        raise InstanceFormatError(f"unknown instance format: {format!r}")
    if isinstance(source, Path) or not str(source).lstrip().startswith("{"):
        path = Path(source)
        if not path.exists():
            raise InstanceFormatError(f"instance file not found: {path}")
        text = path.read_text()
    else:
        text = str(source)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    return instance_from_dict(doc)


def _load_dataset_dir(root: Path) -> Instance:
    if not root.is_dir():
        raise InstanceFormatError(f"dataset directory not found: {root}")
    try:
        drive = np.loadtxt(root / "drive.csv", delimiter=",", ndmin=2)
        walk = np.loadtxt(root / "walk.csv", delimiter=",", ndmin=2)
        meta = json.loads((root / "meta.json").read_text())
    except (OSError, ValueError) as exc:  # unreadable, or not CSV or JSON
        raise InstanceFormatError(f"unreadable dataset directory {root}: {exc}") from exc
    if not isinstance(meta, dict):
        raise InstanceFormatError(f"{root / 'meta.json'} must hold a JSON object")
    p = meta.get("p", 0.0)
    return Instance(
        drive=drive,
        walk=walk,
        park_time=[p] * (drive.shape[0] - 1) if np.isscalar(p) else p,
        load_per_package=meta.get("f", 0.0),
        capacity_count=meta.get("q"),
        meta={"source": str(root)},
    )


def save_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# generators

def gen_geo_instance(
    n: int,
    seed: int,
    drive_factor: float = 12.5,
    walk_factor: float = 20.0,
    p: float = 1.0,
    q: int | None = 3,
    f: float = 0.0,
) -> Instance:
    """Random geographic instance: depot + n customers uniform in the unit
    square, travel times Euclidean distance times the given rates (min/unit).
    Deterministic for a fixed seed."""
    if n < 1:
        raise InstanceFormatError("n must be >= 1")
    for name, value in (("drive_factor", drive_factor), ("walk_factor", walk_factor)):
        _number(name, value)  # before numpy warns on inf times the zero diagonal
    if walk_factor < drive_factor:
        raise UnsupportedError("walking must not be faster than driving (walk_factor >= drive_factor)")
    rng = np.random.default_rng(seed)
    coords = rng.random((n + 1, 2))
    diff = coords[:, None, :] - coords[None, :, :]
    eucl = np.sqrt((diff**2).sum(axis=2))
    drive = eucl * drive_factor
    walk = np.zeros_like(drive)
    walk[1:, 1:] = eucl[1:, 1:] * walk_factor
    return Instance(
        drive=drive,
        walk=walk,
        park_time=np.full(n, float(p)),
        load_per_package=f,
        capacity_count=q,
        coords=coords,
        meta={"generator": "geo", "seed": seed},
    )


def grid_id(gp: GridParams, a: int, b: int) -> int:
    """Customer id of the grid point (a, b), 1 <= a, b <= sqrt_n (row-major)."""
    return (b - 1) * gp.sqrt_n + a


def grid_coord(gp: GridParams, cid: int) -> tuple[int, int]:
    b, a = divmod(cid - 1, gp.sqrt_n)
    return a + 1, b + 1


def gen_grid_instance(gp: GridParams) -> Instance:
    """Complete-grid instance: customers at integer block coordinates (a, b)
    with 1 <= a, b <= sqrt_n, the depot at the origin, and rectilinear travel
    times (blocks * block_len * rate) for both driving and walking."""
    m = gp.sqrt_n
    n = gp.n
    pts = np.empty((n + 1, 2))
    pts[0] = (0.0, 0.0)
    for cid in range(1, n + 1):
        pts[cid] = grid_coord(gp, cid)
    rect = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    drive = rect * gp.block_len * gp.drive_rate
    walk = np.zeros_like(drive)
    walk[1:, 1:] = rect[1:, 1:] * gp.block_len * gp.walk_rate
    min_distance = float(rect[0, 1:].min())
    return Instance(
        drive=drive,
        walk=walk,
        park_time=np.full(n, gp.park_time),
        load_per_package=gp.load,
        capacity_count=gp.capacity,
        coords=pts * gp.block_len,
        meta={
            "generator": "grid",
            "sqrt_n": m,
            "block_len": gp.block_len,
            "min_distance": min_distance,
        },
    )
