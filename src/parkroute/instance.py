"""Problem data model: instance container, validation, file I/O, and generators.

Locations are integer ids: 0 is the depot, customers are 1..n.  Driving times
are stored as an (n+1) x (n+1) matrix over depot+customers; walking times are
defined between customers only and stored zero-padded to the same shape so
that ``walk[i, k]`` works with the same ids.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import InfeasibleInstanceError, InstanceFormatError, UnsupportedError

TOL = 1e-6


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable problem instance; safe to share across parallel workers.

    The constructor normalizes shapes: ``walk`` may be given as n x n (customers
    only) and ``park_time``/``weights``/``volumes`` as length-n vectors; all are
    padded so index 0 (the depot) exists but is unused.
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
        drive = np.asarray(self.drive, dtype=float)
        if drive.ndim != 2 or drive.shape[0] != drive.shape[1]:
            raise InstanceFormatError(f"drive matrix must be square, got shape {drive.shape}")
        n = drive.shape[0] - 1
        if n < 1:
            raise InstanceFormatError("instance needs at least one customer")
        walk = np.asarray(self.walk, dtype=float)
        if walk.shape == (n, n):
            padded = np.zeros((n + 1, n + 1))
            padded[1:, 1:] = walk
            walk = padded
        if walk.shape != (n + 1, n + 1):
            raise InstanceFormatError(
                f"walk matrix must be {n}x{n} or {n + 1}x{n + 1}, got {walk.shape}"
            )
        park = np.asarray(self.park_time, dtype=float).ravel()
        if park.shape == (n,):
            park = np.concatenate([[0.0], park])
        if park.shape != (n + 1,):
            raise InstanceFormatError(f"park_time must have {n} entries, got {park.shape[0]}")
        for name, arr in (("drive", drive), ("walk", walk), ("park_time", park)):
            if not np.isfinite(arr).all():
                raise InstanceFormatError(f"non-finite value in {name}")
        for name in ("load_per_package", "capacity_weight", "capacity_volume"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InstanceFormatError(f"non-finite {name}: {value}")
        for name, mat in (("drive", drive), ("walk", walk)):
            if np.any(mat < 0):
                raise InstanceFormatError(f"negative time in {name} matrix")
            if np.any(np.abs(np.diag(mat)) > 1e-9):
                raise InstanceFormatError(f"{name} matrix diagonal must be zero")
        if np.any(park < 0):
            raise InstanceFormatError("negative parking search time")

        weights = self._pad_vector(self.weights, n, "weights")
        volumes = self._pad_vector(self.volumes, n, "volumes")

        spots = tuple(sorted(self.parking_locations)) if self.parking_locations else tuple(range(1, n + 1))
        if any(s < 1 or s > n for s in spots):
            raise InstanceFormatError("parking locations must be customer ids (depot is implicit)")
        if len(set(spots)) != len(spots):
            raise InstanceFormatError("duplicate parking location")

        coords = self.coords
        if coords is not None:
            coords = np.asarray(coords, dtype=float)
            if coords.shape != (n + 1, 2):
                raise InstanceFormatError(f"coords must be {(n + 1, 2)}, got {coords.shape}")

        object.__setattr__(self, "drive", drive)
        object.__setattr__(self, "walk", walk)
        object.__setattr__(self, "park_time", park)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "volumes", volumes)
        object.__setattr__(self, "parking_locations", spots)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "load_per_package", float(self.load_per_package))
        if self.capacity_count is not None and self.capacity_count < 1:
            raise InstanceFormatError("capacity_count must be >= 1 or omitted")

    @staticmethod
    def _pad_vector(vec, n: int, name: str) -> np.ndarray | None:
        if vec is None:
            return None
        arr = np.asarray(vec, dtype=float).ravel()
        if arr.shape == (n,):
            arr = np.concatenate([[0.0], arr])
        if arr.shape != (n + 1,):
            raise InstanceFormatError(f"{name} must have {n} entries, got {arr.shape[0]}")
        if not np.isfinite(arr).all():
            raise InstanceFormatError(f"non-finite value in {name}")
        if np.any(arr[1:] < 0):
            raise InstanceFormatError(f"negative value in {name}")
        return arr

    def over_capacity(self, members) -> list[str]:
        """The capacities ("package", "weight", "volume") that one walking set
        of these customers exceeds; empty when the set fits."""
        over = []
        if self.capacity_count is not None and len(members) > self.capacity_count:
            over.append("package")
        if self.capacity_weight is not None and self.weights is not None:
            if sum(self.weights[c] for c in members) > self.capacity_weight + 1e-9:
                over.append("weight")
        if self.capacity_volume is not None and self.volumes is not None:
            if sum(self.volumes[c] for c in members) > self.capacity_volume + 1e-9:
                over.append("volume")
        return over

    def check_single_packages(self) -> None:
        """Raise ``InfeasibleInstanceError`` naming the first customer whose
        package alone exceeds a capacity: no walking set can serve it."""
        for c in self.customers:
            for kind in self.over_capacity((c,)):
                raise InfeasibleInstanceError(f"package for customer {c} exceeds the {kind} capacity alone")

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
    """Check metric properties and capacity feasibility.

    Triangle-inequality violations and asymmetries are reported, not rejected
    (real road data violates both).  A package that exceeds the weight or
    volume capacity on its own makes the instance unservable and raises.
    """
    for kind, cap in (("weight", inst.capacity_weight), ("volume", inst.capacity_volume)):
        over = [i for i in inst.customers if kind in inst.over_capacity((i,))]
        if over:
            raise InfeasibleInstanceError(f"packages {over} exceed the {kind} capacity {cap} on their own")
    if not inst.spots:
        raise InfeasibleInstanceError("no parking locations: customers cannot be served")

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
    try:
        n = int(doc["n"])
        drive = np.asarray(doc["drive"], dtype=float)
        walk_rows = doc["walk"]
        park = doc["park_time"]
        q = None if doc.get("q") is None else int(doc["q"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InstanceFormatError(f"missing or malformed required field: {exc}") from exc
    if drive.shape != (n + 1, n + 1):
        raise InstanceFormatError(f"drive matrix must be {(n + 1, n + 1)}, got {drive.shape}")
    if len(walk_rows) != n or any(len(r) != n for r in walk_rows):
        raise InstanceFormatError("walk matrix dimension mismatch")
    inst = Instance(
        drive=drive,
        walk=np.asarray(walk_rows, dtype=float),
        park_time=np.asarray(park, dtype=float),
        load_per_package=float(doc.get("f", 0.0)),
        capacity_count=q,
        capacity_weight=doc.get("cap_weight"),
        weights=doc.get("weights"),
        capacity_volume=doc.get("cap_volume"),
        volumes=doc.get("volumes"),
        parking_locations=tuple(doc.get("parking", ())),
        coords=doc.get("coords"),
        meta=dict(doc.get("meta", {})),
    )
    return inst


def load_instance(source: str | Path, format: str = "json") -> Instance:
    """Load and validate an instance.

    ``format="json"`` accepts a path to a JSON document (or a raw JSON string).
    ``format="published-dataset"`` reads a local directory with ``drive.csv``
    (n+1 square, depot row first), ``walk.csv`` (n square) and ``meta.json``
    holding ``{"p": ..., "q": ..., "f": ...}``; adapt this layout to whatever
    the downloaded archive uses.  Both modes are network-free.
    """
    if format == "published-dataset":
        inst = _load_dataset_dir(Path(source))
    elif format == "json":
        text: str
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
        inst = instance_from_dict(doc)
    else:
        raise InstanceFormatError(f"unknown instance format: {format!r}")
    validate_instance(inst)
    return inst


def _load_dataset_dir(root: Path) -> Instance:
    if not root.is_dir():
        raise InstanceFormatError(f"dataset directory not found: {root}")
    try:
        drive = np.loadtxt(root / "drive.csv", delimiter=",", ndmin=2)
        walk = np.loadtxt(root / "walk.csv", delimiter=",", ndmin=2)
        meta = json.loads((root / "meta.json").read_text())
    except OSError as exc:
        raise InstanceFormatError(f"unreadable dataset directory {root}: {exc}") from exc
    n = drive.shape[0] - 1
    p = meta.get("p", 0.0)
    park = [float(p)] * n if np.isscalar(p) or isinstance(p, (int, float)) else list(p)
    return Instance(
        drive=drive,
        walk=walk,
        park_time=np.asarray(park, dtype=float),
        load_per_package=float(meta.get("f", 0.0)),
        capacity_count=None if meta.get("q") is None else int(meta["q"]),
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
