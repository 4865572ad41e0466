"""Multi-domain datasets: synthetic rotating-domain generators, IDX ingestion,
and labeled/unlabeled pool bookkeeping."""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class MultiDomainDataset:
    """N domains sharing one feature space and label space.

    Train labels are stored here but are meant to be read through a
    LabeledPool, which only exposes labels for revealed indices.
    """

    train_features: list[np.ndarray]
    train_labels: list[np.ndarray]
    test_features: list[np.ndarray]
    test_labels: list[np.ndarray]
    n_classes: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.train_features)
        if n < 1:
            raise ValueError("need at least one domain")
        if not (len(self.train_labels) == len(self.test_features) == len(self.test_labels) == n):
            raise ValueError("per-domain lists have inconsistent lengths")
        d = self.train_features[0].shape[1]
        for i in range(n):
            if self.train_features[i].shape[1] != d or self.test_features[i].shape[1] != d:
                raise ValueError("all domains must share the feature dimension")
            if self.train_features[i].shape[0] != self.train_labels[i].shape[0]:
                raise ValueError(f"domain {i}: train feature/label count mismatch")
            if self.test_features[i].shape[0] != self.test_labels[i].shape[0]:
                raise ValueError(f"domain {i}: test feature/label count mismatch")
            for labels in (self.train_labels[i], self.test_labels[i]):
                if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
                    raise ValueError(f"domain {i}: labels outside [0, {self.n_classes})")

    @property
    def n_domains(self) -> int:
        return len(self.train_features)

    @property
    def feature_dim(self) -> int:
        return self.train_features[0].shape[1]

    def train_size(self, j: int) -> int:
        return self.train_features[j].shape[0]


def check_rotating_split(spec) -> None:
    """The checks every rotating-domain spec makes of its `n_domains`,
    `train_per_domain`, `test_per_domain`, `total_range_deg` and `seed`."""
    if spec.n_domains < 1:
        raise ValueError("n_domains must be >= 1")
    if spec.train_per_domain < 1 or spec.test_per_domain < 1:
        raise ValueError("need at least one train and one test point per domain")
    if not 0 < spec.total_range_deg < np.inf:  # also refuses nan
        raise ValueError("total_range_deg must be positive and finite")
    if spec.seed < 0:
        raise ValueError("seed must be >= 0")


def domain_ranges(total_range_deg: float, n_domains: int) -> list[tuple[float, float]]:
    """Each domain's angle range (lo, hi) in degrees: domain i takes the i-th
    of n_domains contiguous equal parts of [0, total_range_deg)."""
    width = total_range_deg / n_domains
    return [(i * width, (i + 1) * width) for i in range(n_domains)]


@dataclass(frozen=True)
class RotatingSpec:
    """Recipe for a synthetic rotating-domain dataset.

    The total angular range is split into n_domains contiguous equal
    sub-ranges; every sample of domain i is a base-shape point rotated by an
    angle drawn uniformly from sub-range i. Labels come from the base shape
    and are unaffected by rotation.
    """

    n_domains: int = 6
    train_per_domain: int = 400
    test_per_domain: int = 160
    n_classes: int = 4
    total_range_deg: float = 90.0
    base_shape: str = "gaussian_blobs"
    noise: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        check_rotating_split(self)
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.base_shape not in ("gaussian_blobs", "two_moons_k"):
            raise ValueError(f"unknown base_shape {self.base_shape!r}")
        if not 0 <= self.noise < np.inf:
            raise ValueError("noise must be nonnegative and finite")
        # blob centroids are equally spaced on the unit circle: 2*pi/n_classes >= 4*noise
        max_classes = max(1, int(np.floor(np.pi / (2.0 * max(self.noise, 1e-9)))))
        if self.base_shape == "gaussian_blobs" and self.n_classes > max_classes:
            raise ValueError(f"{self.n_classes} classes are not distinguishable at noise "
                             f"{self.noise} (max {max_classes})")
        if self.base_shape == "two_moons_k" and self.n_classes != 2:
            raise ValueError("two_moons_k provides exactly 2 distinguishable clusters")


def _base_points(kind: str, labels: np.ndarray, n_classes: int, noise: float,
                 rng: np.random.Generator) -> np.ndarray:
    n = labels.shape[0]
    if kind == "gaussian_blobs":
        # class centroids equally spaced on the unit circle
        angles = 2.0 * np.pi * labels / n_classes
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return pts + noise * rng.standard_normal((n, 2))
    if kind == "two_moons_k":
        t = rng.uniform(0.0, np.pi, size=n)
        upper = np.stack([np.cos(t) - 0.5, np.sin(t) - 0.25], axis=1)
        pts = np.where((labels == 0)[:, None], upper, -upper)
        return pts + noise * rng.standard_normal((n, 2))
    raise ValueError(f"unknown base_shape {kind!r}")


def _rotate(points: np.ndarray, angles_rad: np.ndarray) -> np.ndarray:
    ca, sa = np.cos(angles_rad), np.sin(angles_rad)
    x, y = points[:, 0], points[:, 1]
    return np.stack([ca * x - sa * y, sa * x + ca * y], axis=1)


def gen_rotating(spec: RotatingSpec) -> MultiDomainDataset:
    """Generate a rotating-domain dataset, deterministic in spec.seed."""
    rng = np.random.default_rng(spec.seed)
    train_f, train_y, test_f, test_y = [], [], [], []
    train_angles, test_angles = [], []
    for lo, hi in domain_ranges(spec.total_range_deg, spec.n_domains):
        per_split = []
        for count in (spec.train_per_domain, spec.test_per_domain):
            counts = split_budget_evenly(count, spec.n_classes)
            labels = np.repeat(np.arange(spec.n_classes), counts)
            pts = _base_points(spec.base_shape, labels, spec.n_classes, spec.noise, rng)
            deg = rng.uniform(lo, hi, size=count)
            rotated = _rotate(pts, np.deg2rad(deg))
            order = rng.permutation(count)
            per_split.append((rotated[order], labels[order], deg[order]))
        (ftr, ytr, atr), (fte, yte, ate) = per_split
        train_f.append(ftr)
        train_y.append(ytr)
        test_f.append(fte)
        test_y.append(yte)
        train_angles.append(atr)
        test_angles.append(ate)
    meta = {
        "kind": "rotating",
        "spec": spec,
        "train_angles": train_angles,
        "test_angles": test_angles,
    }
    return MultiDomainDataset(train_f, train_y, test_f, test_y, spec.n_classes, meta)


def _read_u32be(data: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(data):
        raise ValueError(f"{path}: truncated at byte offset {offset} (need 4 bytes)")
    return struct.unpack_from(">I", data, offset)[0]


def _idx_payload(data: bytes, path: str, magic: int, n_dims: int,
                 what: str) -> tuple[list[int], np.ndarray]:
    """An IDX file's header dims and its uint8 payload of their product in
    bytes, its magic number and length checked. The product is of Python
    ints: a u32 header can claim 2^96 bytes, which int64 would wrap."""
    found = _read_u32be(data, 0, path)
    if found != magic:
        raise ValueError(f"{path}: bad magic 0x{found:08x} at byte offset 0 "
                         f"(expected 0x{magic:08x})")
    dims = [_read_u32be(data, 4 + 4 * k, path) for k in range(n_dims)]
    start, size = 4 + 4 * n_dims, math.prod(dims)
    if len(data) < start + size:
        raise ValueError(f"{path}: truncated {what} data at byte offset {len(data)} "
                         f"(expected {start + size} bytes)")
    return dims, np.frombuffer(data, dtype=np.uint8, count=size, offset=start)


def load_idx(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Load a classic big-endian IDX image/label file pair.

    Returns (features, labels) with pixel features flattened row-major and
    scaled to [0, 1].
    """
    with open(images_path, "rb") as f:
        img = f.read()
    with open(labels_path, "rb") as f:
        lab = f.read()

    (n, rows, cols), pixels = _idx_payload(img, images_path, IDX_IMAGE_MAGIC, 3, "pixel")
    (n_lab,), labels = _idx_payload(lab, labels_path, IDX_LABEL_MAGIC, 1, "label")
    if n_lab != n:
        raise ValueError(f"image count {n} ({images_path}) != label count {n_lab} ({labels_path})")
    features = pixels.reshape(n, rows * cols).astype(np.float64) / 255.0
    return features, labels.astype(np.int64)


def rotate_idx_domains(features: np.ndarray, labels: np.ndarray, n_domains: int,
                       train_per_domain: int, test_per_domain: int,
                       total_range_deg: float, seed: int) -> MultiDomainDataset:
    """Build a rotating multi-domain dataset from square IDX images.

    Each domain gets a disjoint subsample of the flat dataset; its images are
    rotated by per-image angles drawn uniformly from the domain's sub-range.
    """
    from scipy import ndimage

    n = features.shape[0]
    side = int(round(np.sqrt(features.shape[1])))
    if side * side != features.shape[1]:
        raise ValueError("features are not flattened square images")
    per_domain = train_per_domain + test_per_domain
    if n_domains * per_domain > n:
        raise ValueError(f"need {n_domains * per_domain} samples, have {n}")
    n_classes = int(labels.max()) + 1
    if n_classes < 2:
        raise ValueError(f"labels give {n_classes} class; need at least 2")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    train_f, train_y, test_f, test_y = [], [], [], []
    for i, (lo, hi) in enumerate(domain_ranges(total_range_deg, n_domains)):
        take = order[i * per_domain:(i + 1) * per_domain]
        deg = rng.uniform(lo, hi, size=per_domain)
        imgs = features[take].reshape(-1, side, side)
        rotated = np.stack([
            ndimage.rotate(img, a, reshape=False, order=1, mode="constant", cval=0.0)
            for img, a in zip(imgs, deg)
        ])
        flat = np.clip(rotated, 0.0, 1.0).reshape(per_domain, side * side)
        train_f.append(flat[:train_per_domain])
        train_y.append(labels[take[:train_per_domain]])
        test_f.append(flat[train_per_domain:])
        test_y.append(labels[take[train_per_domain:]])
    return MultiDomainDataset(train_f, train_y, test_f, test_y, n_classes,
                              {"kind": "idx_rotating"})


class LabeledPool:
    """Per-domain labeled/unlabeled bookkeeping over a dataset's train split.

    Labeled index sets only grow; labels are readable only for revealed
    indices.
    """

    def __init__(self, dataset: MultiDomainDataset):
        self.dataset = dataset
        self._labeled = [np.empty(0, dtype=np.int64) for _ in range(dataset.n_domains)]

    def labeled_indices(self, j: int) -> np.ndarray:
        return self._labeled[j].copy()

    def unlabeled_indices(self, j: int) -> np.ndarray:
        all_idx = np.arange(self.dataset.train_size(j), dtype=np.int64)
        return np.setdiff1d(all_idx, self._labeled[j], assume_unique=True)

    def counts(self) -> np.ndarray:
        return np.array([lab.size for lab in self._labeled], dtype=np.int64)

    def labeled_features(self, j: int) -> np.ndarray:
        return self.dataset.train_features[j][self._labeled[j]]

    def labels(self, j: int) -> np.ndarray:
        """Revealed labels for domain j, aligned with labeled_indices(j)."""
        return self.dataset.train_labels[j][self._labeled[j]]

    def reveal(self, j: int, indices: np.ndarray) -> "LabeledPool":
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return self
        if np.unique(indices).size != indices.size:
            raise ValueError(f"domain {j}: duplicate indices in reveal request")
        if indices.min() < 0 or indices.max() >= self.dataset.train_size(j):
            raise ValueError(f"domain {j}: reveal indices out of range")
        already = np.intersect1d(indices, self._labeled[j], assume_unique=True)
        if already.size:
            raise ValueError(
                f"domain {j}: indices {already.tolist()} are already labeled "
                "(query strategy returned a labeled point)"
            )
        self._labeled[j] = np.sort(np.concatenate([self._labeled[j], indices]))
        return self


def split_budget_evenly(total: int, parts: int) -> np.ndarray:
    """total // parts to each part (domain or class), the remainder to the
    lowest-indexed parts."""
    counts = np.full(parts, total // parts, dtype=np.int64)
    counts[: total % parts] += 1
    return counts


def init_pool(dataset: MultiDomainDataset, m0: int, seed) -> LabeledPool:
    """Reveal m0 domain-balanced uniform random train points, at least one
    in every domain: an m0 below the domain count is refused."""
    if m0 < dataset.n_domains:
        raise ValueError(f"m0 = {m0} leaves labeled domain {max(m0, 0)} with no rows; "
                         f"every domain needs one (m0 >= {dataset.n_domains})")
    counts = split_budget_evenly(m0, dataset.n_domains)
    for j, c in enumerate(counts):
        if c > dataset.train_size(j):
            raise ValueError(
                f"domain {j}: initial budget {c} exceeds train size {dataset.train_size(j)}"
            )
    rng = np.random.default_rng(seed)
    pool = LabeledPool(dataset)
    for j, c in enumerate(counts):
        pool.reveal(j, rng.choice(dataset.train_size(j), size=int(c), replace=False))
    return pool
