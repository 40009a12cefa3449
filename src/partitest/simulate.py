"""Scenario generators and power/level studies with reproducible streams.

Datasets are deterministic functions of (scenario seed, replicate index): a
counter-based bit generator feeds a uniform stream, and normal variates come
from the inverse CDF so replicates are stable across platforms and thread
counts.  A power study runs the combined test on R replicate datasets against
one shared null table and reports the rejection fraction with its binomial
standard error, plus per-m rejection rates for plotting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .core import GroupedSample, chunk_map, rank_with_random_ties, seeded_generator
from .ksample import PriorSpec
from .nulltable import NullTable, run_test

__all__ = [
    "ScenarioSpec",
    "PowerReport",
    "builtin_scenarios",
    "make_scenario",
    "parse_scenario_file",
    "generate_scenario",
    "power_study",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully parameterized data-generating scenario."""

    name: str
    problem: str  # "ksample" | "independence"
    n: int
    group_sizes: tuple[int, ...] | None
    params: tuple  # ("family", name) then sorted (key, value) pairs; values are floats or tuples
    seed: int
    replicates: int
    alpha: float

    def __post_init__(self):
        family = dict(self.params).get("family")
        if family not in _FAMILY_PROBLEMS:
            raise ValueError(f"unknown scenario family: {family!r}")
        if self.problem not in ("ksample", "independence"):
            raise ValueError(f"unknown problem: {self.problem!r}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.problem == "ksample":
            if not self.group_sizes or sum(self.group_sizes) != self.n:
                raise ValueError("group sizes must sum to N")
            if min(self.group_sizes) < 1:
                raise ValueError("group sizes must be positive")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if _FAMILY_PROBLEMS[family] != self.problem:
            raise ValueError(f"family {family!r} belongs to the {_FAMILY_PROBLEMS[family]} problem")
        if family == "gauss" and len(self.group_sizes) != len(self.param("mu")):
            raise ValueError(
                f"family 'gauss' needs {len(self.param('mu'))} group sizes, "
                f"got {len(self.group_sizes)}"
            )

    def param(self, key: str):
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)


# The problem each family's data belongs to.
_FAMILY_PROBLEMS = {
    "gauss": "ksample",
    "uniform-independent": "independence",
    "mixture2d": "independence",
    "shape": "independence",
}

# Each built-in is the family fields of the scenario file it equals.  The
# two-sample Gaussian setups pin one alternative per name (the N=100
# benchmark parameters) for every N, so power comparisons across sample
# sizes isolate N itself; gauss-mixture-2d is the MI benchmark's mixture.
_BUILTINS = {
    "gauss-shift": "family=gauss mu1=0 sigma1=1 mu2=0.5 sigma2=1",
    "gauss-scale": "family=gauss mu1=0 sigma1=1 mu2=0 sigma2=0.6",
    "gauss-shift-scale": "family=gauss mu1=0 sigma1=1 mu2=0.36 sigma2=0.7",
    "null-equal": "family=gauss mu1=0 sigma1=1 mu2=0 sigma2=1",
    "null-uniform": "family=uniform-independent",
    "gauss-mixture-2d": "family=mixture2d weight1=0.8 mean1=0.5,0.5 cov1=0.05,0.025,0.05 "
    "mean2=-0.125,0.675 cov2=0.01,0,0.01",
}

_SHAPES = ("circle", "sine", "line")


def builtin_scenarios() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def _family_params(family: str, fields: dict[str, str]) -> tuple:
    """Checked, frozen parameters of ``family`` from its scenario-file fields.

    Families: ``gauss`` (mu1, sigma1, mu2, sigma2), ``mixture2d`` (weight1,
    mean1/2, cov1/2 as var_x,cov_xy,var_y), ``shape`` with shape in {circle,
    sine, line} plus ``noise`` (and ``frequency`` for sine), and
    ``uniform-independent``.  Raises KeyError for a missing key, ValueError
    unless every value is finite, sigmas are positive, ``weight1`` lies in
    [0, 1], means have 2 entries, covariances 3 entries forming a
    positive-definite matrix, and ``noise`` is non-negative.
    """

    def flist(key, size=1):
        values = tuple(float(tok) for tok in fields[key].split(","))
        if len(values) != size:
            raise ValueError(f"{key} needs {size} comma-separated values, got {len(values)}")
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{key} must be finite")
        return values

    def covariance(key):
        cov = flist(key, 3)
        try:
            _chol2(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"{key} is not a positive-definite covariance") from exc
        return cov

    params = {}  # uniform-independent; ScenarioSpec rejects an unknown family
    if family == "gauss":
        params = {"mu": flist("mu1") + flist("mu2"), "sigma": flist("sigma1") + flist("sigma2")}
        if min(params["sigma"]) <= 0.0:
            raise ValueError("sigma1 and sigma2 must be positive")
    elif family == "mixture2d":
        params = {
            "weight1": flist("weight1")[0],
            "mean1": flist("mean1", 2),
            "cov1": covariance("cov1"),
            "mean2": flist("mean2", 2),
            "cov2": covariance("cov2"),
        }
        if not 0.0 <= params["weight1"] <= 1.0:
            raise ValueError("weight1 must lie in [0, 1]")
    elif family == "shape":
        shape = fields["shape"]
        if shape not in _SHAPES:
            raise ValueError(f"unknown shape {shape!r}; choose from {_SHAPES}")
        params = {"shape_id": float(_SHAPES.index(shape)), "noise": flist("noise")[0]}
        if params["noise"] < 0.0:
            raise ValueError("noise must be non-negative")
        if shape == "sine":
            params["frequency"] = flist("frequency")[0]
    return (("family", family),) + tuple(sorted(params.items()))


def make_scenario(
    name: str,
    n: int,
    group_sizes: tuple[int, ...] | None = None,
    seed: int = 0,
    replicates: int = 1000,
    alpha: float = 0.05,
) -> ScenarioSpec:
    """Instantiate a built-in scenario for a concrete sample size."""
    if name not in _BUILTINS:
        raise ValueError(
            f"unknown scenario {name!r}; built-ins: {', '.join(builtin_scenarios())}"
        )
    fields = dict(item.split("=") for item in _BUILTINS[name].split())
    problem = _FAMILY_PROBLEMS[fields["family"]]
    if problem == "ksample" and group_sizes is None:
        group_sizes = (n // 2, n - n // 2)
    return ScenarioSpec(
        name=name,
        problem=problem,
        n=int(n),
        group_sizes=tuple(int(g) for g in group_sizes) if problem == "ksample" else None,
        params=_family_params(fields["family"], fields),
        seed=int(seed),
        replicates=int(replicates),
        alpha=float(alpha),
    )


def parse_scenario_file(
    path: str, seed: int = 0, replicates: int = 1000, alpha: float = 0.05
) -> ScenarioSpec:
    """Read a key=value scenario description (UTF-8 text, ``#`` comments).

    Required keys: ``name``, ``problem``, ``family``, ``n`` (plus ``groups``
    for two-sample scenarios) and the family's keys (``_family_params``);
    nothing is guessed.  ``seed``, ``replicates`` and ``alpha`` override the
    arguments.  Raises ValueError for a missing key or a value out of range.
    """
    raw: dict[str, str] = {}
    # utf-8-sig: a leading byte-order mark is not part of the first key.
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    try:
        name, problem, family = raw["name"], raw["problem"], raw["family"]
        n = int(raw["n"])
        params = _family_params(family, raw)
        group_sizes = None
        if problem == "ksample":
            group_sizes = tuple(int(g) for g in raw["groups"].split(","))
    except KeyError as exc:
        raise ValueError(f"scenario file missing required key: {exc}") from exc
    return ScenarioSpec(
        name=name,
        problem=problem,
        n=n,
        group_sizes=group_sizes,
        params=params,
        seed=int(raw.get("seed", seed)),
        replicates=int(raw.get("replicates", replicates)),
        alpha=float(raw.get("alpha", alpha)),
    )


def _uniform_stream(seed: int, replicate_index: int):
    """Counter-based uniforms in (0, 1), deterministic in (seed, replicate)."""
    rng = seeded_generator((seed, replicate_index))

    def draw(count: int) -> np.ndarray:
        return (rng.integers(0, 2**53, size=count) + 0.5) * 2.0**-53

    return draw


def _chol2(cov: tuple[float, float, float]) -> np.ndarray:
    vx, cxy, vy = cov
    mat = np.array([[vx, cxy], [cxy, vy]])
    return np.linalg.cholesky(mat)


def generate_scenario(spec: ScenarioSpec, replicate_index: int):
    """One deterministic dataset: (labels, values) or (x, y) raw value arrays."""
    draw = _uniform_stream(spec.seed, replicate_index)
    family = spec.param("family")
    n = spec.n
    if family == "gauss":
        mu = spec.param("mu")
        sigma = spec.param("sigma")
        labels = np.repeat(np.arange(1, len(spec.group_sizes) + 1), spec.group_sizes)
        z = ndtri(draw(n))
        values = np.empty(n)
        start = 0
        for g, size in enumerate(spec.group_sizes):
            values[start : start + size] = mu[g] + sigma[g] * z[start : start + size]
            start += size
        return labels, values
    if family == "uniform-independent":
        u = draw(2 * n)
        return u[:n], u[n:]
    if family == "mixture2d":
        pick = draw(n) < spec.param("weight1")
        z = ndtri(draw(2 * n)).reshape(n, 2)
        m1, m2 = (np.asarray(spec.param(key)) for key in ("mean1", "mean2"))
        # z @ chol.T, elementwise: BLAS kernels fuse its multiply-adds on some CPUs only.
        d1, d2 = (
            z[:, :1] * chol[:, 0] + z[:, 1:] * chol[:, 1]
            for chol in (_chol2(spec.param("cov1")), _chol2(spec.param("cov2")))
        )
        pts = np.where(pick[:, None], m1 + d1, m2 + d2)
        return pts[:, 0], pts[:, 1]
    if family == "shape":
        shape = _SHAPES[int(spec.param("shape_id"))]
        noise = spec.param("noise")
        eps = noise * ndtri(draw(n))
        if shape == "circle":
            theta = 2.0 * math.pi * draw(n)
            return np.cos(theta) + noise * ndtri(draw(n)), np.sin(theta) + eps
        x = draw(n)
        if shape == "sine":
            return x, np.sin(2.0 * math.pi * spec.param("frequency") * x) + eps
        return x, x + eps
    raise ValueError(f"unknown scenario family: {family!r}")


@dataclass(frozen=True)
class PowerReport:
    """Rejection fraction at level alpha, with per-m single-size rates."""

    scenario: str
    replicates: int
    alpha: float
    rejections: int
    rejection_rate: float
    standard_error: float
    ms: tuple[int, ...]
    per_m_rates: np.ndarray = field(repr=False)


def _tie_seed_for(spec: ScenarioSpec, replicate_index: int, axis: int) -> int:
    ss = np.random.SeedSequence((spec.seed, replicate_index, 0x7155 + axis))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def dataset_for_test(spec: ScenarioSpec, replicate_index: int):
    """Rank-level test input for one replicate of the scenario."""
    data = generate_scenario(spec, replicate_index)
    if spec.problem == "ksample":
        labels, values = data
        return GroupedSample.from_values(labels, values, _tie_seed_for(spec, replicate_index, 0))
    xv, yv = data
    return (
        rank_with_random_ties(xv, _tie_seed_for(spec, replicate_index, 0)),
        rank_with_random_ties(yv, _tie_seed_for(spec, replicate_index, 1)),
    )


def _power_chunk(spec, table, combined_kind, prior, start, stop):
    per_m = np.zeros(table.meta.m_max - 1, dtype=np.int64)
    rejections = 0
    for rep in range(start, stop):
        result = run_test(dataset_for_test(spec, rep), table, combined_kind, prior)
        rejections += int(result.final_pvalue <= spec.alpha)
        per_m += result.per_m_pvalues <= spec.alpha
    return rejections, per_m


def power_study(
    spec: ScenarioSpec,
    table: NullTable,
    combined_kind: str = "minp",
    prior: PriorSpec | None = None,
    threads: int = 1,
) -> PowerReport:
    """Fraction of replicates whose final p-value is at or below alpha.

    Per-m rates count replicates with p_m <= alpha for each fixed size.
    Replicates are data-parallel over ``threads`` worker processes (at most
    one per core); the reduction is an ordered integer sum of indicator bits,
    so the report is identical for any thread count.
    """
    meta = table.meta
    if meta.problem != spec.problem or meta.n != spec.n:
        raise ValueError("table incompatible: scenario and table disagree")
    if spec.problem == "ksample" and meta.group_sizes != spec.group_sizes:
        raise ValueError("table incompatible: group sizes differ")
    ms = tuple(int(m) for m in table.ms)
    table.combined_null(combined_kind, prior)  # build once, ship to workers
    parts = chunk_map(
        _power_chunk, (spec, table, combined_kind, prior), spec.replicates, threads
    )
    rejections = sum(r for r, _ in parts)
    per_m = np.sum([p for _, p in parts], axis=0)
    rate = rejections / spec.replicates
    se = math.sqrt(rate * (1.0 - rate) / spec.replicates)
    return PowerReport(
        scenario=spec.name,
        replicates=spec.replicates,
        alpha=spec.alpha,
        rejections=rejections,
        rejection_rate=rate,
        standard_error=se,
        ms=ms,
        per_m_rates=per_m / spec.replicates,
    )
