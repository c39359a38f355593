"""Command-line front end, config parsing, and result persistence.

One JSON config document (file or stdin) drives every command; flags
override top-level scalars. Each config section is checked against its
key table (``_section``), so an unknown key is an error, and a command
checks all of its keys and builds its engine objects before any work.
Every output file embeds the resolved configuration and the engine
version, and reruns with an identical (config, seed) pair produce
byte-identical result.json files. Each Monte Carlo stage draws from one random stream,
in shards fixed in code, so ``workers`` changes no result: it only sizes
the thread pools that count the stage-1 shards of ``certify`` (every
input on the same shards) and ``radius``, and that run the (variant, k)
groups of ``pareto``.

Exit codes: 0 success, 1 verification checks failed, 2 config error,
3 classifier transport error; 4 is reserved (once a sampler abort).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import __version__
from .certify import (
    Certificate,
    ConfidenceBudget,
    _check_search,
    certified_radius_search,
    certify,
    cohen_radius,
    gaussian_bilateral_radius,
    teng_radius,
)
from .classifiers import BallIndicator, Classifier, Constant, ExternalClassifier, Halfspace
from .discrepancy import QuadratureGrid, ThreatModel, noise_statistics, worst_delta
from .errors import ConfigError, DomainError, EngineError, TransportError, UnsupportedError
from .families import SmoothingFamily, radius_stats, sample_chunks
from .lab import (
    CurvePoint,
    FamilyGrid,
    ParetoPoint,
    ReconciliationRow,
    ThinShellRow,
    frontier_weakly_dominates,
    gaussian_oracle_reconciliation,
    matched_mean_variance_ratios,
    mean_variance_curve,
    pareto_sweep,
    sweep_groups,
    thin_shell_report,
    worst_delta_grid_check,
)
from .rng import MAX_CHILDREN, SEED_MAX, SEED_MIN, RandomStream

COMMANDS = ("certify", "radius", "sample", "pareto", "verify")
SEED_ENV_VAR = "SMOOTHCERT_SEED"
RADIUS_CAP = 1e12  # radii, coordinates and weights: r^2 and w . x stay finite
MAX_COUNT = 10**9  # draws per stage
MAX_WORKERS = 64
# Up to 1e6 covers image sizes (CIFAR-10 is 3072, ImageNet 150,528) and
# keeps a ``sample_chunks`` shard (at most 4e6 scalars, 32 MB) at 4 rows or more.
MAX_DIM = 10**6
MAX_ITERATIONS = 64  # bisection halvings; 53 already reach double resolution
MAX_BATCH = 10**6  # EVAL rows per request
MAX_TIMEOUT_MS = 86_400_000  # one day
MAX_QUADRATURE_NODES = 2048  # per axis of the verify polar grid (about 0.3 GB at 2048^2)
MAX_INPUTS = 1000
STAGE2_TAG = 1000  # certify's stage-2 stream is root.child(STAGE2_TAG), whatever MAX_INPUTS is


# ---------------------------------------------------------------------------
# key tables


_REQUIRED = object()  # a missing key is an error
_OMIT = object()  # a missing key stays missing, so the engine's own default applies


class Key(NamedTuple):
    """One config key: its kind, its default and, for numbers, its range."""

    kind: str
    default: object = _REQUIRED
    low: float | None = None
    high: float | None = None


def _object(value, where: str) -> dict:
    if value is None:
        raise ConfigError(f"missing required key {where!r}")
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


def _finite(value, where: str) -> float:
    # unlike math.isfinite, this comparison does not raise on an int beyond the float range
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _whole(value, where: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value  # exact: a comparison through float rounds past 2^53
    if _finite(value, where) != int(value):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _vector(value, where: str) -> np.ndarray:
    """A flat list of finite JSON numbers as a float array."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise ConfigError(f"{where} must be a list of finite numbers: {exc}") from exc
    if arr.ndim != 1 or arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where} must be a list of finite numbers, got {value!r}")
    return arr.astype(float)


def _in_range(value, low: float, high: float, where: str):
    """``value``, a number or a vector, with every entry in [low, high]."""
    flat = np.ravel(value)
    outside = flat[(flat < low) | (flat > high)]
    if outside.size:
        raise ConfigError(f"{where} must be in [{low}, {high}], got {outside.tolist()[0]!r}")
    return value


def _of_type(kind: type, what: str) -> Callable:
    def check(value, where: str):
        if not isinstance(value, kind):
            raise ConfigError(f"{where} must be {what}, got {value!r}")
        return value
    return check


def _command(value, where: str) -> list[str]:
    if (not isinstance(value, list) or not value
            or not all(isinstance(s, str) and s and "\0" not in s for s in value)):
        raise ConfigError(f"{where} must be a non-empty list of non-empty strings, got {value!r}")
    return value


_KINDS = {
    "number": _finite,
    "integer": _whole,
    "vector": _vector,
    "list": _of_type(list, "a JSON list"),
    "object": _object,
    "path": _of_type(str, "a path string"),
    "command": _command,
    "any": lambda value, where: value,
}


def _section(section, table: dict[str, Key], where: str) -> dict:
    """``section`` checked against ``table``: the checked value of every key.

    A key not in the table is an error; so is a value of the wrong kind
    or outside its range. A missing key takes its default, except that
    a ``_REQUIRED`` key must be present and an ``_OMIT`` key stays out.
    """
    unknown = set(_object(section, where)) - set(table)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    out = {}
    for key, spec in table.items():
        if key not in section:
            if spec.default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r} in {where}")
            if spec.default is not _OMIT:
                out[key] = spec.default
            continue
        value = out[key] = _KINDS[spec.kind](section[key], f"{where}.{key}")
        if spec.low is not None:
            _in_range(value, spec.low, spec.high, f"{where}.{key}")
    return out


def _build(where: str, make: Callable, *args, **kwargs):
    """``make(*args, **kwargs)``, with an engine rejection as a config error."""
    try:
        return make(*args, **kwargs)
    except EngineError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


_ANY = Key("any")
_NUMBER = Key("number", _OMIT)
_COUNT = Key("integer", 100_000, 1, MAX_COUNT)
_TOP_LEVEL_KEYS = {
    "command": _ANY,
    "seed": Key("integer", _REQUIRED, SEED_MIN, SEED_MAX),
    "workers": Key("integer", _REQUIRED, 1, MAX_WORKERS),
    "out": Key("path"),
    "n": Key("integer", 1000, 1, MAX_COUNT),
    **dict.fromkeys(("family", "threat", "classifier", "inputs", "closed_form"), Key("object", _OMIT)),
    **dict.fromkeys(("counts", "budget", "search", "pareto", "verify"), Key("object", {})),
}
_FAMILY = {"variant": _ANY, "dim": Key("integer", _REQUIRED, 1, MAX_DIM),
           "k": _NUMBER, "sigma": _NUMBER, "b": _NUMBER}
_THREAT = {"norm": _ANY, "radius": Key("number", _REQUIRED, 0.0, RADIUS_CAP)}
_POINT = Key("vector", _REQUIRED, -RADIUS_CAP, RADIUS_CAP)
_BUDGET = {"alpha_total": Key("number", 1e-3), "alpha_p0": _NUMBER, "alpha_mc": _NUMBER}
_COUNTS = {"n1": _COUNT, "n2": _COUNT}
_INPUTS = {"vectors": Key("list", _OMIT), "file": Key("path", _OMIT)}
_CLASSIFIERS = {
    "constant": (Constant, {"label": Key("integer", 1)}),
    "ball": (BallIndicator, {"norm": Key("any", "l2"), "center": _POINT,
                             "radius": Key("number", _REQUIRED, -RADIUS_CAP, RADIUS_CAP)}),
    "halfspace": (Halfspace, {"w": _POINT, "c": Key("number", 0.0, -RADIUS_CAP, RADIUS_CAP)}),
    "external": (ExternalClassifier, {
        "command": Key("command"),
        "batch_size": Key("integer", _OMIT, 1, MAX_BATCH),
        "timeout_ms": Key("integer", _OMIT, 1, MAX_TIMEOUT_MS),
        "dim": Key("integer", _OMIT, 1, MAX_DIM),
    }),
}
_SEARCH = {"norm": Key("any", "l2"), "r_max": Key("number", _OMIT, 0.0, RADIUS_CAP),
           "iterations": Key("integer", _OMIT, 1, MAX_ITERATIONS), "r_step": _NUMBER}
_CLOSED_FORM = {"method": _ANY, "p0": _NUMBER, "pa": _NUMBER, "pb": _NUMBER,
                "sigma": Key("number", 1.0), "b": Key("number", 1.0),
                "cap": Key("number", RADIUS_CAP, 0.0, RADIUS_CAP)}
_CLOSED_FORMS = {
    "cohen": (cohen_radius, ("p0", "sigma")),
    "teng": (teng_radius, ("p0", "b")),
    "bilateral": (gaussian_bilateral_radius, ("pa", "pb", "sigma")),
}
_PARETO = {
    "dim": Key("integer", 5, 1, MAX_DIM),
    "n": _COUNT,
    "truth": Key("object", _OMIT),
    "threat": Key("object", {"norm": "linf", "radius": 0.65}),
    "grids": Key("list", [{"variant": v} for v in ("l2_power_tail", "mixed_norm", "linf_pure")]),
    "x0": Key("vector", _OMIT, -RADIUS_CAP, RADIUS_CAP),
}
_GRID = {"variant": _ANY, "k_values": Key("vector", _OMIT), "scale_values": Key("vector", _OMIT)}
# QuadratureGrid's own floor is 8 nodes per axis
_NODES = Key("integer", _OMIT, 8, MAX_QUADRATURE_NODES)
_VERIFY = {"n": _COUNT, "n_radial": _NODES, "n_angular": _NODES}


# ---------------------------------------------------------------------------
# sections to engine objects


def parse_family(section, where: str = "family") -> SmoothingFamily:
    family = _build(where, SmoothingFamily, **_section(section, _FAMILY, where))
    # Certification configs follow the hyperparameter rule k < d - 1 so
    # the matched-scale relation and radius mode stay finite.
    if family.variant not in ("gaussian", "laplacian") and family.k >= family.dim - 1:
        raise ConfigError(
            f"invalid {where}: power-tail families require k < d - 1 "
            f"(violated: k={family.k} >= d-1={family.dim - 1})"
        )
    return family


def parse_threat(section, where: str = "threat") -> ThreatModel:
    return _build(where, ThreatModel, **_section(section, _THREAT, where))


def parse_budget(section) -> ConfidenceBudget:
    budget = _section(section, _BUDGET, "budget")
    if len(budget) == 2:
        raise ConfigError("budget needs both alpha_p0 and alpha_mc, or neither")
    return _build("budget", ConfidenceBudget if len(budget) == 3 else ConfidenceBudget.split,
                  **budget)


def parse_classifier(section, dim: int | None = None, where: str = "classifier") -> Classifier:
    """The classifier of ``section``; a declared dimension must equal ``dim``."""
    kind = _object(section, where).get("kind")
    if not isinstance(kind, str) or kind not in _CLASSIFIERS:
        raise ConfigError(f"unknown classifier kind {kind!r} in {where}")
    make, table = _CLASSIFIERS[kind]
    values = _section(section, {"kind": _ANY, **table}, where)
    del values["kind"]
    classifier = _build(where, make, **values)
    if dim is not None and classifier.dim not in (None, dim):
        raise ConfigError(f"{where} takes inputs of dim {classifier.dim}, the smoothing dim is {dim}")
    return classifier


def _load_inputs(section, dim: int) -> list[np.ndarray]:
    inputs = _section(section, _INPUTS, "inputs")
    if len(inputs) != 1:
        raise ConfigError("inputs needs exactly one of 'vectors' or 'file'")
    if "vectors" in inputs:
        vectors = inputs["vectors"]
    else:
        try:
            with warnings.catch_warnings():  # an empty file is reported below
                warnings.simplefilter("ignore", UserWarning)
                vectors = np.loadtxt(inputs["file"], delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read inputs.file: {exc}") from exc
    if not 1 <= len(vectors) <= MAX_INPUTS:
        raise ConfigError(f"inputs must hold 1 to {MAX_INPUTS} vectors, got {len(vectors)}")
    rows = [_in_range(_vector(v, f"inputs[{i}]"), -RADIUS_CAP, RADIUS_CAP, f"inputs[{i}]")
            for i, v in enumerate(vectors)]
    for i, row in enumerate(rows):
        if row.shape != (dim,):
            raise ConfigError(f"inputs[{i}] has length {row.shape}, family dim is {dim}")
    return rows


@contextlib.contextmanager
def _writing(path: Path):
    """``path`` open for writing; an OSError while opening or writing it
    is a config error naming it (a directory in its place, a full disk)."""
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path: Path, config: dict, header: list[str], rows: Iterable[list]) -> None:
    with _writing(path) as fh:
        fh.write(f"# engine_version={__version__}\n")
        fh.write(f"# config={json.dumps(config, sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_records(path: Path, config: dict, record_type: type, records: list, **rename) -> None:
    """One CSV column per field of the dataclass ``record_type``, headed by its name or ``rename``."""
    names = [f.name for f in fields(record_type)]
    _write_csv(path, config, [rename.get(name, name) for name in names],
               [[getattr(r, name) for name in names] for r in records])


# ---------------------------------------------------------------------------
# commands: each reads and checks its whole config and builds its engine
# objects, then returns the job that does the work. A job writes its own
# side files to ``out`` and returns (exit code, result.json body, summary.csv
# header, summary.csv rows).

Report = tuple[int, dict, list[str], list[list]]
Job = Callable[[Path, dict], Report]
_CERTIFICATE_HEADER = ["input_id", "p0_lower", "radius", "bound", "certified"]


def _closing(classifier: Classifier, work: Callable):
    """``work()`` with the classifier's subprocess, if it has one, started
    before it and closed after it, whether it returns or raises.

    The worker is spawned before the job draws anything, so its
    interpreter and model start up while the parent draws stage 2 and
    the first stage-1 shard.
    """
    if not isinstance(classifier, ExternalClassifier):
        return work()
    with classifier:
        classifier.start()
        return work()


def _certify(top: dict) -> Job:
    family = parse_family(top.get("family"))
    threat = parse_threat(top.get("threat"))
    _build("threat", worst_delta, threat, family)
    budget = parse_budget(top["budget"])
    counts = _section(top["counts"], _COUNTS, "counts")
    classifier = parse_classifier(top.get("classifier"), family.dim)
    inputs = _load_inputs(top.get("inputs"), family.dim)
    root = RandomStream(top["seed"])

    def all_inputs() -> list[Certificate]:
        # one draw of each stage serves every input: stage 2 on
        # root.child(STAGE2_TAG), stage 1 on root.child(0)
        stats = noise_statistics(family, counts["n2"], root.child(STAGE2_TAG))
        return certify(classifier, inputs, threat, counts["n1"], budget, root.child(0), stats,
                       input_ids=[f"input{idx}" for idx in range(len(inputs))],
                       workers=top["workers"])

    def job(out: Path, config: dict) -> Report:
        certs = _closing(classifier, all_inputs)
        return 0, {"certificates": [c.to_dict() for c in certs]}, _CERTIFICATE_HEADER, [
            [c.input_id, c.p0_lower, c.threat.radius, c.bound, c.certified] for c in certs
        ]
    return job


def _closed_form_radius(section) -> Job:
    values = _section(section, _CLOSED_FORM, "closed_form")
    method = values["method"]
    if not isinstance(method, str) or method not in _CLOSED_FORMS:
        raise ConfigError(f"unknown closed_form method {method!r}")
    formula, params = _CLOSED_FORMS[method]
    for key in params:
        if key not in values:
            raise ConfigError(f"missing required key {key!r} in closed_form")
    value = _build("closed_form", formula, **{key: values[key] for key in params})
    cap = values["cap"]  # every formula saturates to +-inf
    clamped = min(cap, max(-cap, value))  # max keeps -cap = -0.0 at a tie with 0.0
    body = {"method": method, "radius": clamped, "certified": clamped > 0.0,
            "saturated": abs(value) >= cap}
    return lambda out, config: (0, body, list(body), [list(body.values())])


def _radius(top: dict) -> Job:
    if "closed_form" in top:
        return _closed_form_radius(top["closed_form"])
    family = parse_family(top.get("family"))
    search = _section(top["search"], _SEARCH, "search")
    norm = search.pop("norm")
    r_max = search.pop("r_max", 4.0 * family.scale)
    _build("search", _check_search, r_max, **search)
    _build("search.norm", lambda: worst_delta(ThreatModel(norm, r_max), family))
    budget = parse_budget(top["budget"])
    counts = _section(top["counts"], _COUNTS, "counts")
    classifier = parse_classifier(top.get("classifier"), family.dim)
    # the search certifies the first input only
    x0 = _load_inputs(top.get("inputs"), family.dim)[0]
    root = RandomStream(top["seed"])

    def job(out: Path, config: dict) -> Report:
        radius, cert = _closing(classifier, lambda: certified_radius_search(
            classifier, x0, norm, r_max, counts["n1"], budget, root,
            noise_statistics(family, counts["n2"], root.child(1)), **search,
            workers=top["workers"],
        ))
        body = {"radius": radius, "certified": radius > 0.0,
                "certificate": cert.to_dict() if cert is not None else None}
        return 0, body, _CERTIFICATE_HEADER, [["input0", cert.p0_lower if cert else 0.0, radius,
                                                cert.bound if cert else 0.0, radius > 0.0]]
    return job


def _sample(top: dict) -> Job:
    family = parse_family(top.get("family"))
    n = top["n"]

    def job(out: Path, config: dict) -> Report:
        moments = []  # (rows, mean, sum of squared deviations) of each block's l2 norms

        def rows():
            for block in sample_chunks(family, n, RandomStream(top["seed"])):
                norms = np.linalg.norm(block, axis=1)
                mean = norms.mean()
                moments.append((len(norms), float(mean), float(np.square(norms - mean).sum())))
                yield from (row.tolist() for row in block)

        _write_csv(out / "samples.csv", config, [f"z{i}" for i in range(family.dim)], rows())
        count, mean, m2 = moments[0]
        for m, block_mean, block_m2 in moments[1:]:  # Chan et al.'s pairwise update
            delta = block_mean - mean
            mean += delta * m / (count + m)
            m2 += block_m2 + delta * delta * count * m / (count + m)
            count += m
        body: dict = {"n": n}
        try:
            stats = radius_stats(family)
            body["radius_stats"] = {
                "mode": stats.mode, "mean": stats.mean, "variance": stats.variance,
            }
        except EngineError:
            body["radius_stats"] = None
        return 0, body, ["n", "l2_norm_mean", "l2_norm_std"], [[n, mean, math.sqrt(m2 / n)]]
    return job


def _pareto(top: dict) -> Job:
    section = _section(top["pareto"], _PARETO, "pareto")
    dim, n = section["dim"], section["n"]
    truth = (parse_classifier(section["truth"], dim, "pareto.truth") if "truth" in section
             else BallIndicator("l2", np.zeros(dim), 0.65))
    threat = parse_threat(section["threat"], "pareto.threat")
    x0 = section.get("x0", np.zeros(dim))
    if x0.shape != (dim,):
        raise ConfigError(f"pareto.x0 has length {x0.shape}, pareto.dim is {dim}")
    grids, groups = [], []
    for i, g in enumerate(section["grids"]):
        grid = _section(g, _GRID, f"pareto.grids[{i}]")
        k_values = grid.get("k_values", np.linspace(0.0, min(3.5, dim - 1.5), 8))
        scale_values = grid.get("scale_values", np.geomspace(0.05, 2.0, 10))
        grids.append(FamilyGrid(grid["variant"], tuple(k_values.tolist()),
                                tuple(scale_values.tolist())))
        groups += _build(f"pareto.grids[{i}]", sweep_groups, grids[-1:], dim)
    if len(groups) > MAX_CHILDREN:  # each (variant, k) group draws on one child stream
        raise ConfigError(f"pareto.grids has {len(groups)} (variant, k) groups, at most {MAX_CHILDREN}")
    for family, _, _ in groups:
        _build("pareto.threat", worst_delta, threat, family)

    def job(out: Path, config: dict) -> Report:
        points = _closing(truth, lambda: pareto_sweep(
            truth, x0, threat, grids, dim, n, RandomStream(top["seed"]), workers=top["workers"]))
        _write_records(out / "pareto.csv", config, ParetoPoint, points)
        body = {"points": [asdict(p) for p in points]}
        variants = {p.variant for p in points}
        if "mixed_norm" in variants:
            dominance = {}
            for other in sorted(variants - {"mixed_norm"}):
                ok, margin = frontier_weakly_dominates(points, "mixed_norm", other)
                dominance[other] = {"dominated": ok,
                                    "worst_margin": margin if math.isfinite(margin) else repr(margin)}
            body["mixed_norm_dominance"] = dominance
        return 0, body, ["variant", "points", "frontier_points"], [
            [v,
             sum(1 for p in points if p.variant == v),
             sum(1 for p in points if p.variant == v and p.on_frontier)]
            for v in sorted(variants)
        ]
    return job


def _verify(top: dict) -> Job:
    section = _section(top["verify"], _VERIFY, "verify")
    n = section.pop("n")
    quad = _build("verify", QuadratureGrid, **section)
    root = RandomStream(top["seed"])

    def job(out: Path, config: dict) -> Report:
        checks: dict[str, bool] = {}

        shell = thin_shell_report((1, 10, 100, 1000), n, root.child(0))
        _write_records(out / "thin_shell.csv", config, ThinShellRow, shell)
        by_dim = {r.dim: r for r in shell}
        checks["thin_shell_gaussian_d1000"] = by_dim[1000].gauss_fraction >= 0.99
        checks["thin_shell_laplacian_d1000"] = by_dim[1000].laplace_fraction >= 0.95
        checks["thin_shell_no_concentration_d1"] = (
            by_dim[1].gauss_fraction_relative < 0.5
            and by_dim[1].laplace_fraction_relative < 0.5
        )

        _write_records(out / "mean_variance.csv", config, CurvePoint, mean_variance_curve())
        k_star, ratio_k, ratio_sigma = matched_mean_variance_ratios()
        checks["mean_variance_k_beats_sigma"] = ratio_k > ratio_sigma

        triples = [(1.0, 2.0, 1.0), (1.0, 0.5, 1.0), (1.0, 1.0, 0.5),
                   (0.5, 0.5, 2.0), (2.0, 1.0, 1.0), (1.0, 1.0, 2.0)]
        recon = gaussian_oracle_reconciliation(
            triples, max(n, 10_000), 1e-3, root.child(1), quad_grid=quad
        )
        _write_records(out / "reconciliation.csv", config, ReconciliationRow, recon, lam="lambda")
        checks["oracle_reconciliation"] = all(r.mc_ok and r.quad_ok and r.pair_ok for r in recon)

        wd_rows = []
        wd_ok = True
        for family, threat in (
            (SmoothingFamily.l2_power_tail(2, 0.5, 1.0), ThreatModel("l2", 0.8)),
            (SmoothingFamily.laplacian(2, 1.0), ThreatModel("l1", 0.8)),
            (SmoothingFamily.mixed_norm(2, 0.5, 1.0), ThreatModel("linf", 0.6)),
        ):
            for check in worst_delta_grid_check(family, threat, (0.5, 1.0, 2.0), quad_grid=quad):
                wd_ok = wd_ok and check.passed
                wd_rows.append([family.variant, threat.norm, check.lam, check.star_value,
                                check.max_value, check.interior_max, check.boundary_spread,
                                check.passed])
        _write_csv(out / "worst_delta.csv", config,
                   ["family", "threat", "lambda", "star_value", "max_value",
                    "interior_max", "boundary_spread", "passed"],
                   wd_rows)
        checks["worst_delta_theorems"] = wd_ok

        body = {"checks": checks, "k_star": k_star,
                "variance_ratio_k": ratio_k, "variance_ratio_sigma": ratio_sigma}
        return (0 if all(checks.values()) else 1), body, ["check", "passed"], [
            [name, ok] for name, ok in sorted(checks.items())
        ]
    return job


_COMMANDS: dict[str, Callable[[dict], Job]] = {
    "certify": _certify,
    "radius": _radius,
    "sample": _sample,
    "pareto": _pareto,
    "verify": _verify,
}


def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return 0


def run(config: dict) -> int:
    """Execute a config; returns the process exit code.

    ``seed`` defaults to ``SMOOTHCERT_SEED`` (else 0), which is read
    only when no seed is given, ``workers`` to the CPU count and ``out``
    to ``smoothcert-out``. The whole config is checked before any work
    starts.
    """
    cfg = {
        "workers": min(os.cpu_count() or 1, MAX_WORKERS),
        "out": "smoothcert-out",
        **_object(config, "config"),
    }
    if "seed" not in cfg:
        cfg["seed"] = _default_seed()
    command = cfg.get("command")
    if not isinstance(command, str) or command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}, got {command!r}")
    top = _section(cfg, _TOP_LEVEL_KEYS, "config")
    job = _COMMANDS[command](top)
    out = Path(top["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot create out directory {top['out']!r}: {exc}") from exc
    # the echoed config is the document as given, with the checked seed and workers
    config = {**cfg, "seed": top["seed"], "workers": top["workers"]}
    code, body, header, rows = job(out, config)
    result = {"engine_version": __version__, "config": config, **body}
    with _writing(out / "result.json") as fh:
        fh.write(json.dumps(result, sort_keys=True, indent=2) + "\n")
    _write_csv(out / "summary.csv", config, header, rows)
    return code


# ---------------------------------------------------------------------------
# argument parsing

# flag -> (argparse keywords, config path it sets); the second table is radius-only
_FLAGS = {
    "--seed": ({"type": int}, ("seed",)),
    "--out": ({}, ("out",)),
    "--workers": ({"type": int}, ("workers",)),
    "--n1": ({"type": int}, ("counts", "n1")),
    "--n2": ({"type": int}, ("counts", "n2")),
    "--alpha": ({"type": float}, ("budget", "alpha_total")),
    "--n": ({"type": int}, ("n",)),
}
_RADIUS_FLAGS = {
    "--closed-form": ({"choices": list(_CLOSED_FORMS)}, ("closed_form", "method")),
    **{f"--{key}": ({"type": float}, ("closed_form", key)) for key in ("p0", "sigma", "b", "pa", "pb")},
}


def _load_config_document(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
        doc = json.loads(text)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer of more than 4300 digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


def _resolve(command: str, args: argparse.Namespace) -> dict:
    """The config document with the command and every given flag merged in."""
    cfg = _load_config_document(args.config)
    if "command" in cfg and cfg["command"] != command:
        raise ConfigError(
            f"config command {cfg['command']!r} does not match subcommand {command!r}"
        )
    cfg["command"] = command
    flags = {**_FLAGS, **(_RADIUS_FLAGS if command == "radius" else {})}
    for flag, (_, path) in flags.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        if len(path) == 1:
            cfg[path[0]] = value
        else:
            section = cfg[path[0]] = dict(_object(cfg.get(path[0], {}), path[0]))
            section[path[1]] = value
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="smoothcert",
                                     description="Randomized-smoothing certification engine")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file path, or '-' for stdin")
        for flag, (kwargs, _) in {**_FLAGS, **(_RADIUS_FLAGS if name == "radius" else {})}.items():
            p.add_argument(flag, **kwargs)
    args = parser.parse_args(argv)
    try:
        return run(_resolve(args.command, args))
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, DomainError, UnsupportedError) as exc:
        # invalid parameter combinations surface as config errors
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
