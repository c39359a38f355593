"""Command-line front end, config parsing, and result persistence.

One JSON config document (file or stdin) drives every command; flags
override top-level scalars. Parsing is strict: any unknown key is an
error, never silently ignored. Every output file embeds the fully
resolved configuration and the engine version, and reruns with an
identical (config, seed) pair produce byte-identical result.json files.
Each Monte Carlo stage draws from one random stream, so ``workers``
changes no result: it only sizes the thread pools that run the inputs
of ``certify`` and the configurations of ``pareto``.

Exit codes: 0 success, 1 verification checks failed, 2 config error,
3 classifier transport error; 4 is reserved (once a sampler abort).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .certify import (
    Certificate,
    ConfidenceBudget,
    certified_radius_search,
    certify,
    cohen_radius,
    gaussian_bilateral_radius,
    teng_radius,
)
from .classifiers import (
    BallIndicator,
    Classifier,
    Constant,
    ExternalClassifier,
    Halfspace,
)
from .discrepancy import QuadratureGrid, ThreatModel
from .errors import (
    ConfigError,
    DomainError,
    EngineError,
    TransportError,
    UnsupportedError,
)
from .families import SmoothingFamily, radius_stats, sample
from .lab import (
    FamilyGrid,
    frontier_weakly_dominates,
    gaussian_oracle_reconciliation,
    matched_mean_variance_ratios,
    mean_variance_curve,
    pareto_sweep,
    thin_shell_report,
    worst_delta_grid_check,
)
from .rng import RandomStream

COMMANDS = ("certify", "radius", "sample", "pareto", "verify")
SEED_ENV_VAR = "SMOOTHCERT_SEED"
RADIUS_CAP = 1e12
MAX_COUNT = 10**9  # draws per stage
MAX_WORKERS = 64
# Up to 1e6 covers image sizes (CIFAR-10 is 3072, ImageNet 150,528) and
# keeps one ``sample_chunks`` block at its fixed 4e6 scalars (32 MB).
MAX_DIM = 10**6
MAX_ITERATIONS = 64  # bisection halvings; 53 already reach double resolution
MAX_BATCH = 10**6  # EVAL rows per request
MAX_TIMEOUT_MS = 86_400_000  # one day
MAX_QUADRATURE_NODES = 2048  # per axis of the verify polar grid (about 0.3 GB at 2048^2)


# ---------------------------------------------------------------------------
# strict config parsing


def _object(section, where: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    return section


def _strict(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(_object(section, where)) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _require(section: dict, key: str, where: str):
    if key not in _object(section, where):
        raise ConfigError(f"missing required key {key!r} in {where}")
    return section[key]


_REQUIRED = object()


def _number(section: dict, key: str, where: str, default=_REQUIRED, integer: bool = False):
    """section[key] as a finite float (an int if ``integer``).

    A missing key gives ``default``, or a ``ConfigError`` when there is
    none; so does anything but a JSON number (strings included).
    """
    if key not in _object(section, where) and default is not _REQUIRED:
        return default
    value = _require(section, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")
    if integer:
        if value != int(value):
            raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _integer(section: dict, key: str, where: str, default, low: int, high: int):
    """section[key] as an integer in [low, high] (a None default passes through)."""
    value = _number(section, key, where, default, integer=True)
    if value is not None and not low <= value <= high:
        raise ConfigError(f"{where}.{key} must be in [{low}, {high}], got {value!r}")
    return value


def _count(section: dict, key: str, where: str, default: int) -> int:
    """section[key] as a sample count in [1, MAX_COUNT]."""
    return _integer(section, key, where, default, 1, MAX_COUNT)


def _vector(value, where: str) -> np.ndarray:
    """A flat list of finite JSON numbers as a float array."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise ConfigError(f"{where} must be a list of finite numbers: {exc}") from exc
    if arr.ndim != 1 or arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where} must be a list of finite numbers, got {value!r}")
    return arr.astype(float)


def parse_family(section: dict, where: str = "family") -> SmoothingFamily:
    _strict(section, {"variant", "dim", "k", "sigma", "b"}, where)
    variant = _require(section, "variant", where)
    dim = _integer(section, "dim", where, _REQUIRED, 1, MAX_DIM)
    k = _number(section, "k", where, 0.0)
    try:
        family = SmoothingFamily(
            variant=variant,
            dim=dim,
            k=k,
            sigma=_number(section, "sigma", where, None),
            b=_number(section, "b", where, None),
        )
    except EngineError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc
    # Certification configs follow the hyperparameter rule k < d - 1 so
    # the matched-scale relation and radius mode stay finite.
    if family.variant != "gaussian" and family.variant != "laplacian":
        if k >= dim - 1:
            raise ConfigError(
                f"invalid {where}: power-tail families require k < d - 1 "
                f"(violated: k={k} >= d-1={dim - 1})"
            )
    return family


def parse_threat(section: dict, where: str = "threat") -> ThreatModel:
    _strict(section, {"norm", "radius"}, where)
    try:
        return ThreatModel(
            norm=_require(section, "norm", where),
            radius=_number(section, "radius", where),
        )
    except EngineError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def parse_budget(section: dict) -> ConfidenceBudget:
    _strict(section, {"alpha_total", "alpha_p0", "alpha_mc"}, "budget")
    alpha_total = _number(section, "alpha_total", "budget", 1e-3)
    try:
        if "alpha_p0" in section or "alpha_mc" in section:
            return ConfidenceBudget(
                alpha_total=alpha_total,
                alpha_p0=_number(section, "alpha_p0", "budget"),
                alpha_mc=_number(section, "alpha_mc", "budget"),
            )
        return ConfidenceBudget.split(alpha_total)
    except EngineError as exc:
        raise ConfigError(f"invalid budget: {exc}") from exc


def parse_classifier(section: dict, where: str = "classifier") -> Classifier:
    kind = _require(section, "kind", where)
    try:
        if kind == "constant":
            _strict(section, {"kind", "label"}, where)
            return Constant(label=_number(section, "label", where, 1, integer=True))
        if kind == "ball":
            _strict(section, {"kind", "norm", "center", "radius"}, where)
            return BallIndicator(
                norm=section.get("norm", "l2"),
                center=_vector(_require(section, "center", where), f"{where}.center"),
                radius=_number(section, "radius", where),
            )
        if kind == "halfspace":
            _strict(section, {"kind", "w", "c"}, where)
            return Halfspace(
                w=_vector(_require(section, "w", where), f"{where}.w"),
                c=_number(section, "c", where, 0.0),
            )
        if kind == "external":
            _strict(section, {"kind", "command", "batch_size", "timeout_ms", "dim"}, where)
            return ExternalClassifier(
                command=_require(section, "command", where),
                batch_size=_integer(section, "batch_size", where, 1024, 1, MAX_BATCH),
                timeout_ms=_integer(section, "timeout_ms", where, 30_000, 1, MAX_TIMEOUT_MS),
                dim=_integer(section, "dim", where, None, 1, MAX_DIM),
            )
    except EngineError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc
    raise ConfigError(f"unknown classifier kind {kind!r} in {where}")


def _load_inputs(section: dict, dim: int) -> list[np.ndarray]:
    _strict(section, {"vectors", "file"}, "inputs")
    if ("vectors" in section) == ("file" in section):
        raise ConfigError("inputs needs exactly one of 'vectors' or 'file'")
    if "vectors" in section:
        vectors = section["vectors"]
        if not isinstance(vectors, list):
            raise ConfigError(f"inputs.vectors must be a list, got {vectors!r}")
    else:
        try:
            vectors = np.loadtxt(section["file"], delimiter=",", ndmin=2)
        except (OSError, ValueError, TypeError) as exc:
            raise ConfigError(f"cannot read inputs.file: {exc}") from exc
    rows = [_vector(v, f"inputs[{i}]") for i, v in enumerate(vectors)]
    for i, row in enumerate(rows):
        if row.shape != (dim,):
            raise ConfigError(f"inputs[{i}] has length {row.shape}, family dim is {dim}")
    if not rows:
        raise ConfigError("inputs is empty")
    if len(rows) > 1000:
        raise ConfigError("at most 1000 inputs per run")
    return rows


# ---------------------------------------------------------------------------
# output helpers


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, config: dict, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# engine_version={__version__}\n")
        fh.write(f"# config={json.dumps(config, sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _result_payload(config: dict, body: dict) -> dict:
    return {"engine_version": __version__, "config": config, **body}


def _json_safe(value: float) -> float | str:
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


# ---------------------------------------------------------------------------
# command implementations


def _certificate_rows(certs: list[Certificate]) -> list[list]:
    return [
        [c.input_id, c.p0_lower, c.threat.radius, c.bound, c.certified]
        for c in certs
    ]


def _counts(cfg: dict) -> tuple[int, int]:
    counts = cfg.get("counts", {})
    _strict(counts, {"n1", "n2"}, "counts")
    return _count(counts, "n1", "counts", 100_000), _count(counts, "n2", "counts", 100_000)


def _run_certify(cfg: dict, out: Path) -> int:
    family = parse_family(_require(cfg, "family", "config"))
    threat = parse_threat(_require(cfg, "threat", "config"))
    budget = parse_budget(cfg.get("budget", {}))
    n1, n2 = _counts(cfg)
    classifier = parse_classifier(_require(cfg, "classifier", "config"))
    inputs = _load_inputs(_require(cfg, "inputs", "config"), family.dim)
    root = RandomStream(cfg["seed"])
    workers = cfg["workers"]

    def one(idx_x0: tuple[int, np.ndarray]) -> Certificate:
        idx, x0 = idx_x0
        return certify(
            classifier, x0, family, threat, n1, n2, budget, root.child(idx),
            input_id=f"input{idx}",
        )

    try:
        # the external adapter is single-threaded per connection, so it
        # never enters the thread pool
        if workers > 1 and len(inputs) > 1 and not isinstance(classifier, ExternalClassifier):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                certs = list(pool.map(one, enumerate(inputs)))
        else:
            certs = [one(pair) for pair in enumerate(inputs)]
    finally:
        if isinstance(classifier, ExternalClassifier):
            classifier.close()

    _write_json(out / "result.json", _result_payload(cfg, {
        "certificates": [c.to_dict() for c in certs],
    }))
    _write_csv(
        out / "summary.csv", cfg,
        ["input_id", "p0_lower", "radius", "bound", "certified"],
        _certificate_rows(certs),
    )
    return 0


def _closed_form_radius(section: dict) -> dict:
    _strict(section, {"method", "p0", "pa", "pb", "sigma", "b", "cap"}, "closed_form")
    method = _require(section, "method", "closed_form")
    cap = _number(section, "cap", "closed_form", RADIUS_CAP)
    if method == "cohen":
        value = cohen_radius(_number(section, "p0", "closed_form"),
                             _number(section, "sigma", "closed_form", 1.0))
    elif method == "teng":
        value = teng_radius(_number(section, "p0", "closed_form"),
                            _number(section, "b", "closed_form", 1.0), cap=cap)
    elif method == "bilateral":
        value = gaussian_bilateral_radius(
            _number(section, "pa", "closed_form"),
            _number(section, "pb", "closed_form"),
            _number(section, "sigma", "closed_form", 1.0),
        )
    else:
        raise ConfigError(f"unknown closed_form method {method!r}")
    saturated = not math.isfinite(value) or abs(value) >= cap
    clamped = max(-cap, min(cap, value if math.isfinite(value) else math.copysign(cap, value)))
    return {
        "method": method,
        "radius": clamped,
        "certified": clamped > 0.0,
        "saturated": saturated,
    }


def _run_radius(cfg: dict, out: Path) -> int:
    if "closed_form" in cfg:
        body = _closed_form_radius(cfg["closed_form"])
        _write_json(out / "result.json", _result_payload(cfg, body))
        _write_csv(out / "summary.csv", cfg,
                   ["method", "radius", "certified", "saturated"],
                   [[body["method"], body["radius"], body["certified"], body["saturated"]]])
        return 0
    family = parse_family(_require(cfg, "family", "config"))
    search = cfg.get("search", {})
    _strict(search, {"norm", "r_max", "iterations", "r_step"}, "search")
    r_max = _number(search, "r_max", "search", 4.0 * family.scale)
    iterations = _integer(search, "iterations", "search", 12, 1, MAX_ITERATIONS)
    r_step = _number(search, "r_step", "search", None)
    budget = parse_budget(cfg.get("budget", {}))
    n1, n2 = _counts(cfg)
    classifier = parse_classifier(_require(cfg, "classifier", "config"))
    inputs = _load_inputs(_require(cfg, "inputs", "config"), family.dim)
    try:
        radius, cert = certified_radius_search(
            classifier, inputs[0], family,
            search.get("norm", "l2"),
            r_max,
            n1,
            n2,
            budget,
            RandomStream(cfg["seed"]),
            iterations=iterations,
            r_step=r_step,
        )
    finally:
        if isinstance(classifier, ExternalClassifier):
            classifier.close()
    body = {
        "radius": radius,
        "certified": radius > 0.0,
        "certificate": cert.to_dict() if cert is not None else None,
    }
    _write_json(out / "result.json", _result_payload(cfg, body))
    _write_csv(out / "summary.csv", cfg,
               ["input_id", "p0_lower", "radius", "bound", "certified"],
               [["input0",
                 cert.p0_lower if cert else 0.0,
                 radius,
                 cert.bound if cert else 0.0,
                 radius > 0.0]])
    return 0


def _run_sample(cfg: dict, out: Path) -> int:
    family = parse_family(_require(cfg, "family", "config"))
    n = _count(cfg, "n", "config", 1000)
    batch = sample(family, n, RandomStream(cfg["seed"]))
    batch.to_csv(out / "samples.csv")
    body: dict = {
        "n": n,
        "acceptance_rate": batch.acceptance_rate,
    }
    try:
        stats = radius_stats(family)
        body["radius_stats"] = {
            "mode": stats.mode, "mean": stats.mean, "variance": stats.variance,
        }
    except EngineError:
        body["radius_stats"] = None
    _write_json(out / "result.json", _result_payload(cfg, body))
    norms = np.linalg.norm(batch.points, axis=1)
    _write_csv(out / "summary.csv", cfg,
               ["n", "l2_norm_mean", "l2_norm_std"],
               [[n, float(norms.mean()), float(norms.std())]])
    return 0


def _run_pareto(cfg: dict, out: Path) -> int:
    section = cfg.get("pareto", {})
    _strict(section, {"dim", "n", "truth", "threat", "grids", "x0"}, "pareto")
    dim = _integer(section, "dim", "pareto", 5, 1, MAX_DIM)
    n = _count(section, "n", "pareto", 100_000)
    truth = parse_classifier(section.get("truth", {"kind": "ball", "norm": "l2",
                                                   "center": [0.0] * dim, "radius": 0.65}),
                             where="pareto.truth")
    threat = parse_threat(section.get("threat", {"norm": "linf", "radius": 0.65}),
                          where="pareto.threat")
    x0 = _vector(section.get("x0", [0.0] * dim), "pareto.x0")
    grids = []
    default_grids = [
        {"variant": "l2_power_tail"},
        {"variant": "mixed_norm"},
        {"variant": "linf_pure"},
    ]
    for g in section.get("grids", default_grids):
        _strict(g, {"variant", "k_values", "scale_values"}, "pareto.grids[]")
        k_default = np.linspace(0.0, min(3.5, dim - 1.5), 8)
        s_default = np.geomspace(0.05, 2.0, 10)
        k_values = _vector(g.get("k_values", k_default), "pareto.grids[].k_values")
        scale_values = _vector(g.get("scale_values", s_default), "pareto.grids[].scale_values")
        grids.append(FamilyGrid(
            variant=_require(g, "variant", "pareto.grids[]"),
            k_values=tuple(k_values.tolist()),
            scale_values=tuple(scale_values.tolist()),
        ))
    points = pareto_sweep(
        truth, x0, threat, grids, dim, n, RandomStream(cfg["seed"]),
        workers=cfg["workers"],
    )
    rows = [
        [p.variant, p.k, p.scale, p.accuracy, p.accuracy_se,
         p.robustness, p.robustness_se, p.on_frontier]
        for p in points
    ]
    _write_csv(out / "pareto.csv", cfg,
               ["variant", "k", "scale", "accuracy", "accuracy_se",
                "robustness", "robustness_se", "on_frontier"],
               rows)
    body = {"points": [
        {"variant": p.variant, "k": p.k, "scale": p.scale,
         "accuracy": p.accuracy, "accuracy_se": p.accuracy_se,
         "robustness": p.robustness, "robustness_se": p.robustness_se,
         "on_frontier": p.on_frontier}
        for p in points
    ]}
    variants = {p.variant for p in points}
    if "mixed_norm" in variants:
        dominance = {}
        for other in sorted(variants - {"mixed_norm"}):
            ok, margin = frontier_weakly_dominates(points, "mixed_norm", other)
            dominance[other] = {"dominated": ok, "worst_margin": _json_safe(margin)}
        body["mixed_norm_dominance"] = dominance
    _write_json(out / "result.json", _result_payload(cfg, body))
    _write_csv(out / "summary.csv", cfg,
               ["variant", "points", "frontier_points"],
               [[v,
                 sum(1 for p in points if p.variant == v),
                 sum(1 for p in points if p.variant == v and p.on_frontier)]
                for v in sorted(variants)])
    return 0


def _run_verify(cfg: dict, out: Path) -> int:
    section = cfg.get("verify", {})
    _strict(section, {"n", "n_radial", "n_angular"}, "verify")
    n = _count(section, "n", "verify", 100_000)
    quad = QuadratureGrid(
        n_radial=_integer(section, "n_radial", "verify", 768, 1, MAX_QUADRATURE_NODES),
        n_angular=_integer(section, "n_angular", "verify", 1280, 1, MAX_QUADRATURE_NODES),
    )
    root = RandomStream(cfg["seed"])
    checks: dict[str, bool] = {}

    shell = thin_shell_report((1, 10, 100, 1000), n, root.child(0))
    _write_csv(out / "thin_shell.csv", cfg,
               ["dim", "gauss_fraction", "gauss_fraction_relative",
                "laplace_fraction", "laplace_fraction_relative"],
               [[r.dim, r.gauss_fraction, r.gauss_fraction_relative,
                 r.laplace_fraction, r.laplace_fraction_relative] for r in shell])
    by_dim = {r.dim: r for r in shell}
    checks["thin_shell_gaussian_d1000"] = by_dim[1000].gauss_fraction >= 0.99
    checks["thin_shell_laplacian_d1000"] = by_dim[1000].laplace_fraction >= 0.95
    checks["thin_shell_no_concentration_d1"] = (
        by_dim[1].gauss_fraction_relative < 0.5
        and by_dim[1].laplace_fraction_relative < 0.5
    )

    curve = mean_variance_curve()
    _write_csv(out / "mean_variance.csv", cfg,
               ["curve", "parameter", "mean", "variance"],
               [[c.curve, c.parameter, c.mean, c.variance] for c in curve])
    k_star, ratio_k, ratio_sigma = matched_mean_variance_ratios()
    checks["mean_variance_k_beats_sigma"] = ratio_k > ratio_sigma

    triples = [(1.0, 2.0, 1.0), (1.0, 0.5, 1.0), (1.0, 1.0, 0.5),
               (0.5, 0.5, 2.0), (2.0, 1.0, 1.0), (1.0, 1.0, 2.0)]
    recon = gaussian_oracle_reconciliation(
        triples, max(n, 10_000), 1e-3, root.child(1), quad_grid=quad
    )
    _write_csv(out / "reconciliation.csv", cfg,
               ["sigma", "r", "lambda", "closed", "mc_mean", "mc_epsilon",
                "mc_std_error", "quadrature", "mc_ok", "quad_ok", "pair_ok"],
               [[r.sigma, r.r, r.lam, r.closed, r.mc_mean, r.mc_epsilon,
                 r.mc_std_error, r.quadrature, r.mc_ok, r.quad_ok, r.pair_ok]
                for r in recon])
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
    _write_csv(out / "worst_delta.csv", cfg,
               ["family", "threat", "lambda", "star_value", "max_value",
                "interior_max", "boundary_spread", "passed"],
               wd_rows)
    checks["worst_delta_theorems"] = wd_ok

    _write_json(out / "result.json", _result_payload(cfg, {"checks": checks,
                                                           "k_star": k_star,
                                                           "variance_ratio_k": ratio_k,
                                                           "variance_ratio_sigma": ratio_sigma}))
    _write_csv(out / "summary.csv", cfg, ["check", "passed"],
               [[name, ok] for name, ok in sorted(checks.items())])
    return 0 if all(checks.values()) else 1


_RUNNERS = {
    "certify": _run_certify,
    "radius": _run_radius,
    "sample": _run_sample,
    "pareto": _run_pareto,
    "verify": _run_verify,
}

_TOP_LEVEL_KEYS = {
    "command", "seed", "workers", "out", "n",
    "family", "threat", "counts", "budget", "classifier",
    "inputs", "closed_form", "search", "pareto", "verify",
}


def run(config: dict) -> int:
    """Execute a fully resolved config; returns the process exit code."""
    command = config.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}, got {command!r}")
    _strict(config, _TOP_LEVEL_KEYS, "config")
    out = config.get("out", "smoothcert-out")
    if not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[command](config, out)


# ---------------------------------------------------------------------------
# argument parsing


def _load_config_document(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
        doc = json.loads(text)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return 0


def _resolve(command: str, args: argparse.Namespace) -> dict:
    cfg = _load_config_document(args.config)
    if "command" in cfg and cfg["command"] != command:
        raise ConfigError(
            f"config command {cfg['command']!r} does not match subcommand {command!r}"
        )
    cfg["command"] = command
    if args.seed is not None:
        cfg["seed"] = args.seed
    cfg.setdefault("seed", _default_seed())
    cfg["seed"] = _number(cfg, "seed", "config", integer=True)
    if args.out is not None:
        cfg["out"] = args.out
    cfg.setdefault("out", "smoothcert-out")
    if args.workers is not None:
        cfg["workers"] = args.workers
    cfg.setdefault("workers", min(os.cpu_count() or 1, MAX_WORKERS))
    cfg["workers"] = _number(cfg, "workers", "config", integer=True)
    if not 1 <= cfg["workers"] <= MAX_WORKERS:
        raise ConfigError(f"workers must be in [1, {MAX_WORKERS}], got {cfg['workers']}")

    for name, path in (("n1", ("counts", "n1")), ("n2", ("counts", "n2")),
                       ("alpha", ("budget", "alpha_total"))):
        value = getattr(args, name, None)
        if value is not None:
            section = dict(cfg.get(path[0], {}))
            section[path[1]] = value
            cfg[path[0]] = section
    if getattr(args, "n", None) is not None:
        cfg["n"] = args.n
    if command == "radius" and getattr(args, "closed_form", None) is not None:
        section = dict(cfg.get("closed_form", {}))
        section["method"] = args.closed_form
        for key in ("p0", "sigma", "b", "pa", "pb"):
            value = getattr(args, key, None)
            if value is not None:
                section[key] = value
        cfg["closed_form"] = section
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="smoothcert",
        description="Randomized-smoothing certification engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file path, or '-' for stdin")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--workers", type=int)
        p.add_argument("--n1", type=int)
        p.add_argument("--n2", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--n", type=int)
        if name == "radius":
            p.add_argument("--closed-form", dest="closed_form",
                           choices=["cohen", "teng", "bilateral"])
            p.add_argument("--p0", type=float)
            p.add_argument("--sigma", type=float)
            p.add_argument("--b", type=float)
            p.add_argument("--pa", type=float)
            p.add_argument("--pb", type=float)
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args.command, args)
        return run(cfg)
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, DomainError, UnsupportedError) as exc:
        # invalid parameter combinations surface as config errors
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
