"""The four benchmark workloads: configs made from the seed, and checks.

An *op* is one ``smoothcert.cli.run(config)`` call; an *item* is the
unit of work inside it (a certificate, a radius, a sweep point). Op
``i`` of a run with seed ``s`` is built from ``default_rng([s, i])``
alone, so a traced and an untraced run see the same configs, and no
two ops repeat a config (a cache keyed on the config would only ever
miss).

Inputs are stratified by how far they sit from the classifier's
decision boundary, so every op of a workload does the same kind of
work and the outcome mix (certified, not certified, abstain) is fixed
by design rather than by luck.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
EVAL_WORKER = ROOT / "src" / "smoothcert" / "eval_worker.py"
WORKERS = 2

# Statistical checks: a correct engine misses each one with probability
# at most q. A run fails them only when the number of misses is this
# improbable under that rate.
FALSE_ALARM = 1e-6
FOUR_SE = math.erfc(4.0 / math.sqrt(2.0))  # two-sided normal tail beyond 4 SE
ORACLE_TOL = 1e-6  # accuracy of exact_smoothed_value


def _unit(g: np.random.Generator, d: int) -> np.ndarray:
    v = g.standard_normal(d)
    return v / np.linalg.norm(v)


class Workload:
    name = ""
    item = ""
    quality_name = ""
    quality_ops = 1  # quality is averaged over ops 0..quality_ops-1 of every run
    miss_rate = 0.0  # per-item false-alarm rate of the statistical checks
    N = 100_000  # draws per stage (n1 = n2), or per sweep point

    def __init__(self, n: int | None = None) -> None:
        self.n = n or self.N

    def config(self, seed: int, op: int) -> dict:
        g = np.random.default_rng([seed, op])
        cfg = {"seed": int(g.integers(2**31)), "workers": WORKERS}
        cfg.update(self._body(g, op))
        return cfg

    def _body(self, g: np.random.Generator, op: int) -> dict:
        raise NotImplementedError

    def items(self, result: dict) -> int:
        raise NotImplementedError

    def quality(self, results: list[dict]) -> dict[str, float]:
        raise NotImplementedError

    def check(self, config: dict, result: dict) -> tuple[list[str], list[str], int]:
        """(hard failures, statistical misses, statistical checks) of one op."""
        raise NotImplementedError

    def accept_rate(self, seed: int) -> float:
        return 1.0

    def run_checks(self, seed: int, first_config: dict) -> dict[str, list[str]]:
        """Checks made once per run rather than per op: name -> failures."""
        return {}


# ---------------------------------------------------------------------------
# l2 workloads: l2_power_tail d=16 against an l2 ball, with an exact oracle

L2_FAMILY = {"variant": "l2_power_tail", "dim": 16, "k": 4, "sigma": 1.0}
L2_BALL_RADIUS = 5.0
L2_BALL = {"kind": "ball", "norm": "l2", "center": [0.0] * 16, "radius": L2_BALL_RADIUS}
ALPHA_TOTAL = 1e-3


class _L2Oracle:
    def __init__(self) -> None:
        from smoothcert.classifiers import BallIndicator, exact_smoothed_value
        from smoothcert.families import SmoothingFamily

        self._value = exact_smoothed_value
        self._ball = BallIndicator("l2", np.zeros(16), L2_BALL_RADIUS)
        self._family = SmoothingFamily(**L2_FAMILY)

    def value(self, x0: np.ndarray, away: float = 0.0) -> float:
        """Smoothed value at x0 moved ``away`` from the ball centre."""
        norm = float(np.linalg.norm(x0))
        direction = x0 / norm if norm > 0.0 else np.eye(16)[0]
        return self._value(self._ball, x0, self._family, away * direction)


def _certificate_quality(results: list[dict]) -> dict[str, float]:
    # an abstention carries bound 0, so it counts as 0 in the mean
    certs = [c for r in results for c in r["certificates"]]
    return {
        "mean_bound": float(np.mean([c["bound"] for c in certs])),
        "certified_frac": float(np.mean([c["certified"] for c in certs])),
    }


def _certificate_consistent(cert: dict) -> bool:
    return (cert["status"] == "certified") == (cert["bound"] > 0.5)


class CertifyL2(Workload):
    name = "certify-l2"
    item = "certs"
    quality_name = "mean_bound"
    quality_ops = 4
    miss_rate = ALPHA_TOTAL
    THREAT_RADIUS = 0.5
    # input norms per op: certified (two), not certified, abstain
    STRATA = ((0.0, 1.5), (2.0, 2.6), (3.2, 3.5), (4.3, 4.8))

    def _body(self, g, op):
        vectors = [(g.uniform(lo, hi) * _unit(g, 16)).tolist() for lo, hi in self.STRATA]
        return {
            "command": "certify",
            "family": L2_FAMILY,
            "threat": {"norm": "l2", "radius": self.THREAT_RADIUS},
            "classifier": L2_BALL,
            "counts": {"n1": self.n, "n2": self.n},
            "budget": {"alpha_total": ALPHA_TOTAL},
            "inputs": {"vectors": vectors},
        }

    def items(self, result):
        return len(result["certificates"])

    def quality(self, results):
        return _certificate_quality(results)

    def check(self, config, result):
        oracle = _L2Oracle()
        hard, misses = [], []
        vectors = config["inputs"]["vectors"]
        certs = result["certificates"]
        if len(certs) != len(vectors):
            return [f"{len(certs)} certificates for {len(vectors)} inputs"], [], 0
        for i, (x0, cert) in enumerate(zip(vectors, certs)):
            if not _certificate_consistent(cert):
                hard.append(f"input{i}: status {cert['status']} with bound {cert['bound']}")
            x0 = np.asarray(x0)
            value, shifted = oracle.value(x0), oracle.value(x0, self.THREAT_RADIUS)
            if cert["p0_lower"] > value + ORACLE_TOL or cert["bound"] > shifted + ORACLE_TOL:
                misses.append(f"input{i}: p0_lower {cert['p0_lower']:.6f} (value {value:.6f}), "
                              f"bound {cert['bound']:.6f} (value at the shift {shifted:.6f})")
        return hard, misses, len(certs)


class RadiusL2(Workload):
    name = "radius-l2"
    item = "radii"
    quality_name = "mean_radius"
    quality_ops = 8
    miss_rate = ALPHA_TOTAL
    # narrow strata: the radius moves about 0.6 per unit of input norm
    STRATA = ((0.0, 0.3), (1.0, 1.3), (2.0, 2.3), (2.6, 2.9))

    def _body(self, g, op):
        # one stratum per op in turn
        lo, hi = self.STRATA[op % len(self.STRATA)]
        return {
            "command": "radius",
            "family": L2_FAMILY,
            "search": {"norm": "l2", "r_max": 4.0, "iterations": 12},
            "classifier": L2_BALL,
            "counts": {"n1": self.n, "n2": self.n},
            "budget": {"alpha_total": ALPHA_TOTAL},
            "inputs": {"vectors": [(g.uniform(lo, hi) * _unit(g, 16)).tolist()]},
        }

    def items(self, result):
        return 1

    def quality(self, results):
        return {"mean_radius": float(np.mean([r["radius"] for r in results]))}

    def check(self, config, result):
        oracle = _L2Oracle()
        x0 = np.asarray(config["inputs"]["vectors"][0])
        radius, cert = result["radius"], result["certificate"]
        if radius <= 0.0:
            return [], [], 1
        if cert is None or cert["status"] != "certified" or not cert["bound"] > 0.5:
            return [f"radius {radius} without a certified certificate"], [], 1
        value = oracle.value(x0)
        shifted = oracle.value(x0, cert["threat"]["radius"])
        at_radius = oracle.value(x0, radius)
        if (cert["p0_lower"] > value + ORACLE_TOL or cert["bound"] > shifted + ORACLE_TOL
                or at_radius + ORACLE_TOL <= 0.5):
            return [], [f"radius {radius:.6f}: p0_lower {cert['p0_lower']:.6f} (value {value:.6f}), "
                        f"bound {cert['bound']:.6f} (value at the shift {shifted:.6f}), "
                        f"value at the radius {at_radius:.6f}"], 1
        return [], [], 1


# ---------------------------------------------------------------------------
# certify-linf-ext: mixed_norm d=16 through the EVAL subprocess

LINF_BALL_RADIUS = 3.0
MIXED_FAMILY = {"variant": "mixed_norm", "dim": 16, "k": 4, "sigma": 1.0}
TRANSPORT_ROWS = 4096


class CertifyLinfExt(Workload):
    name = "certify-linf-ext"
    item = "certs"
    quality_name = "mean_bound"
    quality_ops = 3
    # a quarter of the usual 1e5: every stage costs the same per row, and
    # a run then holds about fourteen ops instead of four
    N = 25_000
    # coordinate spread of the input offset, one stratum per op in turn
    STRATA = ((0.0, 0.5), (0.5, 1.0), (1.0, 1.5))

    def _body(self, g, op):
        lo, hi = self.STRATA[op % len(self.STRATA)]
        spread = g.uniform(lo, hi)
        return {
            "command": "certify",
            "family": MIXED_FAMILY,
            "threat": {"norm": "linf", "radius": 2.0 / 255.0},
            "classifier": {"kind": "external", "command": self.worker_command()},
            "counts": {"n1": self.n, "n2": self.n},
            "budget": {"alpha_total": ALPHA_TOTAL},
            "inputs": {"vectors": [g.uniform(-spread, spread, 16).tolist()]},
        }

    @staticmethod
    def worker_command() -> list[str]:
        return [sys.executable, str(EVAL_WORKER), "ball-linf", "--radius", str(LINF_BALL_RADIUS)]

    def items(self, result):
        return len(result["certificates"])

    def quality(self, results):
        return _certificate_quality(results)

    def check(self, config, result):
        certs = result["certificates"]
        hard = [f"{c['input_id']}: status {c['status']} with bound {c['bound']}"
                for c in certs if not _certificate_consistent(c)]
        if len(certs) != 1:
            hard.append(f"{len(certs)} certificates for one input")
        return hard, [], 0

    def accept_rate(self, seed):
        from smoothcert.families import SmoothingFamily, sample
        from smoothcert.rng import RandomStream

        return float(sample(SmoothingFamily(**MIXED_FAMILY), 20_000, RandomStream(seed)).acceptance_rate)

    def run_checks(self, seed, first_config):
        """EVAL labels must equal in-process labels on one sampled block."""
        from smoothcert.classifiers import BallIndicator, ExternalClassifier
        from smoothcert.families import SmoothingFamily, sample
        from smoothcert.rng import RandomStream

        x0 = np.asarray(first_config["inputs"]["vectors"][0])
        points = x0 + sample(SmoothingFamily(**MIXED_FAMILY), TRANSPORT_ROWS, RandomStream(seed, 1)).points
        with ExternalClassifier(self.worker_command()) as worker:
            remote = worker.labels(points)
        local = BallIndicator("linf", np.zeros(16), LINF_BALL_RADIUS).labels(points)
        wrong = int(np.count_nonzero(remote != local))
        return {"transport": [f"EVAL labels differ from in-process labels on {wrong}/{TRANSPORT_ROWS} rows"]
                if wrong else []}


# ---------------------------------------------------------------------------
# pareto-d5: the default sweep grids at d=5

PARETO_DIM = 5
PARETO_TRUTH_RADIUS = 0.65  # the CLI's default truth ball
PARETO_THREAT = {"norm": "linf", "radius": 0.65}  # the CLI's default threat
# the robustness check draws a quarter of the sweep's rows per point, on
# streams that no sweep point uses
ROBUSTNESS_CHECK_SHARE = 4
ROBUSTNESS_STREAM = 1_000_000


class ParetoD5(Workload):
    name = "pareto-d5"
    item = "points"
    quality_name = "mean_overlap"
    quality_ops = 2
    miss_rate = FOUR_SE
    N = 20_000

    def _body(self, g, op):
        x0 = g.uniform(0.0, 0.1) * _unit(g, PARETO_DIM)
        return {"command": "pareto", "pareto": {"dim": PARETO_DIM, "n": self.n, "x0": x0.tolist()}}

    def items(self, result):
        return len(result["points"])

    def quality(self, results):
        # robustness is the total-variation distance at the worst shift;
        # 1 - robustness is the mass the shifted noise keeps in common
        return {"mean_overlap": float(np.mean(
            [1.0 - p["robustness"] for r in results for p in r["points"]]
        ))}

    def check(self, config, result):
        from scipy.stats import binom
        from smoothcert.classifiers import BallIndicator, exact_smoothed_value
        from smoothcert.discrepancy import ThreatModel, discrepancy_mc, worst_delta
        from smoothcert.families import SmoothingFamily
        from smoothcert.rng import RandomStream

        n = config["pareto"]["n"]
        x0 = np.asarray(config["pareto"]["x0"])
        truth = BallIndicator("l2", np.zeros(PARETO_DIM), PARETO_TRUTH_RADIUS)
        threat = ThreatModel(**PARETO_THREAT)
        points = result["points"]
        hard = [f"{p['variant']} k={p['k']} scale={p['scale']}: value out of [0, 1]"
                for p in points
                if not (0.0 <= p["accuracy"] <= 1.0 and 0.0 <= p["robustness"] <= 1.0)]
        misses = []
        gaps: dict[str, list[tuple[float, float]]] = {}
        for i, p in enumerate(points):
            family = SmoothingFamily(p["variant"], PARETO_DIM, k=p["k"], sigma=p["scale"])
            # alpha (0.5) sets only the Hoeffding term, which is not used here
            est = discrepancy_mc(family, worst_delta(threat, family).vector, 1.0,
                                 n // ROBUSTNESS_CHECK_SHARE, 0.5,
                                 RandomStream(config["seed"], ROBUSTNESS_STREAM + i))
            gaps.setdefault(p["variant"], []).append(
                (p["robustness"] - est.mean, p["robustness_se"] ** 2 + est.std_error ** 2))
            if p["variant"] != "l2_power_tail":
                continue
            exact = exact_smoothed_value(truth, x0, family, np.zeros(PARETO_DIM))
            # the oracle is good to ORACLE_TOL, so it cannot tell a value
            # that close to 0 or 1 from 0 or 1, where any miss is impossible
            exact = min(max(exact, ORACLE_TOL), 1.0 - ORACLE_TOL)
            hits = round(p["accuracy"] * n)
            # "within 4 SE", judged on the exact binomial tail so that
            # points with an accuracy near 0 or 1 are not misjudged
            tail = 2.0 * min(binom.cdf(hits, n, exact), binom.sf(hits - 1, n, exact))
            if tail < FOUR_SE:
                misses.append(f"l2_power_tail k={p['k']} scale={p['scale']}: accuracy "
                              f"{p['accuracy']:.6f}, exact {exact:.6f}")
        # mean robustness per variant against the engine's own Monte Carlo
        # estimator on independent streams, within 4 SE of the difference.
        # Per point, estimates near 1 are too skewed for a normal test;
        # the mean over a variant's 80 points is not, and it is what the
        # quality metric averages.
        for variant, pairs in gaps.items():
            gap = math.fsum(g for g, _ in pairs) / len(pairs)
            se = math.sqrt(math.fsum(v for _, v in pairs)) / len(pairs)
            if abs(gap) > 4.0 * se:
                misses.append(f"{variant}: mean robustness is {gap:+.6f} off an independent "
                              f"estimate (SE {se:.6f})")
        checked = len(gaps) + sum(p["variant"] == "l2_power_tail" for p in points)
        return hard, misses, checked

    def accept_rate(self, seed):
        # mixed_norm acceptance depends on k and d only; mean over the
        # default k grid, which every scale of the sweep shares
        from smoothcert.families import SmoothingFamily, sample
        from smoothcert.rng import RandomStream

        ks = np.linspace(0.0, min(3.5, PARETO_DIM - 1.5), 8)
        rates = [sample(SmoothingFamily.mixed_norm(PARETO_DIM, float(k), 1.0), 5_000,
                        RandomStream(seed, i)).acceptance_rate for i, k in enumerate(ks)]
        return float(np.mean(rates))


WORKLOADS = {w.name: w for w in (CertifyL2, CertifyLinfExt, RadiusL2, ParetoD5)}


def statistical_failure(misses: int, checks: int, rate: float) -> bool:
    """True when ``misses`` out of ``checks`` is implausible at ``rate``."""
    from scipy.stats import binom

    return misses > 0 and bool(binom.sf(misses - 1, checks, rate) < FALSE_ALARM)
