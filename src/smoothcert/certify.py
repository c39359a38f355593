"""Closed-form certifiers and the end-to-end certification pipelines.

The closed forms cover Gaussian smoothing under l2 threats, Laplacian
smoothing under l1 threats, and the bilateral Gaussian radius. The
pipelines estimate p0 from classifier samples (exact one-sided
Clopper-Pearson), then maximize the dual bound exactly over lambda;
a certificate is issued when the bound clears 1/2. Phi, Phi^-1 and the
beta quantile are ``scipy.special``'s ``ndtr``, ``ndtri`` and
``betaincinv``.

Confidence accounting: the total budget splits into the p0 test and
the Monte Carlo discrepancy stage (alpha_p0 + alpha_mc <= alpha_total),
and the overall guarantee holds by the union bound, which needs no
independence. So one stage-2 draw, whose DKW band covers every lambda,
serves many inputs; their certificates are then dependent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaincinv, ndtr, ndtri

from .classifiers import BinomialEvidence, Classifier, success_counts
from .discrepancy import (
    DualBoundResult,
    ShiftStatistics,
    ThreatModel,
    dual_lower_bound,
    worst_delta,
)
from .errors import DomainError
from .families import SmoothingFamily
from .rng import RandomStream

Probability = float

CERTIFIED = "certified"
NOT_CERTIFIED = "not_certified"
ABSTAIN = "abstain"


@dataclass(frozen=True)
class ConfidenceBudget:
    """Split of the total failure probability across pipeline stages."""

    alpha_total: float
    alpha_p0: float
    alpha_mc: float

    def __post_init__(self) -> None:
        for name in ("alpha_total", "alpha_p0", "alpha_mc"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise DomainError(f"{name} must be in (0, 1), got {v}")
        if self.alpha_p0 + self.alpha_mc > self.alpha_total + 1e-15:
            raise DomainError(
                f"alpha_p0 + alpha_mc = {self.alpha_p0 + self.alpha_mc} exceeds "
                f"alpha_total = {self.alpha_total}"
            )
        if self.alpha_mc > 0.5:
            raise DomainError(f"alpha_mc must be <= 1/2 for the DKW band, got {self.alpha_mc}")

    @classmethod
    def split(cls, alpha_total: float) -> "ConfidenceBudget":
        """Default even split between the p0 test and the MC stage."""
        return cls(alpha_total=alpha_total, alpha_p0=alpha_total / 2.0, alpha_mc=alpha_total / 2.0)


@dataclass(frozen=True)
class Certificate:
    """End-to-end outcome of certifying one input.

    ``dual`` is the stage-2 result, or None when the pipeline abstained
    because p0_lower did not clear 1/2; status, bound and lambda* derive
    from it.
    """

    input_id: str
    p0_lower: float
    threat: ThreatModel
    family: SmoothingFamily
    budget: ConfidenceBudget
    n1: int
    n2: int
    dual: DualBoundResult | None = field(repr=False, default=None)

    @property
    def bound(self) -> float:
        return 0.0 if self.dual is None else min(self.dual.bound, 1.0)

    @property
    def lambda_star(self) -> float:
        return 0.0 if self.dual is None else self.dual.lambda_star

    @property
    def status(self) -> str:
        if self.dual is None:
            return ABSTAIN
        return CERTIFIED if self.bound > 0.5 else NOT_CERTIFIED

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED

    def to_dict(self) -> dict:
        return {
            "input_id": self.input_id,
            "status": self.status,
            "certified": self.certified,
            "p0_lower": self.p0_lower,
            "bound": self.bound,
            "lambda_star": self.lambda_star,
            "threat": {"norm": self.threat.norm, "radius": self.threat.radius},
            "family": self.family.describe(),
            "budget": {
                "alpha_total": self.budget.alpha_total,
                "alpha_p0": self.budget.alpha_p0,
                "alpha_mc": self.budget.alpha_mc,
            },
            "sample_counts": {"n1": self.n1, "n2": self.n2},
            **{name: getattr(self.dual, name, None) for name in ("d_mean", "epsilon", "std_error")},
        }


# ---------------------------------------------------------------------------
# closed forms


def clopper_pearson_lower(evidence: BinomialEvidence, alpha: float) -> Probability:
    """Exact one-sided lower confidence bound for a binomial proportion.

    Solves the Beta quantile relation: the bound is the alpha-quantile
    of Beta(successes, trials - successes + 1); coverage of the true p
    is at least 1 - alpha. Zero successes give 0.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    s, n = evidence.successes, evidence.trials
    if s == 0:
        return 0.0
    if s == n:
        return alpha ** (1.0 / n)
    return float(betaincinv(s, n - s + 1.0, alpha))


def cohen_bound(p0: Probability, sigma: float, r: float) -> Probability:
    """Gaussian/l2 closed-form lower bound Phi(Phi^-1(p0) - r/sigma).

    Saturates to exactly 0.0 or 1.0 at p0 in {0, 1}; the value itself
    is the flag for that degenerate case.
    """
    if not sigma > 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if not r >= 0.0:
        raise DomainError(f"r must be >= 0, got {r}")
    if not 0.0 <= p0 <= 1.0:
        raise DomainError(f"p0 must be in [0, 1], got {p0}")
    if p0 == 0.0:
        return 0.0
    if p0 == 1.0:
        return 1.0
    z = ndtri(p0) - r / sigma
    if math.isnan(z):  # r / sigma = inf / inf
        raise DomainError(f"r / sigma is undefined at r={r}, sigma={sigma}")
    return float(ndtr(z))


def cohen_radius(p0: Probability, sigma: float) -> float:
    """Certified l2 radius sigma * Phi^-1(p0); negative means p0 <= 1/2.

    Saturates to +-inf at p0 in {0, 1}.
    """
    if not sigma > 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if not 0.0 <= p0 <= 1.0:
        raise DomainError(f"p0 must be in [0, 1], got {p0}")
    if p0 == 0.0:
        return -math.inf
    if p0 == 1.0:
        return math.inf
    return sigma * float(ndtri(p0))


def teng_bound(p0: Probability, b: float, r: float) -> float:
    """Laplacian/l1 closed-form lower bound, piecewise in p0.

    Above the threshold 1 - e^{-r/b}/2 the bound is
    1 - e^{r/b} (1 - p0), below it e^{-r/b} / (4 (1 - p0)); both
    branches cross 1/2 exactly at r = -b ln(2 (1 - p0)).
    """
    if not b > 0.0:
        raise DomainError(f"b must be > 0, got {b}")
    if not r >= 0.0:
        raise DomainError(f"r must be >= 0, got {r}")
    if not 0.0 <= p0 <= 1.0:
        raise DomainError(f"p0 must be in [0, 1], got {p0}")
    if p0 == 1.0:
        return 1.0
    if p0 >= 1.0 - 0.5 * math.exp(-r / b):
        return 1.0 - math.exp(r / b) * (1.0 - p0)
    return 0.5 * math.exp(-r / b - math.log(2.0 * (1.0 - p0)))


def teng_radius(p0: Probability, b: float) -> float:
    """Certified l1 radius -b ln(2 (1 - p0)).

    Non-positive for p0 <= 1/2 (the not-certifiable signal); saturates
    to +inf at p0 = 1.
    """
    if not b > 0.0:
        raise DomainError(f"b must be > 0, got {b}")
    if not 0.0 <= p0 <= 1.0:
        raise DomainError(f"p0 must be in [0, 1], got {p0}")
    if p0 == 1.0:
        return math.inf
    return -b * math.log(2.0 * (1.0 - p0))


def gaussian_bilateral_radius(pa: Probability, pb: Probability, sigma: float) -> float:
    """Two-class Gaussian radius sigma/2 (Phi^-1(pA) - Phi^-1(pB)).

    Non-positive when pA <= pB (not certifiable). With pB = 1 - pA this
    reduces to the unilateral radius sigma * Phi^-1(pA).
    """
    if not sigma > 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    for name, v in (("pa", pa), ("pb", pb)):
        if not 0.0 < v < 1.0:
            raise DomainError(f"{name} must be in (0, 1), got {v}")
    return 0.5 * sigma * (float(ndtri(pa)) - float(ndtri(pb)))


# ---------------------------------------------------------------------------
# pipelines


def _p0_lower(classifier: Classifier, x0: np.ndarray, family: SmoothingFamily, n1: int,
              budget: ConfidenceBudget, rng: RandomStream) -> float:
    """Stage 1 of both pipelines: the level-alpha_p0 lower bound on p0 from
    the classifier's successes on n1 draws from ``rng.child(0)``."""
    evidence = success_counts(classifier, x0, family, n1, rng.child(0))
    return clopper_pearson_lower(evidence, budget.alpha_p0)


def certify(
    classifier: Classifier,
    x0: np.ndarray,
    threat: ThreatModel,
    n1: int,
    budget: ConfidenceBudget,
    rng: RandomStream,
    stats: ShiftStatistics,
    input_id: str = "x0",
) -> Certificate:
    """Certification of one input.

    Stage 1 draws n1 samples from ``rng.child(0)``, counts classifier
    successes, and lower-bounds p0 at level alpha_p0. Stage 2 maximizes
    the dual bound over lambda on ``stats`` (the ``noise_statistics`` of
    the smoothing family, read at ``threat``'s worst shift) at level
    alpha_mc. Certified iff the bound exceeds 1/2; if p0_lower cannot
    clear 1/2 the pipeline abstains. A threat with no worst-shift
    theorem for the family raises before anything is drawn.
    """
    worst_delta(threat, stats.family)
    p0_lower = _p0_lower(classifier, x0, stats.family, n1, budget, rng)
    dual = None
    if p0_lower > 0.5:
        dual = dual_lower_bound(p0_lower, threat, budget.alpha_mc, stats)
    return Certificate(input_id, p0_lower, threat, stats.family, budget, n1, stats.n, dual)


def _check_search(r_max: float, iterations: int = 12, r_step: float | None = None) -> None:
    if not r_max > 0.0:
        raise DomainError(f"r_max must be > 0, got {r_max}")
    if iterations < 1:
        raise DomainError(f"iterations must be >= 1, got {iterations}")
    if r_step is not None and not r_step > 0.0:
        raise DomainError(f"r_step must be > 0, got {r_step}")


def certified_radius_search(
    classifier: Classifier,
    x0: np.ndarray,
    threat_norm: str,
    r_max: float,
    n1: int,
    budget: ConfidenceBudget,
    rng: RandomStream,
    stats: ShiftStatistics,
    iterations: int = 12,
    r_step: float | None = None,
) -> tuple[float, Certificate | None]:
    """Largest certified radius by bisection on r in [0, r_max].

    Stage 1 runs once, as in ``certify`` (p0 does not depend on r), and
    every probe reads ``stats``, the statistics of the family: only the
    radius along its ray changes, so the search draws nothing else and
    a probe costs O(n2). Each probe is a rigorous certificate at its
    own radius with the MC budget split across all probes, so the
    reported radius (snapped down to ``r_step`` if given) was itself
    certified, not interpolated. A ``threat_norm`` with no worst-shift
    theorem for the family raises before anything is drawn. Radius
    0 and no certificate (None) when stage 1 abstains, no probe
    certifies, or the snap to ``r_step`` reaches 0.
    """
    _check_search(r_max, iterations, r_step)
    worst_delta(ThreatModel(threat_norm, r_max), stats.family)
    p0_lower = _p0_lower(classifier, x0, stats.family, n1, budget, rng)
    if p0_lower <= 0.5:
        return 0.0, None

    alpha_probe = budget.alpha_mc / iterations
    lo, hi = 0.0, r_max
    best: Certificate | None = None
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        threat = ThreatModel(norm=threat_norm, radius=mid)
        dual = dual_lower_bound(p0_lower, threat, alpha_probe, stats)
        cert = Certificate("radius_search", p0_lower, threat, stats.family, budget, n1, stats.n, dual)
        if cert.certified:
            lo, best = mid, cert
        else:
            hi = mid
    radius = lo if r_step is None else math.floor(lo / r_step) * r_step
    return (radius, best) if radius > 0.0 else (0.0, None)
