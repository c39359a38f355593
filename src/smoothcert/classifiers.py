"""Black-box classifier abstraction.

Synthetic classifiers (constant, ball indicator, halfspace) are exact
and serve as ground truth in tests and experiments. External models in
any runtime are certified through a line-delimited stdio protocol:

    request:  "EVAL <n> <d>\\n" followed by n lines of d space-separated
              decimal floats (17 significant digits, an exact round trip)
    response: n lines, each "0" or "1", in request order

Only hard labels cross the boundary. A reference worker implementing
the protocol ships as ``python -m smoothcert.eval_worker``.
"""

from __future__ import annotations

import fcntl
import math
import os
import selectors
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import betainc, gammainc

from .errors import DomainError, TransportError, UnsupportedError
from .families import SmoothingFamily, sample_chunks, shard_count
from .rng import RandomStream


@dataclass(frozen=True)
class BinomialEvidence:
    """Success count from evaluating a classifier under smoothing noise."""

    successes: int
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.successes <= self.trials:
            raise DomainError(
                f"successes must be in [0, trials], got {self.successes}/{self.trials}"
            )


@dataclass(frozen=True)
class Constant:
    """f(x) = label everywhere."""

    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise DomainError(f"label must be 0 or 1, got {self.label}")

    @property
    def dim(self) -> int | None:
        return None

    def labels(self, points: np.ndarray) -> np.ndarray:
        return np.full(points.shape[0], self.label, dtype=np.int8)


_SQRT_TINY = math.sqrt(np.finfo(float).tiny)  # a smaller l2 norm may have underflowed


@dataclass(frozen=True)
class BallIndicator:
    """f(x) = 1 inside the closed ball of radius R around center."""

    norm: str
    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        if self.norm not in ("l2", "linf"):
            raise DomainError(f"ball norm must be 'l2' or 'linf', got {self.norm!r}")
        if not self.radius >= 0.0:
            raise DomainError(f"ball radius must be >= 0, got {self.radius}")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    @property
    def dim(self) -> int | None:
        return int(self.center.shape[0])

    def labels(self, points: np.ndarray) -> np.ndarray:
        diff = points - self.center
        if self.norm == "l2":
            with np.errstate(over="ignore"):
                dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                if not (dist.min(initial=np.inf) >= _SQRT_TINY and dist.max(initial=0.0) < np.inf):
                    # squares overflowed or underflowed: redo those rows scaled by their max |entry|
                    redo = ~(dist < np.inf) | (dist < _SQRT_TINY)
                    scale = np.abs(diff[redo]).max(axis=1, initial=0.0)
                    scale[~(scale > 0.0) | (scale == np.inf)] = 1.0
                    dist[redo] = scale * np.linalg.norm(diff[redo] / scale[:, None], axis=1)
        else:
            dist = np.abs(diff).max(axis=1)
        return (dist <= self.radius).astype(np.int8)


@dataclass(frozen=True)
class Halfspace:
    """f(x) = 1 where w . x >= c."""

    w: np.ndarray
    c: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        if self.w.ndim != 1 or self.w.shape[0] < 1:
            raise DomainError("halfspace weight must be a nonempty vector")

    @property
    def dim(self) -> int | None:
        return int(self.w.shape[0])

    def labels(self, points: np.ndarray) -> np.ndarray:
        return (points @ self.w >= self.c).astype(np.int8)


# Where the OS allows it (Linux), the request pipe holds about three
# default batches at d = 16, so the worker parses one batch while the
# next is formatted instead of waking the adapter every few kilobytes.
_PIPE_BYTES = 1 << 20


def _widen_pipe(fd: int) -> None:
    setsize = getattr(fcntl, "F_SETPIPE_SZ", None)
    if setsize is not None:
        try:
            fcntl.fcntl(fd, setsize, _PIPE_BYTES)
        except OSError:  # above the system's limit: keep the default size
            pass


class ExternalClassifier:
    """Adapter speaking the EVAL protocol to a child process.

    The child is spawned lazily on first use and kept alive across
    batches; one adapter drives one subprocess. Timeouts, malformed
    response lines, and child death all raise
    :class:`~smoothcert.errors.TransportError` so certification aborts
    loudly instead of silently under-counting; the child is killed
    first, and the next call starts a new one.

    The batches of one call are exchanged on the calling thread by
    polling both pipes (``selectors``), so the adapter needs a POSIX
    platform.
    """

    def __init__(
        self,
        command: list[str] | tuple[str, ...],
        batch_size: int = 1024,
        timeout_ms: int = 30_000,
        dim: int | None = None,
    ) -> None:
        if batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {batch_size}")
        if timeout_ms < 1:
            raise DomainError(f"timeout_ms must be >= 1, got {timeout_ms}")
        self.command = list(command)
        self.batch_size = batch_size
        self.timeout_ms = timeout_ms
        self._declared_dim = dim
        self._proc: subprocess.Popen | None = None

    @property
    def dim(self) -> int | None:
        return self._declared_dim

    def _ensure_started(self) -> subprocess.Popen:
        if self._proc is None or self._proc.poll() is not None:
            self.close()
            try:
                self._proc = subprocess.Popen(
                    self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
                )
            except OSError as exc:
                raise TransportError(f"failed to spawn classifier worker: {exc}") from exc
            assert self._proc.stdin is not None
            os.set_blocking(self._proc.stdin.fileno(), False)
            _widen_pipe(self._proc.stdin.fileno())
        return self._proc

    def close(self) -> None:
        if self._proc is not None:
            if self._proc.stdin:
                try:
                    self._proc.stdin.close()
                except OSError:
                    pass
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            if self._proc.stdout:
                self._proc.stdout.close()
            self._proc = None

    def __enter__(self) -> "ExternalClassifier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _request(block: np.ndarray) -> bytes:
        # 17 significant digits round-trip every finite double: %g is correctly rounded
        n, d = block.shape
        row = b" ".join([b"%.17g"] * d) + b"\n"
        return b"EVAL %d %d\n" % (n, d) + (row * n) % tuple(block.ravel().tolist())

    def _transfer(self, proc: subprocess.Popen, points: np.ndarray) -> list[bytes]:
        """Send ``points`` in batches and read one reply line per row.

        Requests are formatted and written only as fast as the pipe
        takes them, and replies are read in between, all on this thread:
        the worker can parse one batch while the next is formatted, and
        a worker that answers each row as it reads it never blocks on a
        full reply pipe. Each batch must be answered within
        ``timeout_ms`` of the previous batch's answer.
        """
        assert proc.stdin is not None and proc.stdout is not None
        stdin, stdout = proc.stdin.fileno(), proc.stdout.fileno()
        n, size = points.shape[0], self.batch_size
        requests = (self._request(points[i : i + size]) for i in range(0, n, size))
        pending = memoryview(b"")
        received: list[bytes] = []
        count = answered = 0
        deadline = time.monotonic() + self.timeout_ms / 1000.0
        with selectors.DefaultSelector() as sel:
            sel.register(stdin, selectors.EVENT_WRITE)
            sel.register(stdout, selectors.EVENT_READ)
            writing = True
            while writing or count < n:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    raise TransportError(
                        f"classifier worker timed out after {self.timeout_ms} ms "
                        f"(got {min(count, n)}/{n} labels)"
                    )
                for key, _ in sel.select(remaining):
                    if key.fd == stdin:
                        if not pending:
                            pending = memoryview(next(requests, b""))
                            if not pending:
                                sel.unregister(stdin)
                                writing = False
                                continue
                        try:
                            pending = pending[os.write(stdin, pending) :]
                        except BlockingIOError:
                            pass
                        except OSError as exc:
                            raise TransportError(f"classifier worker closed its input: {exc}") from exc
                    else:
                        chunk = os.read(stdout, 1 << 16)
                        if not chunk:
                            raise TransportError(
                                "classifier worker closed its output mid-batch "
                                f"(got {min(count, n)}/{n} labels)"
                            )
                        received.append(chunk)
                        count += chunk.count(b"\n")
                        if min(count, n) // size > answered:
                            answered = min(count, n) // size
                            deadline = time.monotonic() + self.timeout_ms / 1000.0
        lines = b"".join(received).split(b"\n", n)
        if lines.pop():
            raise TransportError(f"classifier worker sent more than {n} response lines")
        return lines

    @staticmethod
    def _parse_labels(lines: list[bytes]) -> np.ndarray:
        out = np.empty(len(lines), dtype=np.int8)
        for i, line in enumerate(lines):
            token = line.strip()
            if token == b"0":
                out[i] = 0
            elif token == b"1":
                out[i] = 1
            else:
                raise TransportError(f"malformed response line {i}: {line!r}")
        return out

    def labels(self, points: np.ndarray) -> np.ndarray:
        proc = self._ensure_started()
        try:
            return self._parse_labels(self._transfer(proc, points))
        except BaseException:
            proc.kill()
            self.close()
            raise


Classifier = Constant | BallIndicator | Halfspace | ExternalClassifier


def evaluate(classifier: Classifier, points: np.ndarray) -> np.ndarray:
    """Labels in {0,1}^n for an n x d batch of inputs."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise DomainError(f"points must be an n x d matrix, got shape {points.shape}")
    cdim = classifier.dim
    if cdim is not None and cdim != points.shape[1]:
        raise DomainError(
            f"dimension mismatch: classifier expects d={cdim}, points have d={points.shape[1]}"
        )
    return classifier.labels(points)


def success_counts(
    classifier: Classifier,
    x0: np.ndarray,
    family: SmoothingFamily,
    n: int,
    rng: RandomStream,
    workers: int = 1,
) -> BinomialEvidence:
    """Count f(x0 + z) = 1 over n smoothing draws.

    Dimensions are validated before any sampling, so a mismatch
    consumes zero samples. The draws are the fixed shards of
    ``sample_chunks`` and the count sums their counts in shard order,
    so it depends only on (family, n, rng). With ``workers > 1`` an
    in-process classifier counts the shards on a pool of that many
    threads; an ``ExternalClassifier`` drives its one subprocess from
    the calling thread.
    """
    if n < 1:
        raise DomainError(f"success_counts requires n >= 1, got {n}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (family.dim,):
        raise DomainError(f"x0 must have length {family.dim}, got shape {x0.shape}")
    cdim = classifier.dim
    if cdim is not None and cdim != family.dim:
        raise DomainError(
            f"dimension mismatch: classifier expects d={cdim}, family has d={family.dim}"
        )

    def count(shards: slice) -> int:
        successes = 0
        for block in sample_chunks(family, n, rng, shards):
            block += x0  # each block is a fresh array: shift it in place
            successes += int(classifier.labels(block).sum())
        return successes

    total = shard_count(family, n)
    if workers > 1 and total > 1 and not isinstance(classifier, ExternalClassifier):
        with ThreadPoolExecutor(max_workers=min(workers, total)) as pool:
            successes = sum(pool.map(count, [slice(i, i + 1) for i in range(total)]))
    else:
        successes = count(slice(None))
    return BinomialEvidence(successes=successes, trials=n)


# ---------------------------------------------------------------------------
# analytic oracle for centered-ball truths


def _radial_cdf(family: SmoothingFamily, x: float) -> float:
    """P(||z|| <= x) for the spherical radius law r^(d-1-k) e^(-r^2/2s^2)."""
    if x <= 0.0:
        return 0.0
    shape = (family.dim - family.k) / 2.0
    return float(gammainc(shape, x * x / (2.0 * family.sigma**2)))


def exact_smoothed_value(
    classifier: BallIndicator,
    x0: np.ndarray,
    family: SmoothingFamily,
    shift: np.ndarray,
) -> float:
    """E_{z ~ pi_0} f(x0 + shift + z) for an l2 ball indicator, to 1e-6.

    Valid for spherically symmetric smoothing (gaussian or
    l2_power_tail). Conditioning on the radius rho reduces the sphere
    average to a Beta CDF in the cosine of the polar angle, leaving a
    1-D integral over the radius law that adaptive quadrature handles:

        P(||mu + z|| <= R) = F(R - a)  +  int p(rho) h(rho) drho

    with a = ||mu||, h the spherical cap fraction, and the integral
    supported on |R - a| <= rho <= R + a.
    """
    if not isinstance(classifier, BallIndicator) or classifier.norm != "l2":
        raise UnsupportedError("exact_smoothed_value supports l2 ball indicators only")
    if family.variant not in ("gaussian", "l2_power_tail"):
        raise UnsupportedError(
            f"exact_smoothed_value supports gaussian/l2_power_tail, got {family.variant}"
        )
    x0 = np.asarray(x0, dtype=float)
    shift = np.asarray(shift, dtype=float)
    if x0.shape != (family.dim,) or shift.shape != (family.dim,):
        raise DomainError(f"x0 and shift must be vectors of length {family.dim}")
    if classifier.dim != family.dim:
        raise DomainError("ball center dimension does not match the family")

    big_r = classifier.radius
    if big_r == 0.0:
        return 0.0
    if math.isinf(big_r):
        return 1.0
    a = float(np.linalg.norm(x0 + shift - classifier.center))
    if a == 0.0:
        return _radial_cdf(family, big_r)

    d, k, sigma = family.dim, family.k, family.sigma
    if d == 1:
        inside_minus = _radial_cdf(family, a + big_r) - _radial_cdf(family, max(a - big_r, 0.0))
        inside_plus = _radial_cdf(family, max(big_r - a, 0.0))
        return 0.5 * inside_minus + 0.5 * inside_plus

    m = d - 1.0 - k
    log_norm = (0.5 * (m - 1.0) * math.log(2.0) + (m + 1.0) * math.log(sigma)
                + math.lgamma((m + 1.0) / 2.0))
    half = (d - 1.0) / 2.0

    def integrand(rho: float) -> float:
        t = (big_r * big_r - a * a - rho * rho) / (2.0 * a * rho)
        if t >= 1.0:
            cap = 1.0
        elif t <= -1.0:
            cap = 0.0
        else:
            cap = float(betainc(half, half, 0.5 * (t + 1.0)))
        if cap == 0.0:
            return 0.0
        log_pdf = m * math.log(rho) - rho * rho / (2.0 * sigma * sigma) - log_norm
        return math.exp(log_pdf) * cap

    lo, hi = abs(big_r - a), big_r + a
    core = _radial_cdf(family, big_r - a) if a < big_r else 0.0
    tail, _err = integrate.quad(integrand, lo, hi, epsabs=1e-9, epsrel=1e-9, limit=200)
    return min(1.0, max(0.0, core + tail))
