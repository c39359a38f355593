"""Black-box classifier abstraction.

Synthetic classifiers (constant, ball indicator, halfspace) are exact
and serve as ground truth in tests and experiments. External models in
any runtime are certified through a stdio protocol:

    request:  "EVAL64 <n> <d>\\n" followed by exactly 8*n*d bytes: the n
              rows, row-major, as little-endian IEEE-754 float64, so
              every bit pattern crosses unchanged
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
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
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


# Where the OS allows it (Linux), the request pipe holds about eight
# default batches at d = 16 (128 KiB each), so the worker labels one
# batch while the next ones are written instead of waking the adapter
# every few kilobytes.
_PIPE_BYTES = 1 << 20


# 1 for the bytes ``bytes.strip()`` keeps: all but ASCII space, \t, \n, \r, \v and \f.
_KEPT = np.ones(256, dtype=np.uint8)
_KEPT[list(b" \t\n\r\x0b\x0c")] = 0


def _widen_pipe(fd: int) -> None:
    setsize = getattr(fcntl, "F_SETPIPE_SZ", None)
    if setsize is not None:
        try:
            fcntl.fcntl(fd, setsize, _PIPE_BYTES)
        except OSError:  # above the system's limit: keep the default size
            pass


class ExternalClassifier:
    """Adapter speaking the EVAL protocol to a child process.

    ``start()`` spawns the child (``labels`` calls it too) and it is
    kept alive across batches; one adapter drives one subprocess, and
    threads that share it take turns: one exchange runs at a time.
    Timeouts, malformed response lines, and child death all raise
    :class:`~smoothcert.errors.TransportError` so certification aborts
    loudly instead of silently under-counting. The first failure
    latches: the child is killed, and every later ``start()`` or
    ``labels`` raises naming it and spawns nothing until ``close()``,
    so a failed child is never silently replaced.

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
        self._failure: str | None = None  # the first failure since the last close()
        self._lock = threading.Lock()

    @property
    def dim(self) -> int | None:
        return self._declared_dim

    def start(self) -> subprocess.Popen:
        """Spawn the child unless one is held; idempotent. A held child
        that has exited is a ``TransportError`` naming its exit status."""
        return self._exchange(lambda proc: proc)

    def _exchange(self, work: Callable[[subprocess.Popen], object]):
        """``work(child)`` under the lock, the child spawned first if none
        is held. A failure is latched and the child killed."""
        with self._lock:
            if self._failure is not None:
                raise TransportError(
                    f"classifier worker is down after an earlier failure: {self._failure}")
            try:
                if self._proc is None:
                    try:
                        self._proc = subprocess.Popen(
                            self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
                        )
                    except OSError as exc:
                        raise TransportError(f"failed to spawn classifier worker: {exc}") from exc
                    assert self._proc.stdin is not None
                    os.set_blocking(self._proc.stdin.fileno(), False)
                    _widen_pipe(self._proc.stdin.fileno())
                elif self._proc.poll() is not None:
                    raise TransportError(
                        f"classifier worker exited with status {self._proc.returncode}")
                return work(self._proc)
            except BaseException as exc:
                self._failure = str(exc) or type(exc).__name__
                self._stop(kill=True)
                raise

    def _stop(self, kill: bool) -> None:
        if self._proc is not None:
            if self._proc.stdin:
                try:
                    self._proc.stdin.close()
                except OSError:
                    pass
            (self._proc.kill if kill else self._proc.terminate)()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            if self._proc.stdout:
                self._proc.stdout.close()
            self._proc = None

    def close(self) -> None:
        """Stop the child, if one is held, and clear a latched failure."""
        with self._lock:
            self._stop(kill=False)
            self._failure = None

    def __enter__(self) -> "ExternalClassifier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _request(block: np.ndarray) -> tuple[bytes, memoryview]:
        """The header and the body of ``block``'s request. The body is a
        view of the rows where they are already contiguous little-endian
        float64, so a request copies nothing before the pipe."""
        n, d = block.shape
        body = np.ascontiguousarray(block, dtype="<f8").reshape(-1).view(np.uint8)
        return b"EVAL64 %d %d\n" % (n, d), memoryview(body)

    def _transfer(self, proc: subprocess.Popen, points: np.ndarray) -> bytes:
        """Send ``points`` in batches and return the reply, at least one line per row.

        Requests are encoded and written only as fast as the pipe
        takes them, and replies are read in between, all on this thread:
        the worker can label one batch while the next is written, and
        a worker that answers each row as it reads it never blocks on a
        full reply pipe. Each batch must be answered within
        ``timeout_ms`` of the previous batch's answer.
        """
        assert proc.stdin is not None and proc.stdout is not None
        stdin, stdout = proc.stdin.fileno(), proc.stdout.fileno()
        n, size = points.shape[0], self.batch_size
        requests = (part for i in range(0, n, size) for part in self._request(points[i : i + size]))
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
                            raise TransportError(
                                f"classifier worker closed its input{self._exited(proc)}: {exc}"
                            ) from exc
                    else:
                        chunk = os.read(stdout, 1 << 16)
                        if not chunk:
                            raise TransportError(
                                "classifier worker closed its output mid-batch "
                                f"(got {min(count, n)}/{n} labels){self._exited(proc)}"
                            )
                        received.append(chunk)
                        count += chunk.count(b"\n")
                        if min(count, n) // size > answered:
                            answered = min(count, n) // size
                            deadline = time.monotonic() + self.timeout_ms / 1000.0
        return b"".join(received)

    def _exited(self, proc: subprocess.Popen) -> str:
        """", exited with status N" once a child that closed a pipe has
        exited, waiting for it at most a second; "" if it is still running."""
        try:
            return f", exited with status {proc.wait(min(1.0, self.timeout_ms / 1000.0))}"
        except subprocess.TimeoutExpired:
            return ""

    @staticmethod
    def _parse_labels(reply: bytes, n: int) -> np.ndarray:
        """The labels of the first n lines of ``reply``, which holds at
        least n newlines. A line is valid iff it holds exactly one byte
        that ``bytes.strip`` keeps, and that byte is "0" or "1"; the
        first invalid line, or any byte after the n-th newline, raises."""
        raw = np.frombuffer(reply, dtype=np.uint8)
        ends = np.flatnonzero(raw == ord("\n"))[:n]
        if raw.size > (ends[-1] + 1 if n else 0):
            raise TransportError(f"classifier worker sent more than {n} response lines")
        kept = _KEPT.take(raw)
        # per line, the count and the sum of its kept bytes: the byte itself when there is one
        count = np.diff(np.cumsum(kept)[ends], prepend=0)
        value = np.diff(np.cumsum(raw * kept)[ends], prepend=0)
        valid = (count == 1) & ((value == ord("0")) | (value == ord("1")))
        if not valid.all():
            i = int(np.argmin(valid))
            line = reply[ends[i - 1] + 1 if i else 0 : ends[i]]
            raise TransportError(f"malformed response line {i}: {line!r}")
        return (value - ord("0")).astype(np.int8)

    def labels(self, points: np.ndarray) -> np.ndarray:
        return self._exchange(
            lambda proc: self._parse_labels(self._transfer(proc, points), points.shape[0]))


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


# Rows per slice of a shard: 2**15 values (256 KiB) at d <= 128, small
# enough to stay in cache, so the input-shifted copies reuse the same
# few allocations instead of each faulting in a fresh shard-sized array.
# The floor of 256 rows keeps an EVAL exchange at d = 3072 from
# shrinking to 10 rows.
_SLICE_VALUES = 1 << 15


def row_slices(block: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive row slices (views) of ``block``, each of
    max(256, 2**15 // d) rows but the last."""
    step = max(256, _SLICE_VALUES // block.shape[1])
    return (block[i : i + step] for i in range(0, block.shape[0], step))


def success_counts(
    classifier: Classifier,
    inputs: Sequence[np.ndarray],
    family: SmoothingFamily,
    n: int,
    rng: RandomStream,
    workers: int = 1,
) -> list[BinomialEvidence]:
    """Count f(x + z) = 1 over the same n smoothing draws for every input x.

    Dimensions are validated before any sampling, so a mismatch
    consumes zero samples. The draws are the fixed shards of
    ``sample_chunks``, drawn once: each input labels every shard
    shifted by itself, one ``row_slices`` slice at a time, so a shift
    allocates a slice, not a shard. Its count sums the slices' counts,
    so it depends only on (family, n, rng) and equals the count of a
    one-input call. Every classifier counts the shards on a
    pool of ``min(workers, shards)`` threads, each drawing its shard
    and labelling it for every input. An ``ExternalClassifier`` labels
    one exchange at a time, so with ``workers`` >= 2 one thread draws a
    shard while another's is labelled.
    """
    if n < 1:
        raise DomainError(f"success_counts requires n >= 1, got {n}")
    if workers < 1:
        raise DomainError(f"success_counts requires workers >= 1, got {workers}")
    inputs = [np.asarray(x0, dtype=float) for x0 in inputs]
    if not inputs:
        raise DomainError("success_counts requires at least one input")
    for x0 in inputs:
        if x0.shape != (family.dim,):
            raise DomainError(f"x0 must have length {family.dim}, got shape {x0.shape}")
    cdim = classifier.dim
    if cdim is not None and cdim != family.dim:
        raise DomainError(
            f"dimension mismatch: classifier expects d={cdim}, family has d={family.dim}"
        )

    def count(i: int) -> list[int]:
        (block,) = sample_chunks(family, n, rng, slice(i, i + 1))
        hits = [0] * len(inputs)
        for part in row_slices(block):
            for j, x0 in enumerate(inputs):
                hits[j] += int(classifier.labels(part + x0).sum())
        return hits

    total = shard_count(family, n)
    with ThreadPoolExecutor(max_workers=min(workers, total)) as pool:
        per_shard = list(pool.map(count, range(total)))
    return [BinomialEvidence(successes=sum(hits), trials=n) for hits in zip(*per_shard)]


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
    supported on |R - a| <= rho <= R + a. ``scipy.integrate`` loads
    here, on first use: no certificate needs it.
    """
    from scipy import integrate

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
