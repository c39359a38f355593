import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from smoothcert import (
    BallIndicator,
    Constant,
    DomainError,
    ExternalClassifier,
    Halfspace,
    RandomStream,
    SmoothingFamily,
    TransportError,
    UnsupportedError,
    evaluate,
    exact_smoothed_value,
    sample,
    success_counts,
)

WORKER = [sys.executable, "-m", "smoothcert.eval_worker"]
_MAX = sys.float_info.max
# every finite double, with the edges of the format drawn often
_DOUBLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, _MAX, -_MAX,
                     1e16, -2.0**53 - 2.0, 1e22, 123456789012345678.0, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestSyntheticClassifiers:
    def test_constant(self):
        pts = np.random.default_rng(0).normal(size=(50, 3))
        assert evaluate(Constant(1), pts).sum() == 50
        assert evaluate(Constant(0), pts).sum() == 0

    def test_ball_l2(self):
        clf = BallIndicator("l2", np.zeros(2), 1.0)
        pts = np.array([[0.5, 0.0], [1.5, 0.0], [0.0, 1.0]])
        assert evaluate(clf, pts).tolist() == [1, 0, 1]  # boundary inclusive

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ball_l2_past_the_squares_range(self):
        # the distance 2e200 squares past the float range, 1e-199 below it
        far = BallIndicator("l2", np.full(4, 1e200), 1e300)
        assert evaluate(far, np.zeros((1, 4))).tolist() == [1]
        tiny = BallIndicator("l2", np.zeros(2), 1e-200)
        pts = np.array([[1e-199, 0.0], [1e-200, 1e-200], [3e-201, 4e-201], [0.0, 0.0]])
        assert evaluate(tiny, pts).tolist() == [0, 0, 1, 1]

    def test_ball_linf(self):
        clf = BallIndicator("linf", np.zeros(2), 1.0)
        pts = np.array([[0.9, 0.9], [1.1, 0.0]])
        assert evaluate(clf, pts).tolist() == [1, 0]

    def test_halfspace(self):
        clf = Halfspace(np.array([1.0, 0.0, 0.0]), 0.0)
        pts = np.array([[-1.0, 5.0, 5.0], [0.0, 0.0, 0.0], [2.0, -9.0, 0.0]])
        assert evaluate(clf, pts).tolist() == [0, 1, 1]

    def test_dimension_mismatch(self):
        clf = BallIndicator("l2", np.zeros(3), 1.0)
        with pytest.raises(DomainError):
            evaluate(clf, np.zeros((5, 4)))

    def test_pure(self):
        clf = BallIndicator("l2", np.zeros(4), 2.0)
        pts = np.random.default_rng(1).normal(size=(100, 4))
        assert np.array_equal(evaluate(clf, pts), evaluate(clf, pts))


class TestSuccessCounts:
    def test_constant_counts(self):
        fam = SmoothingFamily.gaussian(3, 1.0)
        ev = success_counts(Constant(1), np.zeros(3), fam, 500, RandomStream(1))
        assert ev.successes == 500 and ev.trials == 500

    def test_ball_fraction_matches_radial_quadrature(self):
        d, sigma = 5, 1.0
        fam = SmoothingFamily.gaussian(d, sigma)
        big_r = sigma * math.sqrt(d)  # non-degenerate success probability
        clf = BallIndicator("l2", np.zeros(d), big_r)
        n = 100_000
        ev = success_counts(clf, np.zeros(d), fam, n, RandomStream(2))
        p = exact_smoothed_value(clf, np.zeros(d), fam, np.zeros(d))
        assert abs(p - stats.chi2.cdf(d, df=d)) <= 1e-9  # oracle vs oracle
        assert abs(ev.successes / n - p) <= 3.0 * math.sqrt(p * (1 - p) / n)

    def test_extreme_radius(self):
        d = 5
        fam = SmoothingFamily.gaussian(d, 1.0)
        clf = BallIndicator("l2", np.zeros(d), 3.0 * math.sqrt(d))
        ev = success_counts(clf, np.zeros(d), fam, 100_000, RandomStream(3))
        # P(chi_5 <= 3 sqrt 5) = 0.9999999855: expect every draw inside
        assert ev.successes >= 99_999

    def test_mismatch_consumes_nothing(self):
        fam = SmoothingFamily.gaussian(3, 1.0)
        clf = BallIndicator("l2", np.zeros(4), 1.0)
        with pytest.raises(DomainError):
            success_counts(clf, np.zeros(3), fam, 100, RandomStream(4))

    def test_reproducible(self):
        fam = SmoothingFamily.l2_power_tail(4, 1.0, 1.0)
        clf = BallIndicator("l2", np.zeros(4), 1.5)
        a = success_counts(clf, np.zeros(4), fam, 20_000, RandomStream(5))
        b = success_counts(clf, np.zeros(4), fam, 20_000, RandomStream(5))
        assert a.successes == b.successes

    def test_in_place_shift_matches_out_of_place_reference(self):
        # blocks are shifted in place; x0 + block labels every row alike
        from smoothcert import sample_chunks

        fam = SmoothingFamily.l2_power_tail(6, 2.0, 1.0)
        x0 = np.array([0.7, -0.3, 0.2, 0.0, 1.1, -0.9])
        clf = BallIndicator("l2", np.full(6, 0.5), 2.0)
        n, rng = 30_001, RandomStream(6)
        got = success_counts(clf, x0, fam, n, rng)
        ref = sum(int(clf.labels(x0 + block).sum()) for block in sample_chunks(fam, n, rng))
        assert got.successes == ref and 0 < ref < n

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pooled_shards_match_the_serial_sum(self, monkeypatch, workers):
        # the pool counts each shard alone; the sum is the serial sum over the blocks
        from smoothcert import families, sample_chunks

        monkeypatch.setattr(families, "_SHARD_ROWS", 4_000)
        fam = SmoothingFamily.l2_power_tail(6, 2.0, 1.0)
        x0 = np.array([0.7, -0.3, 0.2, 0.0, 1.1, -0.9])
        clf = BallIndicator("l2", np.full(6, 0.5), 2.0)
        n, rng = 30_001, RandomStream(6)
        blocks = list(sample_chunks(fam, n, rng))
        assert len(blocks) == 8
        ref = sum(int(clf.labels(x0 + block).sum()) for block in blocks)
        assert success_counts(clf, x0, fam, n, rng, workers=workers).successes == ref
        assert success_counts(clf, x0, fam, n, rng).successes == ref

    def test_external_stage_one_over_shards_counts_like_the_ball(self, monkeypatch):
        # the adapter counts the shards serially on its one worker, at any workers
        from smoothcert import families

        monkeypatch.setattr(families, "_SHARD_ROWS", 1_500)
        fam, n, rng = SmoothingFamily.l2_power_tail(4, 1.0, 1.0), 5_000, RandomStream(9)
        x0 = np.array([0.4, 0.0, -0.2, 0.1])
        ref = success_counts(BallIndicator("l2", np.zeros(4), 1.6), x0, fam, n, rng)
        assert 0 < ref.successes < n
        with ExternalClassifier(WORKER + ["ball-l2", "--radius", "1.6"], batch_size=512) as ext:
            got = success_counts(ext, x0, fam, n, rng, workers=2)
        assert got == ref


class TestExactSmoothedValue:
    def test_full_mass(self):
        fam = SmoothingFamily.gaussian(3, 1.0)
        clf = BallIndicator("l2", np.zeros(3), math.inf)
        assert exact_smoothed_value(clf, np.zeros(3), fam, np.zeros(3)) == 1.0

    def test_empty_ball(self):
        fam = SmoothingFamily.gaussian(3, 1.0)
        clf = BallIndicator("l2", np.zeros(3), 0.0)
        assert exact_smoothed_value(clf, np.zeros(3), fam, np.zeros(3)) == 0.0

    def test_centered_matches_chi(self):
        for d in (2, 5, 9):
            fam = SmoothingFamily.gaussian(d, 1.3)
            clf = BallIndicator("l2", np.zeros(d), 2.0)
            got = exact_smoothed_value(clf, np.zeros(d), fam, np.zeros(d))
            want = stats.chi2.cdf((2.0 / 1.3) ** 2, df=d)
            assert abs(got - want) <= 1e-9

    def test_offset_matches_noncentral_chi2(self):
        # Gaussian case: ||mu + z||^2 / sigma^2 is noncentral chi-square
        for d, sigma, a, big_r in [(2, 1.0, 1.0, 1.0), (5, 0.7, 0.9, 1.2), (3, 1.5, 2.0, 2.5)]:
            fam = SmoothingFamily.gaussian(d, sigma)
            center = np.zeros(d)
            clf = BallIndicator("l2", center, big_r)
            shift = np.zeros(d)
            shift[0] = a
            got = exact_smoothed_value(clf, np.zeros(d), fam, shift)
            want = stats.ncx2.cdf((big_r / sigma) ** 2, df=d, nc=(a / sigma) ** 2)
            assert abs(got - want) <= 1e-6

    def test_power_tail_matches_mc(self):
        d = 4
        fam = SmoothingFamily.l2_power_tail(d, 1.5, 1.0)
        clf = BallIndicator("l2", np.zeros(d), 1.0)
        shift = np.array([1.0, 0.0, 0.0, 0.0])
        want = exact_smoothed_value(clf, np.zeros(d), fam, shift)
        batch = sample(fam, 1_000_000, RandomStream(6))
        emp = float(
            (np.linalg.norm(batch.points + shift, axis=1) <= 1.0).mean()
        )
        assert abs(emp - want) <= 3.0 * math.sqrt(want * (1 - want) / 1_000_000) + 1e-4

    def test_d1_case(self):
        fam = SmoothingFamily.gaussian(1, 1.0)
        clf = BallIndicator("l2", np.zeros(1), 1.0)
        got = exact_smoothed_value(clf, np.zeros(1), fam, np.array([0.5]))
        want = stats.norm.cdf(0.5) - stats.norm.cdf(-1.5)
        assert abs(got - want) <= 1e-9

    def test_unsupported(self):
        fam = SmoothingFamily.gaussian(3, 1.0)
        with pytest.raises(UnsupportedError):
            exact_smoothed_value(
                BallIndicator("linf", np.zeros(3), 1.0), np.zeros(3), fam, np.zeros(3)
            )
        with pytest.raises(UnsupportedError):
            exact_smoothed_value(
                BallIndicator("l2", np.zeros(3), 1.0),
                np.zeros(3),
                SmoothingFamily.laplacian(3, 1.0),
                np.zeros(3),
            )


class TestExternalClassifier:
    def test_loopback_matches_in_process(self):
        d = 3
        fam = SmoothingFamily.gaussian(d, 1.0)
        in_process = BallIndicator("l2", np.zeros(d), 1.0)
        with ExternalClassifier(WORKER + ["ball-l2", "--radius", "1.0"]) as ext:
            a = success_counts(in_process, np.zeros(d), fam, 10_000, RandomStream(7))
            b = success_counts(ext, np.zeros(d), fam, 10_000, RandomStream(7))
        assert a.successes == b.successes

    def test_multiple_batches(self):
        pts = np.random.default_rng(2).normal(size=(2500, 2))
        clf = Halfspace(np.array([1.0, -1.0]), 0.25)
        with ExternalClassifier(
            WORKER + ["halfspace", "--w", "1,-1", "--c", "0.25"], batch_size=512
        ) as ext:
            got = evaluate(ext, pts)
        assert np.array_equal(got, evaluate(clf, pts))

    def test_constant_worker(self):
        with ExternalClassifier(WORKER + ["constant", "--label", "0"]) as ext:
            got = evaluate(ext, np.zeros((17, 4)))
        assert got.sum() == 0

    def test_empty_batch(self):
        with ExternalClassifier(WORKER + ["constant"]) as ext:
            assert evaluate(ext, np.zeros((0, 4))).shape == (0,)

    def test_malformed_response(self, tmp_path):
        script = tmp_path / "bad_worker.py"
        script.write_text(
            "import sys\n"
            "header = sys.stdin.readline().split()\n"
            "n = int(header[1])\n"
            "for _ in range(n): sys.stdin.readline()\n"
            "sys.stdout.write('banana\\n' * n)\n"
            "sys.stdout.flush()\n"
        )
        with ExternalClassifier([sys.executable, str(script)]) as ext:
            with pytest.raises(TransportError, match="malformed"):
                evaluate(ext, np.zeros((3, 2)))

    def test_extra_response_lines(self, tmp_path):
        script = tmp_path / "chatty_worker.py"
        script.write_text(
            "import sys\n"
            "header = sys.stdin.readline().split()\n"
            "n = int(header[1])\n"
            "for _ in range(n): sys.stdin.readline()\n"
            "sys.stdout.write('1\\n' * (n + 1))\n"
            "sys.stdout.flush()\n"
        )
        with ExternalClassifier([sys.executable, str(script)]) as ext:
            with pytest.raises(TransportError, match="more than 3 response lines"):
                evaluate(ext, np.zeros((3, 2)))

    def test_timeout(self, tmp_path):
        script = tmp_path / "sleepy_worker.py"
        script.write_text("import time\ntime.sleep(60)\n")
        with ExternalClassifier([sys.executable, str(script)], timeout_ms=500) as ext:
            with pytest.raises(TransportError):
                evaluate(ext, np.zeros((2, 2)))

    def test_dead_worker(self):
        with ExternalClassifier([sys.executable, "-c", "raise SystemExit(1)"]) as ext:
            with pytest.raises(TransportError):
                evaluate(ext, np.zeros((2, 2)))

    def test_row_by_row_worker_with_large_batch(self, tmp_path):
        # a worker that answers each row as it reads it stops reading once
        # its unread replies fill the pipe (about 32k two-byte lines), so
        # the adapter must read labels while it is still writing rows
        script = tmp_path / "row_worker.py"
        script.write_text(
            "import sys\n"
            "while True:\n"
            "    header = sys.stdin.readline()\n"
            "    if not header:\n"
            "        break\n"
            "    for _ in range(int(header.split()[1])):\n"
            "        row = sys.stdin.readline().split()\n"
            "        sys.stdout.write('1\\n' if float(row[0]) >= float(row[1]) else '0\\n')\n"
            "        sys.stdout.flush()\n"
        )
        pts = np.random.default_rng(4).normal(size=(100_000, 2))
        with ExternalClassifier(
            [sys.executable, str(script)], batch_size=100_000, timeout_ms=10_000
        ) as ext:
            got = evaluate(ext, pts)
        assert np.array_equal(got, evaluate(Halfspace(np.array([1.0, -1.0]), 0.0), pts))

    def test_timeout_applies_per_batch(self, tmp_path):
        # four batches at 0.4 s each take longer than the timeout in total,
        # but each is answered within it of the previous one
        script = tmp_path / "slow_worker.py"
        script.write_text(
            "import sys, time\n"
            "while True:\n"
            "    header = sys.stdin.readline()\n"
            "    if not header:\n"
            "        break\n"
            "    n = int(header.split()[1])\n"
            "    for _ in range(n): sys.stdin.readline()\n"
            "    time.sleep(0.4)\n"
            "    sys.stdout.write('1\\n' * n)\n"
            "    sys.stdout.flush()\n"
        )
        with ExternalClassifier([sys.executable, str(script)], batch_size=2, timeout_ms=1000) as ext:
            got = evaluate(ext, np.zeros((8, 3)))
        assert got.tolist() == [1] * 8

    def test_declared_dimension_checked(self):
        ext = ExternalClassifier(WORKER + ["constant"], dim=5)
        with pytest.raises(DomainError):
            evaluate(ext, np.zeros((2, 3)))

    @settings(max_examples=300, deadline=None)
    @given(block=hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(1, 5)),
                            elements=_DOUBLES))
    def test_request_round_trips_every_double(self, block):
        n, d = block.shape
        header, *lines = ExternalClassifier._request(block).split(b"\n")
        assert header == b"EVAL %d %d" % (n, d)
        assert lines.pop() == b"" and len(lines) == n
        rows = [line.split(b" ") for line in lines]
        assert all(len(row) == d for row in rows)
        parsed = np.array([[float(token) for token in row] for row in rows]).reshape(n, d)
        # bit patterns, so that -0.0 must come back as -0.0
        assert np.array_equal(parsed.view(np.uint64), block.view(np.uint64))

    def test_float_roundtrip_through_protocol(self):
        # the request formatting must survive the wire exactly
        pts = np.array([[1e-17, -3.141592653589793], [2.2250738585072014e-308, 7.0]])
        threshold = 1e-17
        with ExternalClassifier(
            WORKER + ["halfspace", "--w", "1,0", "--c", repr(threshold)]
        ) as ext:
            got = evaluate(ext, pts)
        assert got.tolist() == [1, 0]


class TestReferenceWorker:
    """``eval_worker`` labels equal the in-process classifiers' labels."""

    @pytest.mark.parametrize("label", [0, 1])
    def test_constant(self, label):
        pts = np.random.default_rng(5).normal(size=(700, 3))
        with ExternalClassifier(WORKER + ["constant", "--label", str(label)], batch_size=128) as ext:
            assert np.array_equal(evaluate(ext, pts), evaluate(Constant(label), pts))

    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_ball_with_center_on_random_rows(self, norm):
        center = np.array([0.5, -1.25, 2.0, 0.0])
        pts = center + np.random.default_rng(6).normal(size=(3000, 4))
        clf = BallIndicator(norm, center, 1.5)
        command = WORKER + [f"ball-{norm}", "--radius", "1.5", "--center", "0.5,-1.25,2,0"]
        with ExternalClassifier(command, batch_size=500) as ext:
            got = evaluate(ext, pts)
        assert 0 < got.sum() < len(pts)
        assert np.array_equal(got, evaluate(clf, pts))

    def test_ball_linf_on_the_boundary(self):
        # the radius, and one ulp either side of it, in each coordinate in turn;
        # each edge is within a factor 2 of its center coordinate, so edge - center is exact
        center, radius = np.array([3.0, -5.0, 6.5]), 0.75
        rows = []
        for axis in range(3):
            for sign in (1.0, -1.0):
                edge = center[axis] + sign * radius
                for value in (edge, np.nextafter(edge, center[axis]), np.nextafter(edge, sign * np.inf)):
                    row = center.copy()
                    row[axis] = value
                    rows.append(row)
        pts = np.array(rows)
        expected = evaluate(BallIndicator("linf", center, radius), pts)
        assert expected.tolist() == [1, 1, 0] * 6
        command = WORKER + ["ball-linf", "--radius", repr(radius), "--center", "3,-5,6.5"]
        with ExternalClassifier(command, batch_size=4) as ext:
            assert np.array_equal(evaluate(ext, pts), expected)

    def test_halfspace_with_w(self):
        pts = np.random.default_rng(8).normal(size=(2500, 3))
        clf = Halfspace(np.array([0.5, -2.0, 1.0]), -0.3)
        with ExternalClassifier(WORKER + ["halfspace", "--w", "0.5,-2,1", "--c", "-0.3"],
                                batch_size=300) as ext:
            assert np.array_equal(evaluate(ext, pts), evaluate(clf, pts))

    def test_halfspace_default_weight_is_e1(self):
        pts = np.random.default_rng(9).normal(size=(400, 5))
        with ExternalClassifier(WORKER + ["halfspace", "--c", "0.2"], batch_size=128) as ext:
            got = evaluate(ext, pts)
        assert np.array_equal(got, evaluate(Halfspace(np.eye(5)[0], 0.2), pts))

    @pytest.mark.parametrize("args", [
        ["ball-l2", "--radius", "1", "--center", "0,0"],
        ["ball-linf", "--center", "0,0,0,0"],
        ["halfspace", "--w", "1,0"],
        ["halfspace", "--w", ""],
    ])
    def test_vector_of_the_wrong_length_is_rejected(self, args):
        # the row 0 0 9 is 9 away from the origin: a truncated center would call it inside
        done = subprocess.run(WORKER + args, input="EVAL 1 3\n0 0 9\n", capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.count("\n") == 1 and "d=3" in done.stderr
        with ExternalClassifier(WORKER + args, timeout_ms=10_000) as ext:
            with pytest.raises(TransportError):
                evaluate(ext, np.array([[0.0, 0.0, 9.0]]))

    @pytest.mark.parametrize("request_text", [
        "EVL 1 2\n", "EVAL a 2\n", "EVAL 1 2\n1\n", "EVAL 1 2\nx 0\n",
    ])
    def test_malformed_request_is_one_stderr_line(self, request_text):
        done = subprocess.run(WORKER + ["ball-linf"], input=request_text, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.count("\n") == 1, done.stderr
