import math
import re
import struct
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
    eval_worker,
    evaluate,
    exact_smoothed_value,
    sample,
    success_counts,
)

# started by path, as a model runtime would run a copy: ``python -m`` would
# import the whole smoothcert package (numpy, scipy.special) at each spawn
WORKER = [sys.executable, eval_worker.__file__]
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
        (ev,) = success_counts(Constant(1), [np.zeros(3)], fam, 500, RandomStream(1))
        assert ev.successes == 500 and ev.trials == 500

    def test_ball_fraction_matches_radial_quadrature(self):
        d, sigma = 5, 1.0
        fam = SmoothingFamily.gaussian(d, sigma)
        big_r = sigma * math.sqrt(d)  # non-degenerate success probability
        clf = BallIndicator("l2", np.zeros(d), big_r)
        n = 100_000
        (ev,) = success_counts(clf, [np.zeros(d)], fam, n, RandomStream(2))
        p = exact_smoothed_value(clf, np.zeros(d), fam, np.zeros(d))
        assert abs(p - stats.chi2.cdf(d, df=d)) <= 1e-9  # oracle vs oracle
        assert abs(ev.successes / n - p) <= 3.0 * math.sqrt(p * (1 - p) / n)

    def test_extreme_radius(self):
        d = 5
        fam = SmoothingFamily.gaussian(d, 1.0)
        clf = BallIndicator("l2", np.zeros(d), 3.0 * math.sqrt(d))
        (ev,) = success_counts(clf, [np.zeros(d)], fam, 100_000, RandomStream(3))
        # P(chi_5 <= 3 sqrt 5) = 0.9999999855: expect every draw inside
        assert ev.successes >= 99_999

    def test_mismatch_consumes_nothing(self, monkeypatch):
        from smoothcert import classifiers

        def no_draws(*args, **kwargs):
            raise AssertionError("drew")

        monkeypatch.setattr(classifiers, "sample_chunks", no_draws)
        fam = SmoothingFamily.gaussian(3, 1.0)
        with pytest.raises(DomainError, match="classifier expects d=4"):
            success_counts(BallIndicator("l2", np.zeros(4), 1.0), [np.zeros(3)], fam, 100,
                           RandomStream(4))
        clf = BallIndicator("l2", np.zeros(3), 1.0)
        with pytest.raises(DomainError, match="at least one input"):
            success_counts(clf, [], fam, 100, RandomStream(4))
        with pytest.raises(DomainError, match="length 3"):
            success_counts(clf, [np.zeros(3), np.zeros(2)], fam, 100, RandomStream(4))

    def test_zero_workers_is_a_domain_error(self):
        fam = SmoothingFamily.gaussian(3, 1.0)
        with pytest.raises(DomainError, match="workers >= 1, got 0"):
            success_counts(Constant(1), [np.zeros(3)], fam, 100, RandomStream(4), workers=0)

    def test_reproducible(self):
        fam = SmoothingFamily.l2_power_tail(4, 1.0, 1.0)
        clf = BallIndicator("l2", np.zeros(4), 1.5)
        a = success_counts(clf, [np.zeros(4)], fam, 20_000, RandomStream(5))
        b = success_counts(clf, [np.zeros(4)], fam, 20_000, RandomStream(5))
        assert a == b

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 200])
    @pytest.mark.parametrize("kind", ["ball-l2", "ball-linf", "halfspace", "constant", "eval"])
    def test_sliced_counts_match_the_whole_block_reference(self, monkeypatch, request, kind, d,
                                                           workers):
        # each shard is labelled in row slices: 300 rows at d = 1 and the
        # 256-row floor at d = 200, so slices end inside the 1,000-row shards
        # and n is a multiple of neither; every input's count is still the
        # sum of its labels on the whole shifted blocks
        from smoothcert import classifiers, families, sample_chunks

        monkeypatch.setattr(families, "_SHARD_ROWS", 1_000)
        monkeypatch.setattr(classifiers, "_SLICE_VALUES", 300)
        fam, n, rng = SmoothingFamily.gaussian(d, 1.0), 2_501, RandomStream(6)
        step = len(next(classifiers.row_slices(np.zeros((1_000, d)))))
        assert step == (300 if d == 1 else 256) and n % step and n % 1_000
        if kind == "eval":
            clf = ExternalClassifier(WORKER + ["ball-l2", "--radius", str(math.sqrt(d))],
                                     batch_size=100)
            request.addfinalizer(clf.close)
        else:
            clf = {
                "ball-l2": BallIndicator("l2", np.zeros(d), math.sqrt(d)),
                "ball-linf": BallIndicator("linf", np.zeros(d), 1.0 if d == 1 else 2.8),
                "halfspace": Halfspace(np.full(d, 1.0 / math.sqrt(d)), 0.2),
                "constant": Constant(1),
            }[kind]
        inputs = [np.full(d, a / math.sqrt(d)) for a in (0.0, 0.4, -0.8)]
        ref = [sum(int(clf.labels(x0 + block).sum()) for block in sample_chunks(fam, n, rng))
               for x0 in inputs]
        got = success_counts(clf, inputs, fam, n, rng, workers=workers)
        assert [e.successes for e in got] == ref
        assert all(0 < s < n for s in ref) or kind == "constant"

    def test_stage_one_holds_one_shard_and_a_few_slices(self):
        # at d = 16 a shard is 16,384 rows (2 MiB) and a slice 2,048 rows
        # (256 KiB): four inputs shift and label slices, never a second
        # shard-sized array
        import tracemalloc

        fam = SmoothingFamily.l2_power_tail(16, 4.0, 1.0)
        clf = BallIndicator("l2", np.zeros(16), 5.0)
        inputs = [np.full(16, 0.2 * i) for i in range(4)]
        success_counts(clf, inputs, fam, 1_000, RandomStream(2))  # lazy set-up outside the trace
        tracemalloc.start()
        try:
            success_counts(clf, inputs, fam, 100_000, RandomStream(2), workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (2 + 1) * 2**20

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
        assert success_counts(clf, [x0], fam, n, rng, workers=workers)[0].successes == ref
        assert success_counts(clf, [x0], fam, n, rng)[0].successes == ref

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_inputs_share_one_draw_and_count_like_one_input_calls(self, monkeypatch, workers):
        # every input counts its hits on the same shards: m inputs give, input
        # by input, the counts of m one-input calls on the same stream
        from smoothcert import families

        monkeypatch.setattr(families, "_SHARD_ROWS", 4_000)
        fam = SmoothingFamily.l2_power_tail(6, 2.0, 1.0)
        clf = BallIndicator("l2", np.full(6, 0.5), 2.0)
        inputs = [np.array([0.7, -0.3, 0.2, 0.0, 1.1, -0.9]), np.zeros(6), np.full(6, 0.9)]
        n, rng = 30_001, RandomStream(6)
        assert families.shard_count(fam, n) == 8
        got = success_counts(clf, inputs, fam, n, rng, workers=workers)
        assert got == [success_counts(clf, [x0], fam, n, rng)[0] for x0 in inputs]
        assert len({e.successes for e in got}) == 3
        assert np.array_equal(inputs[-1], np.full(6, 0.9))  # shifted blocks, not the input

    def test_external_stage_one_over_shards_counts_like_the_ball(self, monkeypatch):
        # the adapter counts the shards serially on its one worker, at any
        # workers, every input on the same shards
        from smoothcert import families

        monkeypatch.setattr(families, "_SHARD_ROWS", 1_500)
        fam, n, rng = SmoothingFamily.l2_power_tail(4, 1.0, 1.0), 5_000, RandomStream(9)
        inputs = [np.array([0.4, 0.0, -0.2, 0.1]), np.array([1.2, 0.3, 0.0, -0.5])]
        ball = BallIndicator("l2", np.zeros(4), 1.6)
        ref = [success_counts(ball, [x0], fam, n, rng)[0] for x0 in inputs]
        assert all(0 < e.successes < n for e in ref) and ref[0] != ref[1]
        with ExternalClassifier(WORKER + ["ball-l2", "--radius", "1.6"], batch_size=512) as ext:
            assert success_counts(ext, inputs, fam, n, rng, workers=2) == ref
            assert success_counts(ext, inputs[:1], fam, n, rng, workers=2) == ref[:1]

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_external_shards_run_on_the_pool_one_exchange_at_a_time(self, monkeypatch, workers):
        # the adapter counts on the same pool as an in-process classifier:
        # every shard drawn once on a pool thread, the counts those of the
        # ball, and the adapter's lock lets no two exchanges overlap, even
        # though each is held open long enough for another thread to try
        # (at 8 workers, more threads than cores switching every microsecond)
        import threading
        import time

        from smoothcert import classifiers, families

        monkeypatch.setattr(families, "_SHARD_ROWS", 500)
        fam, n, rng = SmoothingFamily.l2_power_tail(4, 1.0, 1.0), 5_000, RandomStream(9)
        shards = families.shard_count(fam, n)
        inputs = [np.array([0.4, 0.0, -0.2, 0.1]), np.array([1.2, 0.3, 0.0, -0.5])]
        ball = BallIndicator("l2", np.zeros(4), 1.6)
        ref = [success_counts(ball, [x0], fam, n, rng)[0] for x0 in inputs]
        caller, lock = threading.get_ident(), threading.Lock()
        draws, exchanges = [], []
        real_draw, real_transfer = classifiers.sample_chunks, ExternalClassifier._transfer

        def recording_draw(family, n, rng, shards=slice(None)):
            with lock:
                draws.append((shards.start, threading.get_ident()))
            return real_draw(family, n, rng, shards)

        def recording_transfer(self, proc, points):
            with lock:
                exchanges.append("enter")
            time.sleep(0.01)
            out = real_transfer(self, proc, points)
            with lock:
                exchanges.append("exit")
            return out

        monkeypatch.setattr(classifiers, "sample_chunks", recording_draw)
        monkeypatch.setattr(ExternalClassifier, "_transfer", recording_transfer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ExternalClassifier(WORKER + ["ball-l2", "--radius", "1.6"], batch_size=128,
                                    timeout_ms=10_000) as ext:
                got = success_counts(ext, inputs, fam, n, rng, workers=workers)
        finally:
            sys.setswitchinterval(interval)
        assert got == ref
        assert sorted(i for i, _ in draws) == list(range(shards)) and shards == 10
        assert all(thread != caller for _, thread in draws)
        assert len({thread for _, thread in draws}) <= workers
        assert exchanges == ["enter", "exit"] * shards * len(inputs)


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
            a = success_counts(in_process, [np.zeros(d)], fam, 10_000, RandomStream(7))
            b = success_counts(ext, [np.zeros(d)], fam, 10_000, RandomStream(7))
        assert a == b

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
            "header = sys.stdin.buffer.readline().split()\n"
            "n, d = int(header[1]), int(header[2])\n"
            "for _ in range(n): sys.stdin.buffer.read(8 * d)\n"
            "sys.stdout.write('banana\\n' * n)\n"
            "sys.stdout.flush()\n"
        )
        with ExternalClassifier([sys.executable, str(script)]) as ext:
            with pytest.raises(TransportError, match="malformed"):
                evaluate(ext, np.zeros((3, 2)))

    def test_padded_response_lines_are_labels(self, tmp_path):
        script = tmp_path / "padding_worker.py"
        script.write_text(
            "import sys\n"
            "header = sys.stdin.buffer.readline().split()\n"
            "n, d = int(header[1]), int(header[2])\n"
            "for _ in range(n): sys.stdin.buffer.read(8 * d)\n"
            "sys.stdout.buffer.write(b' 1\\r\\n\\t0  \\n' * (n // 2))\n"
            "sys.stdout.flush()\n"
        )
        with ExternalClassifier([sys.executable, str(script)]) as ext:
            assert evaluate(ext, np.zeros((4, 2))).tolist() == [1, 0, 1, 0]

    @pytest.mark.parametrize("reply, labels", [
        (b"", []),
        (b"1\n0\n", [1, 0]),
        (b" 1 \n\t0\r\n\x0b1\x0c\n\r\r0\n", [1, 0, 1, 0]),
    ])
    def test_reply_parse_accepts_padded_lines(self, reply, labels):
        got = ExternalClassifier._parse_labels(reply, len(labels))
        assert got.dtype == np.int8 and got.tolist() == labels

    @pytest.mark.parametrize("reply, n, message", [
        (b"1\n0 1\n1\n", 3, "malformed response line 1: b'0 1'"),
        (b"1\n0\n\n2\n", 4, "malformed response line 2: b''"),
        (b"0\n 2\n", 2, "malformed response line 1: b' 2'"),
        (b"banana\n2\n", 2, "malformed response line 0: b'banana'"),
        (b"1\n1\n1\n", 2, "more than 2 response lines"),
        (b"1\n1\n ", 2, "more than 2 response lines"),
    ])
    def test_reply_parse_names_the_first_bad_line(self, reply, n, message):
        with pytest.raises(TransportError, match=re.escape(message)):
            ExternalClassifier._parse_labels(reply, n)

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(st.lists(st.sampled_from(
               [b"0", b"1", b" ", b"\t", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x00", b"2", b"a"]),
               max_size=3).map(b"".join), max_size=6),
           tail=st.sampled_from([b"", b"\n", b"1", b" "]))
    def test_reply_parse_matches_the_line_loop(self, lines, tail):
        # the loop the vectorized parse replaced: bytes.strip per line
        def loop(reply, n):
            *rows, rest = reply.split(b"\n", n)
            if rest:
                raise TransportError(f"classifier worker sent more than {n} response lines")
            out = []
            for i, line in enumerate(rows):
                if line.strip() not in (b"0", b"1"):
                    raise TransportError(f"malformed response line {i}: {line!r}")
                out.append(int(line.strip()))
            return out

        def outcome(parse, reply, n):
            try:
                return list(parse(reply, n))
            except TransportError as exc:
                return str(exc)

        reply = b"".join(line + b"\n" for line in lines) + tail
        assert outcome(ExternalClassifier._parse_labels, reply, len(lines)) == outcome(
            loop, reply, len(lines))

    def test_extra_response_lines(self, tmp_path):
        script = tmp_path / "chatty_worker.py"
        script.write_text(
            "import sys\n"
            "header = sys.stdin.buffer.readline().split()\n"
            "n, d = int(header[1]), int(header[2])\n"
            "for _ in range(n): sys.stdin.buffer.read(8 * d)\n"
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

    def test_start_is_idempotent(self):
        with ExternalClassifier(WORKER + ["constant"]) as ext:
            proc = ext.start()
            assert ext.start() is proc and proc.poll() is None
            assert evaluate(ext, np.zeros((3, 2))).tolist() == [1, 1, 1]
            assert ext.start() is proc
        assert proc.returncode is not None

    def test_exited_worker_is_reported_not_respawned(self, tmp_path, capfd):
        # a worker that answers one request and exits: the next call raises
        # with its exit status instead of spawning a second worker
        script = tmp_path / "one_shot_worker.py"
        script.write_text(
            "import sys\n"
            "sys.stderr.write('one-shot worker up\\n')\n"
            "header = sys.stdin.buffer.readline().split()\n"
            "n, d = int(header[1]), int(header[2])\n"
            "sys.stdin.buffer.read(8 * n * d)\n"
            "sys.stdout.write('1\\n' * n)\n"
            "sys.stdout.flush()\n"
        )
        with ExternalClassifier([sys.executable, str(script)]) as ext:
            proc = ext.start()
            assert evaluate(ext, np.zeros((2, 3))).tolist() == [1, 1]
            proc.wait()
            with pytest.raises(TransportError, match="exited with status 0"):
                evaluate(ext, np.zeros((2, 3)))
        assert capfd.readouterr().err.count("one-shot worker up") == 1

    def test_worker_found_exited_at_start_names_its_status(self):
        with ExternalClassifier([sys.executable, "-c", "raise SystemExit(3)"]) as ext:
            ext.start().wait()
            with pytest.raises(TransportError, match="exited with status 3"):
                ext.start()

    def test_a_failure_latches_until_close(self, monkeypatch):
        # after a failure every call raises naming it and spawns nothing;
        # close() re-arms the adapter
        spawned, real = [], subprocess.Popen

        def counting(*args, **kwargs):
            spawned.append(real(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(subprocess, "Popen", counting)
        with ExternalClassifier([sys.executable, "-c", "raise SystemExit(4)"]) as ext:
            ext.start().wait()
            with pytest.raises(TransportError, match="exited with status 4"):
                evaluate(ext, np.zeros((2, 2)))
            for call in (ext.start, lambda: evaluate(ext, np.zeros((2, 2)))):
                with pytest.raises(TransportError, match="earlier failure: .* status 4"):
                    call()
            assert len(spawned) == 1
            ext.close()
            ext.start().wait()
            assert len(spawned) == 2

    def test_row_by_row_worker_with_large_batch(self, tmp_path):
        # a worker that answers each row as it reads it stops reading once
        # its unread replies fill the pipe (about 32k two-byte lines), so
        # the adapter must read labels while it is still writing rows
        # (1.6 MB of them, more than the request pipe holds)
        script = tmp_path / "row_worker.py"
        script.write_text(
            "import struct, sys\n"
            "while True:\n"
            "    header = sys.stdin.buffer.readline()\n"
            "    if not header:\n"
            "        break\n"
            "    n, d = map(int, header.split()[1:])\n"
            "    for _ in range(n):\n"
            "        row = struct.unpack('<%dd' % d, sys.stdin.buffer.read(8 * d))\n"
            "        sys.stdout.write('1\\n' if row[0] >= row[1] else '0\\n')\n"
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
            "    header = sys.stdin.buffer.readline()\n"
            "    if not header:\n"
            "        break\n"
            "    n, d = map(int, header.split()[1:])\n"
            "    for _ in range(n): sys.stdin.buffer.read(8 * d)\n"
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
        header, body = ExternalClassifier._request(block)
        assert header == b"EVAL64 %d %d\n" % (n, d)
        assert len(body) == 8 * n * d
        parsed = np.frombuffer(body, "<f8").reshape(n, d)
        # bit patterns, so that -0.0 must come back as -0.0
        assert np.array_equal(parsed.view(np.uint64), block.view(np.uint64))

    def test_float_roundtrip_through_protocol(self):
        # the request encoding must survive the wire exactly
        pts = np.array([[1e-17, -3.141592653589793], [2.2250738585072014e-308, 7.0]])
        threshold = 1e-17
        with ExternalClassifier(
            WORKER + ["halfspace", "--w", "1,0", "--c", repr(threshold)]
        ) as ext:
            got = evaluate(ext, pts)
        assert got.tolist() == [1, 0]


class TestReferenceWorker:
    """``eval_worker`` labels equal the in-process classifiers' labels."""

    def test_imports_the_standard_library_only(self):
        # the file is a template to copy into any Python runtime; -I and a
        # load by path keep PYTHONPATH and the smoothcert package out, and
        # the baseline drops whatever the interpreter's site set-up imported
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import importlib.util\n"
            f"spec = importlib.util.spec_from_file_location('worker', {eval_worker.__file__!r})\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print('argparse' in new, sorted(new - sys.stdlib_module_names))\n"
        )
        done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                              check=True, timeout=60)
        # True: the file really loaded; []: nothing outside the standard library
        assert done.stdout == "True []\n"

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
        done = subprocess.run(WORKER + args, input=b"EVAL64 1 3\n" + struct.pack("<3d", 0, 0, 9),
                              capture_output=True, timeout=60)
        assert done.returncode == 1 and done.stdout == b""
        assert done.stderr.count(b"\n") == 1 and b"d=3" in done.stderr
        with ExternalClassifier(WORKER + args, timeout_ms=10_000) as ext:
            with pytest.raises(TransportError):
                evaluate(ext, np.array([[0.0, 0.0, 9.0]]))

    @pytest.mark.parametrize("request_text", [
        b"EVL 1 2\n", b"EVAL a 2\n", b"EVAL 1 2\n1\n",
        pytest.param(b"EVAL 1 2\n" + bytes(16), id="text header, binary body"),
        pytest.param(b"EVAL32 1 2\n" + bytes(16), id="unknown keyword"),
        pytest.param(b"EVAL64 a 2\n" + bytes(16), id="n not a number"),
        pytest.param(b"EVAL64 1.0 2\n" + bytes(16), id="n not an integer"),
        pytest.param(b"EVAL64 -1 2\n" + bytes(16), id="n < 0"),
        pytest.param(b"EVAL64 1 0\n" + bytes(16), id="d < 1"),
        pytest.param(b"EVAL64 2 2\n" + bytes(24), id="body short of 8*n*d bytes"),
        pytest.param(b"EVAL64 %d 1\n" % 2**61, id="8*n*d past the largest read"),
    ])
    def test_malformed_request_is_one_stderr_line(self, request_text):
        done = subprocess.run(WORKER + ["ball-linf"], input=request_text, capture_output=True,
                              timeout=60)
        assert done.returncode == 1 and done.stdout == b""
        assert done.stderr.count(b"\n") == 1, done.stderr

    @pytest.mark.parametrize("header", [b"EVAL 1 2\n", b"EVAL64 -1 -2\n", b"EVAL64 1 0\n"],
                             ids=["text header", "n and d < 0", "d < 1"])
    def test_bad_header_is_rejected_before_reading_a_body(self, header):
        # the input stays open, so a worker that read first (8 n d = 16 bytes
        # when n and d are both negative) would wait for a body that never comes
        proc = subprocess.Popen(WORKER + ["ball-linf"], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            proc.stdin.write(header)
            proc.stdin.flush()
            assert proc.wait(timeout=60) == 1
            assert proc.stdout.read() == b"" and proc.stderr.read().count(b"\n") == 1
        finally:
            proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout, proc.stderr):
                pipe.close()
