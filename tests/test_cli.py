import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smoothcert.cli import main


def run_cli(args):
    return main(args)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def certify_config(out, seed=7, **overrides):
    cfg = {
        "seed": seed,
        "workers": 1,
        "out": str(out),
        "family": {"variant": "gaussian", "dim": 4, "sigma": 1.0},
        "threat": {"norm": "l2", "radius": 0.5},
        "counts": {"n1": 1000, "n2": 20000},
        "budget": {"alpha_total": 0.002},
        "classifier": {"kind": "constant", "label": 1},
        "inputs": {"vectors": [[0.0, 0.0, 0.0, 0.0]]},
    }
    cfg.update(overrides)
    return cfg


class TestRadiusClosedForm:
    def test_cohen_at_half_not_certified(self, tmp_path, capsys):
        code = run_cli(
            ["radius", "--closed-form", "cohen", "--p0", "0.5", "--out", str(tmp_path / "o")]
        )
        assert code == 0
        result = json.loads((tmp_path / "o" / "result.json").read_text())
        assert result["radius"] == 0.0
        assert result["certified"] is False
        assert result["saturated"] is False

    def test_teng_flags(self, tmp_path):
        code = run_cli(
            ["radius", "--closed-form", "teng", "--p0", "0.75", "--b", "1.0",
             "--out", str(tmp_path / "o")]
        )
        assert code == 0
        result = json.loads((tmp_path / "o" / "result.json").read_text())
        assert abs(result["radius"] - 0.6931471805599453) <= 1e-12
        assert result["certified"] is True

    def test_saturation_flagged(self, tmp_path):
        code = run_cli(
            ["radius", "--closed-form", "teng", "--p0", "1.0", "--out", str(tmp_path / "o")]
        )
        assert code == 0
        result = json.loads((tmp_path / "o" / "result.json").read_text())
        assert result["saturated"] is True

    def test_zero_cap_writes_positive_zero(self, tmp_path):
        out = tmp_path / "o"
        cfg = {"command": "radius", "out": str(out),
               "closed_form": {"method": "cohen", "p0": 0.9, "cap": 0}}
        assert run_cli(["radius", "--config", write_config(tmp_path, cfg)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["radius"] == 0.0 and math.copysign(1.0, result["radius"]) == 1.0
        assert result["certified"] is False and result["saturated"] is True

    def test_bilateral(self, tmp_path):
        code = run_cli(
            ["radius", "--closed-form", "bilateral", "--pa", "0.9", "--pb", "0.1",
             "--sigma", "2.0", "--out", str(tmp_path / "o")]
        )
        assert code == 0
        result = json.loads((tmp_path / "o" / "result.json").read_text())
        assert result["radius"] > 0.0


class TestConfigValidation:
    def test_k_at_least_d_minus_one_rejected(self, tmp_path, capsys):
        cfg = certify_config(tmp_path / "o", family={
            "variant": "l2_power_tail", "dim": 4, "k": 3.0, "sigma": 1.0,
        })
        code = run_cli(["certify", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "k" in err and "d" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = certify_config(tmp_path / "o")
        cfg["typo_field"] = 1
        code = run_cli(["certify", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "typo_field" in capsys.readouterr().err

    def test_unknown_nested_key_rejected(self, tmp_path, capsys):
        cfg = certify_config(tmp_path / "o")
        cfg["family"]["sgima"] = 2.0
        code = run_cli(["certify", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert "sgima" in capsys.readouterr().err

    def test_command_mismatch_rejected(self, tmp_path, capsys):
        cfg = certify_config(tmp_path / "o")
        cfg["command"] = "sample"
        code = run_cli(["certify", "--config", write_config(tmp_path, cfg)])
        assert code == 2

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert run_cli(["certify", "--config", str(path)]) == 2

    def test_missing_classifier(self, tmp_path, capsys):
        cfg = certify_config(tmp_path / "o")
        del cfg["classifier"]
        assert run_cli(["certify", "--config", write_config(tmp_path, cfg)]) == 2

    @pytest.mark.parametrize("probe", [
        "missing family", "dim not a number", "sigma a string", "n1 not a number",
        "missing inputs file", "nan in an input", "out not a path", "seed of 400 digits",
    ])
    def test_malformed_config_is_a_one_line_config_error(self, tmp_path, capsys, probe):
        cfg = certify_config(tmp_path / "o")
        if probe == "missing family":
            del cfg["family"]
        elif probe == "dim not a number":
            cfg["family"]["dim"] = "two"
        elif probe == "sigma a string":
            cfg["family"]["sigma"] = "1"
        elif probe == "n1 not a number":
            cfg["counts"]["n1"] = "many"
        elif probe == "missing inputs file":
            cfg["inputs"] = {"file": str(tmp_path / "absent.csv")}
        elif probe == "nan in an input":
            cfg["inputs"]["vectors"][0][2] = float("nan")
        elif probe == "seed of 400 digits":
            cfg["seed"] = 10**400
        else:
            cfg["out"] = 3
        assert run_cli(["certify", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_integer_past_the_parse_limit_is_a_config_error(self, tmp_path, capsys):
        # Python refuses to parse an integer literal of more than 4300 digits
        path = tmp_path / "config.json"
        path.write_text('{"seed": 1' + "0" * 5000 + "}")
        assert run_cli(["certify", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, probe", [
        ("certify", "n1"), ("certify", "n2"), ("pareto", "pareto.n"), ("certify", "workers"),
    ])
    def test_huge_count_or_workers_is_a_config_error(self, tmp_path, capsys, command, probe):
        # rejected while the config is parsed: nothing is drawn, no thread starts
        if command == "pareto":
            cfg = {"seed": 1, "out": str(tmp_path / "o"), "pareto": {"n": 1e12}}
        else:
            cfg = certify_config(tmp_path / "o")
            if probe == "workers":
                cfg["workers"] = 1e9
            else:
                cfg["counts"][probe] = 1e12
        assert run_cli([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert probe.split(".")[-1] in err

    @pytest.mark.parametrize("command, probe", [
        ("certify", "family.dim"), ("pareto", "pareto.dim"), ("radius", "search.iterations"),
        ("certify", "classifier.batch_size"),
        ("certify", "5 as classifier.command"), ("certify", "[] as classifier.command"),
        ("certify", "'python' as classifier.command"), ("pareto", "pareto.grids"),
        ("pareto", "pareto.x0"), ("certify", "out"), ("certify", "threat.norm"),
        ("radius", "search.norm"), ("certify", "budget.alpha_mc"), ("certify", "threat.radius"),
        ("pareto", "1,024 (variant, k) groups in pareto.grids"),
        ("certify", "classifier.center"), ("certify", "classifier.radius"),
        ("certify", "classifier.w"), ("certify", "classifier.c"), ("certify", "inputs[0]"),
        ("pareto", "1e300 in pareto.x0"), ("radius", "closed_form.cap"),
    ])
    def test_out_of_range_integer_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                     command, probe):
        # rejected while the config is parsed: no engine entry point is reached;
        # a probe names the key last, after the bad value where a key has several
        from smoothcert import cli

        def unreachable(*args, **kwargs):
            raise AssertionError("the config should have been rejected before any work")

        for name in ("certify", "certified_radius_search", "pareto_sweep"):
            monkeypatch.setattr(cli, name, unreachable)
        cfg = certify_config(tmp_path / "o")
        if probe == "family.dim":
            cfg["family"]["dim"] = 1e9
        elif probe == "pareto.dim":
            cfg = {"seed": 1, "out": str(tmp_path / "o"), "pareto": {"dim": 1e9}}
        elif probe == "search.iterations":
            cfg["search"] = {"norm": "l2", "iterations": 1e9}
        elif probe == "classifier.batch_size":
            cfg["classifier"] = {"kind": "external", "batch_size": 0,
                                 "command": [sys.executable, "-m", "smoothcert.eval_worker"]}
        elif probe.endswith("classifier.command"):
            cfg["classifier"] = {"kind": "external", "command": json.loads(
                probe.split(" as ")[0].replace("'", '"'))}
        elif probe == "pareto.grids":
            cfg = {"seed": 1, "out": str(tmp_path / "o"), "pareto": {"grids": 5}}
        elif probe.endswith("groups in pareto.grids"):
            cfg = {"seed": 1, "out": str(tmp_path / "o"), "pareto": {"grids": [
                {"variant": "linf_pure", "k_values": np.linspace(0.0, 3.0, 1000).tolist()},
                {"variant": "gaussian"}, {"variant": "mixed_norm", "k_values": [0.0] * 23}]}}
        elif probe == "pareto.x0":
            cfg = {"seed": 1, "out": str(tmp_path / "o"), "pareto": {"dim": 3, "x0": [0.0, 0.0]}}
        elif probe == "out":
            cfg["out"] = write_config(tmp_path, {}, name="a_file")
        elif probe == "threat.norm":
            cfg["threat"]["norm"] = "l1"  # no worst-shift theorem for l1 with gaussian
        elif probe == "search.norm":
            cfg["search"] = {"norm": "l1"}
        elif probe == "budget.alpha_mc":
            cfg["budget"] = {"alpha_total": 0.99, "alpha_p0": 0.3, "alpha_mc": 0.6}
        # coordinates, weights and radii are bounded so that squares and
        # dot products stay finite
        elif probe == "classifier.center":
            cfg["classifier"] = {"kind": "ball", "center": [0.0, 0.0, 0.0, 1e300], "radius": 1.0}
        elif probe == "classifier.radius":
            cfg["classifier"] = {"kind": "ball", "center": [0.0] * 4, "radius": 1e300}
        elif probe == "classifier.w":
            cfg["classifier"] = {"kind": "halfspace", "w": [1e308, 0.0, 0.0, 0.0]}
        elif probe == "classifier.c":
            cfg["classifier"] = {"kind": "halfspace", "w": [1.0, 0.0, 0.0, 0.0], "c": -1e300}
        elif probe == "inputs[0]":
            cfg["inputs"]["vectors"][0][3] = -1e300
        elif probe == "1e300 in pareto.x0":
            cfg = {"seed": 1, "out": str(tmp_path / "o"), "pareto": {"dim": 3, "x0": [0.0, 0.0, 1e300]}}
        elif probe == "closed_form.cap":
            # a negative cap would clamp every radius to -cap > 0, a certificate
            cfg = {"seed": 1, "out": str(tmp_path / "o"),
                   "closed_form": {"method": "cohen", "p0": 0.3, "cap": -5}}
        else:
            cfg["threat"]["radius"] = 1e308
        assert run_cli([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert probe.split(".")[-1] in err

    @pytest.mark.parametrize("command, probe, named", [
        ("radius", "r_max 0", "search: r_max"),
        ("radius", "r_step -0.5", "search: r_step"),
        ("pareto", "k 10 at dim 5", "pareto.grids[0]"),
        ("pareto", "scale -1", "pareto.grids[1]"),
        ("pareto", "l1 threat", "pareto.threat"),
    ])
    def test_engine_rejection_is_a_config_error_before_out(self, tmp_path, capsys, command,
                                                           probe, named):
        # the engine's own checks run while the config is parsed, so the
        # message names the key and no out directory is left behind
        out = tmp_path / "o"
        if command == "radius":
            cfg = certify_config(out, search={"norm": "l2", "r_max": 4.0})
            key, value = probe.split()
            cfg["search"][key] = float(value)
        else:
            grids = [{"variant": "l2_power_tail"}, {"variant": "mixed_norm"}]
            cfg = {"seed": 1, "out": str(out), "pareto": {"dim": 5, "grids": grids}}
            if probe == "k 10 at dim 5":
                grids[0]["k_values"] = [10]
            elif probe == "scale -1":
                grids[1]["scale_values"] = [-1]
            else:
                cfg["pareto"]["threat"] = {"norm": "l1", "radius": 0.5}
        assert run_cli([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: invalid {named}") and err.count("\n") == 1
        assert not out.exists()


# one small valid config per command (n1, n2, n <= 2,000; d <= 4); the
# external worker exits at once, so that config ends in a transport error
_FUZZ_BASES = [
    ("certify", certify_config("o", family={"variant": "l2_power_tail", "dim": 4, "k": 1.0,
                                            "sigma": 1.0},
                               counts={"n1": 500, "n2": 500},
                               classifier={"kind": "ball", "norm": "l2", "center": [0.0] * 4,
                                           "radius": 3.0})),
    ("certify", certify_config("o", family={"variant": "mixed_norm", "dim": 3, "k": 0.5,
                                            "sigma": 0.5},
                               threat={"norm": "linf", "radius": 0.05},
                               counts={"n1": 200, "n2": 200},
                               classifier={"kind": "external", "command": [sys.executable, "-c", "0"],
                                           "batch_size": 64, "timeout_ms": 2000, "dim": 3},
                               inputs={"vectors": [[0.0] * 3]})),
    ("radius", {"seed": 1, "workers": 1, "out": "o",
                "family": {"variant": "laplacian", "dim": 2, "b": 1.0},
                "search": {"norm": "l1", "r_max": 2.0, "iterations": 4, "r_step": 0.01},
                "counts": {"n1": 300, "n2": 300},
                "budget": {"alpha_total": 0.01, "alpha_p0": 0.005, "alpha_mc": 0.005},
                "classifier": {"kind": "halfspace", "w": [1.0, 0.0], "c": -5.0},
                "inputs": {"vectors": [[0.0, 0.0], [1.0, 1.0]]}}),
    ("radius", {"seed": 1, "out": "o",
                "closed_form": {"method": "teng", "p0": 0.9, "b": 1.0, "cap": 100.0}}),
    ("sample", {"seed": 1, "workers": 1, "out": "o", "n": 100,
                "family": {"variant": "linf_pure", "dim": 3, "k": 1.0, "sigma": 1.0}}),
    ("pareto", {"seed": 1, "workers": 2, "out": "o", "pareto": {
        "dim": 3, "n": 300,
        "truth": {"kind": "ball", "norm": "linf", "center": [0.0] * 3, "radius": 1.0},
        "threat": {"norm": "linf", "radius": 0.1},
        "grids": [{"variant": "mixed_norm", "k_values": [0.0, 1.0], "scale_values": [0.5]},
                  {"variant": "gaussian", "scale_values": [0.5]}],
        "x0": [0.0] * 3}}),
    ("verify", {"seed": 1, "workers": 1, "out": "o",
                "verify": {"n": 100, "n_radial": 8, "n_angular": 8}}),
]
# no empty object: in place of a section whose keys all have defaults
# (pareto, verify) it is a valid full-size run
_MALFORMED = ["", "x", "1", True, False, None, [], [[1.0]], [1.0, [2.0]], [{}], {"a": {}},
              -1, -0.5, 0, 0.5, 2.5, 1e12, 1e308, -1e308]


def _key_paths(value, prefix=()):
    """The path of every key and list item inside a config document."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


@st.composite
def _one_malformed_key(draw):
    command, base = draw(st.sampled_from(_FUZZ_BASES))
    path = draw(st.sampled_from(sorted(_key_paths(base), key=str)))
    cfg = json.loads(json.dumps(base))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(st.sampled_from(_MALFORMED))
    return command, cfg


class TestConfigFuzz:
    # an overflow while labelling is a wrong label, so it fails the test
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(derandomize=True, max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_one_malformed_key())
    def test_one_malformed_key_exits_cleanly(self, tmp_path_factory, case):
        # every exit is a documented code; 2 and 3 come with one stderr line
        command, cfg = case
        workdir = tmp_path_factory.mktemp("fuzz")
        path = write_config(workdir, cfg)
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(workdir)  # a fuzzed "out" is a relative path
        try:
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", path])
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2, 3)
        if code in (2, 3):
            assert err.getvalue().count("\n") == 1, err.getvalue()


class TestWorkerInvariance:
    @pytest.mark.parametrize("command", ["certify", "radius", "pareto", "pareto-external"])
    def test_result_does_not_depend_on_workers(self, tmp_path, command):
        fam = {"variant": "l2_power_tail", "dim": 6, "k": 2.0, "sigma": 1.0}
        cfg = {
            "seed": 19,
            "family": fam,
            "counts": {"n1": 2000, "n2": 20_001},
            "budget": {"alpha_total": 0.002},
            "classifier": {"kind": "ball", "norm": "l2", "center": [0.0] * 6, "radius": 6.0},
            "inputs": {"vectors": [[0.0] * 6, [0.3] + [0.0] * 5, [0.0, 0.5] + [0.0] * 4]},
        }
        if command == "certify":
            cfg["threat"] = {"norm": "l2", "radius": 0.4}
        elif command == "radius":
            cfg["search"] = {"norm": "l2", "r_max": 3.0}
        else:
            cfg = {"seed": 19, "pareto": {
                "dim": 3, "n": 4001,
                "threat": {"norm": "linf", "radius": 0.4},
                "grids": [
                    {"variant": "mixed_norm", "k_values": [0.0, 1.0], "scale_values": [0.3, 0.8]},
                    {"variant": "l2_power_tail", "k_values": [0.0, 1.0], "scale_values": [0.3, 0.8]},
                ],
            }}
            if command == "pareto-external":
                # one EVAL worker must not be driven from two pool threads at once
                cfg["pareto"]["truth"] = {"kind": "external", "batch_size": 64, "command": [
                    sys.executable, "-m", "smoothcert.eval_worker", "ball-l2", "--radius", "0.65"]}
        bodies = []
        for workers in (1, 2, 4):
            out = tmp_path / f"w{workers}"
            path = write_config(tmp_path, {**cfg, "out": str(out)}, name=f"w{workers}.json")
            assert run_cli([command.split("-")[0], "--config", path,
                            "--workers", str(workers)]) == 0
            result = json.loads((out / "result.json").read_text())
            assert result["config"].pop("workers") == workers
            result["config"].pop("out")
            bodies.append(json.dumps(result, sort_keys=True))
        assert bodies[0] == bodies[1] == bodies[2]

    @pytest.mark.parametrize("command", ["certify", "radius"])
    def test_stage_one_shards_do_not_depend_on_workers(self, tmp_path, monkeypatch, command):
        # one input: the stage-1 shards run on the pool, each drawn through
        # sample_chunks on a pool thread, and result.json is byte-identical
        import threading

        from smoothcert import classifiers, families

        monkeypatch.setattr(families, "_SHARD_ROWS", 700)
        real, threads = classifiers.sample_chunks, []

        def recording(*args, **kwargs):
            threads.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(classifiers, "sample_chunks", recording)
        cfg = {
            "seed": 23,
            "family": {"variant": "l2_power_tail", "dim": 6, "k": 2.0, "sigma": 1.0},
            "counts": {"n1": 2000, "n2": 20_001},
            "budget": {"alpha_total": 0.002},
            "classifier": {"kind": "ball", "norm": "l2", "center": [0.0] * 6, "radius": 6.0},
            "inputs": {"vectors": [[0.3] + [0.0] * 5]},
        }
        if command == "certify":
            cfg["threat"] = {"norm": "l2", "radius": 0.4}
        else:
            cfg["search"] = {"norm": "l2", "r_max": 3.0}
        bodies = []
        for workers in (1, 2, 4):
            out = tmp_path / f"w{workers}"
            path = write_config(tmp_path, {**cfg, "out": str(out)}, name=f"w{workers}.json")
            threads.clear()
            assert run_cli([command, "--config", path, "--workers", str(workers)]) == 0
            on_pool = [t != threading.get_ident() for t in threads]
            assert on_pool == ([False] if workers == 1 else [True] * 3)
            bodies.append((out / "result.json").read_bytes().replace(
                f'"workers": {workers}'.encode(), b"").replace(str(out).encode(), b""))
        assert bodies[0] == bodies[1] == bodies[2]


class TestCertifyCommand:
    def test_end_to_end_and_reproducible(self, tmp_path):
        out = tmp_path / "run"
        cfg = certify_config(out)
        path = write_config(tmp_path, cfg)
        assert run_cli(["certify", "--config", path]) == 0
        first = (out / "result.json").read_bytes()
        result = json.loads(first)
        assert result["certificates"][0]["certified"] is True
        assert result["engine_version"]
        assert result["config"]["seed"] == 7
        summary = (out / "summary.csv").read_text()
        assert "input_id,p0_lower,radius,bound,certified" in summary
        # rerun: byte-identical result.json
        assert run_cli(["certify", "--config", path]) == 0
        assert (out / "result.json").read_bytes() == first

    @pytest.mark.parametrize("inputs", [1, 3])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_draws_stage_two_once(self, tmp_path, monkeypatch, inputs, workers):
        # stage 2 depends only on (family, threat): one draw of its statistics
        # per run, straight from their law, however many inputs share it
        from smoothcert import discrepancy

        drawn: list[int] = []
        real = discrepancy._direct_statistics

        def counting(family, n, g):
            drawn.append(n)
            return real(family, n, g)

        def no_rows(*args, **kwargs):
            raise AssertionError("the l2 ray needs no full rows")

        monkeypatch.setattr(discrepancy, "_direct_statistics", counting)
        monkeypatch.setattr(discrepancy, "sample_chunks", no_rows)
        out = tmp_path / "run"
        cfg = certify_config(out, workers=workers, inputs={"vectors": [[0.1 * i, 0.0, 0.0, 0.0]
                                                                       for i in range(inputs)]})
        assert run_cli(["certify", "--config", write_config(tmp_path, cfg)]) == 0
        assert drawn == [20_000]
        certs = json.loads((out / "result.json").read_text())["certificates"]
        assert len(certs) == inputs and all(c["certified"] for c in certs)

    def test_every_input_reads_the_shared_draw(self, tmp_path):
        # each certificate is dual_lower_bound at its own p0_lower on the one
        # draw of stream root.child(MAX_INPUTS); stage 1 of input idx draws the
        # shards of root.child(idx).child(0), so its p0_lower values are frozen here
        from smoothcert import RandomStream, SmoothingFamily, ThreatModel, dual_lower_bound
        from smoothcert.cli import MAX_INPUTS
        from smoothcert.discrepancy import noise_statistics

        out = tmp_path / "run"
        cfg = certify_config(
            out, workers=2,
            classifier={"kind": "ball", "norm": "l2", "center": [0.0] * 4, "radius": 3.5},
            inputs={"vectors": [[0.0] * 4, [1.0, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0]]},
        )
        assert run_cli(["certify", "--config", write_config(tmp_path, cfg)]) == 0
        certs = json.loads((out / "result.json").read_text())["certificates"]
        assert [c["p0_lower"] for c in certs] == [
            0.9789826241354583, 0.9432267199419356, 0.4816545573121209]
        assert [c["status"] for c in certs] == ["certified", "certified", "abstain"]
        threat = ThreatModel("l2", 0.5)
        shared = noise_statistics(SmoothingFamily.gaussian(4, 1.0), 20_000,
                                  RandomStream(7).child(MAX_INPUTS))
        for cert in certs[:2]:
            dual = dual_lower_bound(cert["p0_lower"], threat, cert["budget"]["alpha_mc"], shared)
            assert [cert[k] for k in ("bound", "lambda_star", "d_mean", "epsilon", "std_error")] == [
                min(dual.bound, 1.0), dual.lambda_star, dual.d_mean, dual.epsilon, dual.std_error]

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "run"
        cfg = certify_config(out)
        path = write_config(tmp_path, cfg)
        assert run_cli(["certify", "--config", path, "--seed", "9", "--n1", "500"]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["config"]["seed"] == 9
        assert result["config"]["counts"]["n1"] == 500

    def test_trace_export(self, tmp_path):
        # the optimum's decomposition goes to result.json; abstentions carry nulls
        out = tmp_path / "run"
        cfg = certify_config(out, inputs={"vectors": [[0.0] * 4]})
        cfg["classifier"] = {"kind": "ball", "norm": "l2", "center": [0.0] * 4, "radius": 3.0}
        cfg["inputs"]["vectors"].append([50.0, 0.0, 0.0, 0.0])
        assert run_cli(["certify", "--config", write_config(tmp_path, cfg)]) == 0
        certified, abstained = json.loads((out / "result.json").read_text())["certificates"]
        assert certified["certified"] is True and abstained["status"] == "abstain"
        decomposed = (certified["lambda_star"] * certified["p0_lower"]
                      - certified["d_mean"] - certified["epsilon"])
        assert abs(certified["bound"] - decomposed) <= 1e-12
        assert certified["std_error"] > 0.0
        assert [abstained[k] for k in ("d_mean", "epsilon", "std_error")] == [None, None, None]
        assert not list(out.glob("trace_*.csv"))

    def test_transport_error_exit_code(self, tmp_path):
        out = tmp_path / "run"
        cfg = certify_config(
            out,
            classifier={
                "kind": "external",
                "command": [sys.executable, "-c", "raise SystemExit(1)"],
                "timeout_ms": 2000,
            },
        )
        assert run_cli(["certify", "--config", write_config(tmp_path, cfg)]) == 3

    def test_worker_center_of_the_wrong_length_exits_3(self, tmp_path, capsys):
        cfg = certify_config(tmp_path / "run", classifier={
            "kind": "external", "timeout_ms": 10_000,
            "command": [sys.executable, "-m", "smoothcert.eval_worker", "ball-l2", "--center", "0,0"]})
        assert run_cli(["certify", "--config", write_config(tmp_path, cfg)]) == 3
        assert capsys.readouterr().err.count("\n") == 1

    def test_external_loopback(self, tmp_path):
        out = tmp_path / "run"
        cfg = certify_config(
            out,
            counts={"n1": 400, "n2": 2000},
            classifier={
                "kind": "external",
                "command": [sys.executable, "-m", "smoothcert.eval_worker", "constant", "--label", "1"],
            },
        )
        assert run_cli(["certify", "--config", write_config(tmp_path, cfg)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["certificates"][0]["p0_lower"] > 0.95


class TestSampleCommand:
    def test_writes_samples_and_stats(self, tmp_path):
        out = tmp_path / "run"
        cfg = {
            "seed": 3, "workers": 1, "out": str(out), "n": 250,
            "family": {"variant": "l2_power_tail", "dim": 6, "k": 2.0, "sigma": 1.0},
        }
        assert run_cli(["sample", "--config", write_config(tmp_path, cfg)]) == 0
        rows = (out / "samples.csv").read_text().strip().splitlines()
        assert rows[0] == "# engine_version=0.1.0" and rows[1].startswith("# config=")
        assert rows[2] == "z0,z1,z2,z3,z4,z5"
        assert len(rows) == 253
        result = json.loads((out / "result.json").read_text())
        assert result["radius_stats"]["mode"] == pytest.approx(np.sqrt(3.0))

    def test_streams_blocks(self, tmp_path, monkeypatch):
        # three sample_chunks shards: the file holds exactly their rows, and
        # the norm moments combine across blocks
        from smoothcert import RandomStream, SmoothingFamily, families, sample_chunks

        monkeypatch.setattr(families, "_SHARD_ROWS", 100)
        out = tmp_path / "run"
        cfg = {
            "seed": 3, "workers": 1, "out": str(out), "n": 250,
            "family": {"variant": "l2_power_tail", "dim": 6, "k": 2.0, "sigma": 1.0},
        }
        assert run_cli(["sample", "--config", write_config(tmp_path, cfg)]) == 0
        blocks = list(sample_chunks(SmoothingFamily.l2_power_tail(6, 2.0, 1.0), 250, RandomStream(3)))
        assert len(blocks) == 3
        expected = np.concatenate(blocks)
        rows = (out / "samples.csv").read_text().strip().splitlines()[3:]
        assert np.array_equal(np.array([[float(v) for v in row.split(",")] for row in rows]), expected)
        summary = (out / "summary.csv").read_text().strip().splitlines()[3].split(",")
        norms = np.linalg.norm(expected, axis=1)
        assert float(summary[1]) == pytest.approx(norms.mean(), rel=1e-12)
        assert float(summary[2]) == pytest.approx(norms.std(), rel=1e-12)

    def test_high_power_mixed_norm_draws(self, tmp_path):
        # (100, 60) starved the old rejection sampler, which exited 4
        out = tmp_path / "run"
        cfg = {
            "seed": 3, "workers": 1, "out": str(out), "n": 100,
            "family": {"variant": "mixed_norm", "dim": 100, "k": 60.0, "sigma": 1.0},
        }
        assert run_cli(["sample", "--config", write_config(tmp_path, cfg)]) == 0
        assert len((out / "samples.csv").read_text().strip().splitlines()) == 103

    def test_sampler_setup_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # a (d, k) whose l-inf law cannot be inverted raises a DomainError
        # naming (d, k), which the CLI reports as a config error
        from scipy.stats import sampling

        def fail(*args, **kwargs):
            raise sampling.UNURANError("condition for method violated")

        monkeypatch.setattr(sampling, "NumericalInversePolynomial", fail)
        cfg = {
            "seed": 3, "workers": 1, "out": str(tmp_path / "run"), "n": 10,
            "family": {"variant": "mixed_norm", "dim": 9, "k": 2.75, "sigma": 1.0},
        }
        assert run_cli(["sample", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "d=9, k=2.75" in err
        assert len(err.strip().splitlines()) == 1


class TestSeedEnvVar:
    def test_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SMOOTHCERT_SEED", "123")
        out = tmp_path / "run"
        assert run_cli(
            ["radius", "--closed-form", "cohen", "--p0", "0.9", "--out", str(out)]
        ) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["config"]["seed"] == 123

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SMOOTHCERT_SEED", "123")
        out = tmp_path / "run"
        assert run_cli(
            ["radius", "--closed-form", "cohen", "--p0", "0.9", "--seed", "5",
             "--out", str(out)]
        ) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["config"]["seed"] == 5


class TestRadiusSearchCommand:
    def test_search_mode(self, tmp_path):
        out = tmp_path / "run"
        cfg = {
            "seed": 2, "workers": 1, "out": str(out),
            "family": {"variant": "gaussian", "dim": 3, "sigma": 1.0},
            "search": {"norm": "l2", "r_max": 3.0, "iterations": 8, "r_step": 0.05},
            "counts": {"n1": 1000, "n2": 10000},
            "budget": {"alpha_total": 0.002},
            "classifier": {"kind": "constant", "label": 1},
            "inputs": {"vectors": [[0.0, 0.0, 0.0]]},
        }
        assert run_cli(["radius", "--config", write_config(tmp_path, cfg)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["radius"] > 0.5
        assert result["certificate"]["certified"] is True

    def test_snap_to_zero_writes_no_certificate(self, tmp_path):
        # r_step wider than the certified radius (about 1.9): radius 0, and
        # no certified certificate beside it
        out = tmp_path / "run"
        cfg = {
            "seed": 1, "workers": 1, "out": str(out),
            "family": {"variant": "gaussian", "dim": 3, "sigma": 1.0},
            "search": {"norm": "l2", "r_max": 4.0, "r_step": 5.0},
            "counts": {"n1": 1000, "n2": 10000},
            "budget": {"alpha_total": 0.002},
            "classifier": {"kind": "constant", "label": 1},
            "inputs": {"vectors": [[0.0, 0.0, 0.0]]},
        }
        assert run_cli(["radius", "--config", write_config(tmp_path, cfg)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert (result["radius"], result["certified"], result["certificate"]) == (0.0, False, None)

    def test_draws_stage_two_once(self, tmp_path, monkeypatch):
        # the job draws the search's statistics once, straight from their law,
        # on RandomStream(seed).child(1); stage 1 draws the shards of
        # RandomStream(seed).child(0), and the values are frozen here
        from smoothcert import discrepancy

        drawn: list[int] = []
        real = discrepancy._direct_statistics

        def counting(family, n, g):
            drawn.append(n)
            return real(family, n, g)

        def no_rows(*args, **kwargs):
            raise AssertionError("the l2 ray needs no full rows")

        monkeypatch.setattr(discrepancy, "_direct_statistics", counting)
        monkeypatch.setattr(discrepancy, "sample_chunks", no_rows)
        out = tmp_path / "run"
        cfg = certify_config(
            out, search={"norm": "l2", "r_max": 3.0},
            classifier={"kind": "ball", "norm": "l2", "center": [0.0] * 4, "radius": 3.5},
            inputs={"vectors": [[1.0, 0.0, 0.0, 0.0]]},
        )
        del cfg["threat"]
        assert run_cli(["radius", "--config", write_config(tmp_path, cfg)]) == 0
        assert drawn == [20_000]
        result = json.loads((out / "result.json").read_text())
        cert = result["certificate"]
        assert (result["radius"], cert["p0_lower"], cert["bound"]) == (
            1.386474609375, 0.9310364471745285, 0.5000722065883638)


class TestVerifyCommand:
    def test_verify_runs_all_checks(self, tmp_path):
        out = tmp_path / "run"
        cfg = {
            "seed": 8, "workers": 1, "out": str(out),
            "verify": {"n": 30_000, "n_radial": 256, "n_angular": 512},
        }
        assert run_cli(["verify", "--config", write_config(tmp_path, cfg)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert all(result["checks"].values())
        for name in ("thin_shell.csv", "mean_variance.csv", "reconciliation.csv",
                     "worst_delta.csv", "summary.csv"):
            assert (out / name).exists()


class TestParetoCommand:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "run"
        cfg = {
            "seed": 4, "workers": 2, "out": str(out),
            "pareto": {
                "dim": 3, "n": 5000,
                "threat": {"norm": "linf", "radius": 0.4},
                "grids": [
                    {"variant": "mixed_norm", "k_values": [0.0, 1.0], "scale_values": [0.3, 0.8]},
                    {"variant": "l2_power_tail", "k_values": [0.0, 1.0], "scale_values": [0.3, 0.8]},
                ],
            },
        }
        assert run_cli(["pareto", "--config", write_config(tmp_path, cfg)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert len(result["points"]) == 8
        assert "mixed_norm_dominance" in result
        rows = (out / "pareto.csv").read_text().splitlines()
        assert rows[2].startswith("variant") or rows[2].startswith("mixed")


class TestImportCost:
    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs 0.3-0.7 s to import; only the first mixed_norm
        # draw may load it, so every other run starts without it
        code = "import sys, smoothcert.cli; print('scipy.stats' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert done.stdout.strip() == "False"
