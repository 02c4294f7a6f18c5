"""Drives the installed entry point through subprocess, the way users run it."""

import csv
import json
import statistics
import subprocess
import sys

import pytest

import wcds
from conftest import child_env
from wcds.graph import read_graph


def run_cli(*args, cwd, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "wcds", *args],
        cwd=cwd,
        env=child_env(env_extra),
        capture_output=True,
        text=True,
        timeout=300,
    )


def read_rows(path):
    """A CSV the CLI wrote, as one dict of column text per row."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = {"groups": 2, "eta": 4, "radius": 40.0, "mode": "group_clustered", "seed": 5}
    doc.update(overrides)
    for key in [k for k, v in doc.items() if v is None]:
        del doc[key]
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestChildEnv:
    def test_child_imports_tested_package(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", "import wcds; print(wcds.__file__)"],
            cwd=tmp_path,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == wcds.__file__


class TestExitCodes:
    def test_usage_error_is_one(self, tmp_path):
        proc = run_cli("bogus", cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: wcds"), proc.stderr

    def test_missing_required_flag_is_one(self, tmp_path):
        proc = run_cli("gen", "--n", "10", cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: wcds"), proc.stderr

    def test_runtime_error_is_two(self, tmp_path):
        proc = run_cli(
            "gen", "--n", "10", "--radius", "5", "--degree", "6", "--out", "g.txt",
            cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_negative_retry_budget_is_two(self, tmp_path):
        proc = run_cli(
            "compare", "--nmin", "20", "--nmax", "20", "--seeds", "1",
            "--retry-budget", "-1", "--out", "c.csv", cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "--retry-budget" in proc.stderr
        assert not (tmp_path / "c.csv").exists()

    def test_negative_eta_max_is_two(self, tmp_path):
        proc = run_cli("curves", "--out-dir", "curves", "--eta-max", "-1", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "--eta-max" in proc.stderr
        assert not (tmp_path / "curves").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--kbits", "0", "key width must be positive"), ("--pc", "1.5", "pc must lie strictly between 0 and 1")],
        ids=["kbits-0", "pc-1.5"],
    )
    def test_bad_curve_value_writes_no_file(self, tmp_path, flag, value, message):
        proc = run_cli("curves", "--out-dir", "curves", flag, value, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message}\n"
        assert not (tmp_path / "curves").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--radius", "nan"), "radius must be positive and finite, got nan"),
            (("--radius", "inf"), "radius must be positive and finite, got inf"),
            (("--degree", "nan"), "degree must be positive and finite, got nan"),
            (("--degree", "6", "--width", "nan"), "plane dimensions must be positive and finite, got nan x 100.0"),
        ],
        ids=["radius-nan", "radius-inf", "degree-nan", "width-nan"],
    )
    def test_non_finite_gen_input_is_two(self, tmp_path, flags, message):
        proc = run_cli("gen", "--n", "10", *flags, "--out", "g.txt", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message}\n"
        assert not (tmp_path / "g.txt").exists()

    def test_non_finite_compare_degree_is_two(self, tmp_path):
        proc = run_cli(
            "compare", "--nmin", "20", "--nmax", "20", "--seeds", "1", "--degree", "nan",
            "--retry-budget", "3", "--out", "c.csv", cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert "degree must be positive and finite, got nan" in proc.stderr
        assert not (tmp_path / "c.csv").exists()


#: A child that calls ``main`` in one process for each call of a JSON list
#: ``[argv, env, files]``, with ``env`` set for that call only, and prints per
#: call the exit code, stdout, stderr and the text of ``files`` after it.
SEQUENCE_CHILD = """
import contextlib, io, json, os, sys
from wcds.cli import main
results = []
for argv, env, files in json.loads(sys.argv[1]):
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    for name in env:
        del os.environ[name]
    results.append([code, out.getvalue(), err.getvalue(), [open(f).read() for f in files]])
print(json.dumps(results))
"""


class TestRepeatedMain:
    def test_each_call_as_when_it_runs_first(self, tmp_path):
        """``main`` keeps one parser per process: a call after others,
        a usage error among them, gives the exit code and bytes it gives as
        the first call of a process."""
        calls = [
            [["sim", "--config", "cfg.json", "--out", "a.json", "--trace", "a.jsonl"], {}, ["a.json", "a.jsonl"]],
            [["sim", "--config", "cfg.json", "--bogus"], {}, []],
            [["gen", "--n", "30", "--degree", "6", "--seed", "2", "--out", "g.txt"], {}, ["g.txt"]],
            [["sim", "--config", "noseed.json", "--trace", "b.jsonl"], {"WCDS_SEED": "9"}, ["b.jsonl"]],
        ]

        def child(workdir, calls):
            write_config(workdir)
            write_config(workdir, "noseed.json", seed=None)
            proc = subprocess.run(
                [sys.executable, "-c", SEQUENCE_CHILD, json.dumps(calls)],
                cwd=workdir, env=child_env(), capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        (tmp_path / "sequence").mkdir()
        together = child(tmp_path / "sequence", calls)
        for i, call in enumerate(calls):
            (tmp_path / f"alone{i}").mkdir()
            assert together[i] == child(tmp_path / f"alone{i}", [call])[0], call[0]
        assert [code for code, *_ in together] == [0, 1, 0, 0]
        assert together[1][2].startswith("usage: wcds")
        assert json.loads(together[3][1])["config"]["seed"] == 9


class TestGen:
    def test_writes_readable_graph(self, tmp_path):
        proc = run_cli("gen", "--n", "30", "--degree", "6", "--out", "g.txt", cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.startswith("wrote g.txt: n=30 edges=")
        with open(tmp_path / "g.txt") as fh:
            g = read_graph(fh)
        assert g.n == 30

    def test_explicit_radius(self, tmp_path):
        proc = run_cli(
            "gen", "--n", "10", "--radius", "25", "--out", "g.txt", cwd=tmp_path
        )
        assert proc.returncode == 0
        with open(tmp_path / "g.txt") as fh:
            assert read_graph(fh).radius == 25.0


class TestSim:
    def test_outcome_document_shape(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = run_cli(
            "sim", "--config", str(cfg), "--out", "o.json", "--trace", "t.jsonl",
            cwd=tmp_path,
        )
        assert proc.returncode == 0
        doc = json.loads((tmp_path / "o.json").read_text())
        assert sorted(doc) == ["config", "outcome", "rounds", "verify"]
        assert doc["config"]["seed"] == 5
        assert doc["verify"]["dominating"] is True
        assert doc["verify"]["node_count"] == 10
        assert sorted(doc["outcome"]) == [
            "coverage_failures",
            "dominator_set",
            "mediators",
            "membership",
            "message_count",
            "orphan_log",
        ]
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        assert lines
        for line in lines:
            event = json.loads(line)
            assert {"round", "node", "event", "detail"} <= set(event)

    def test_stdout_when_no_out(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = run_cli("sim", "--config", str(cfg), cwd=tmp_path)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["config"]["seed"] == 5
        # With the document on stdout, the trace's status line goes to stderr.
        proc = run_cli("sim", "--config", str(cfg), "--trace", "t.jsonl", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == doc
        assert proc.stderr == "wrote t.jsonl\n"
        assert (tmp_path / "t.jsonl").read_text().count("\n") > 0

    def test_bad_trace_path_writes_no_outcome(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = run_cli("sim", "--config", str(cfg), "--out", "o.json", "--trace", "missing/t.jsonl", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert not (tmp_path / "o.json").exists()

    def test_bad_outcome_path_writes_no_trace(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = run_cli("sim", "--config", str(cfg), "--out", "missing/o.json", "--trace", "t.jsonl", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize(
        "kept, paths",
        [("t.jsonl", ["missing/o.json", "t.jsonl"]), ("o.json", ["o.json", "missing/t.jsonl"])],
        ids=["trace kept", "outcome kept"],
    )
    def test_bad_path_leaves_existing_outputs_as_they_were(self, tmp_path, kept, paths):
        cfg = write_config(tmp_path)
        (tmp_path / kept).write_bytes(b"an earlier run's bytes\n")
        proc = run_cli("sim", "--config", str(cfg), "--out", paths[0], "--trace", paths[1], cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert (tmp_path / kept).read_bytes() == b"an earlier run's bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([cfg.name, kept])

    @pytest.mark.parametrize(
        "earlier, trace",
        [(None, "x.json"), (b"an earlier run's bytes\n", "x.json"), (b"an earlier run's bytes\n", "./sub/../x.json")],
        ids=["new file", "existing file", "another spelling"],
    )
    def test_one_path_for_both_outputs_is_refused(self, tmp_path, earlier, trace):
        cfg = write_config(tmp_path)
        (tmp_path / "sub").mkdir()
        if earlier is not None:
            (tmp_path / "x.json").write_bytes(earlier)
        proc = run_cli("sim", "--config", str(cfg), "--out", "x.json", "--trace", trace, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "same file" in proc.stderr
        if earlier is None:
            assert not (tmp_path / "x.json").exists()
        else:
            assert (tmp_path / "x.json").read_bytes() == earlier

    def test_seed_flag_beats_config(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = run_cli("sim", "--config", str(cfg), "--seed", "7", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["config"]["seed"] == 7

    def test_env_fills_missing_seed(self, tmp_path):
        cfg = write_config(tmp_path, seed=None)
        proc = run_cli(
            "sim", "--config", str(cfg), cwd=tmp_path, env_extra={"WCDS_SEED": "11"}
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["config"]["seed"] == 11

    def test_config_seed_beats_env(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = run_cli(
            "sim", "--config", str(cfg), cwd=tmp_path, env_extra={"WCDS_SEED": "11"}
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["config"]["seed"] == 5

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, radios=5)
        proc = run_cli("sim", "--config", str(cfg), cwd=tmp_path)
        assert proc.returncode == 2
        assert "radios" in proc.stderr

    def test_bad_config_value_rejected(self, tmp_path):
        for adversaries, named in [
            (True, "adversary_count"),
            ({"count": 0, "behavior": "bogus"}, "adversary_behavior"),
        ]:
            cfg = write_config(tmp_path, adversaries=adversaries)
            proc = run_cli("sim", "--config", str(cfg), "--out", "out.json", cwd=tmp_path)
            assert proc.returncode == 2
            assert named in proc.stderr
            assert not (tmp_path / "out.json").exists()

    def test_nan_literal_rejected(self, tmp_path):
        cfg = write_config(tmp_path, radius=float("nan"))
        assert '"radius": NaN' in cfg.read_text()
        proc = run_cli("sim", "--config", str(cfg), "--out", "out.json", cwd=tmp_path)
        assert proc.returncode == 2
        assert "radius must be a finite number" in proc.stderr
        assert not (tmp_path / "out.json").exists()

    def test_int_past_float_range_rejected(self, tmp_path):
        cfg = write_config(tmp_path, width=10**400)
        proc = run_cli("sim", "--config", str(cfg), "--out", "out.json", cwd=tmp_path)
        assert proc.returncode == 2
        assert "width must be a finite number" in proc.stderr
        assert not (tmp_path / "out.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        for tag in ("a", "b"):
            proc = run_cli(
                "sim", "--config", str(cfg),
                "--out", f"{tag}.json", "--trace", f"{tag}.jsonl",
                cwd=tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


class TestCompare:
    def sweep(self, tmp_path, out="cmp.csv", *extra):
        return run_cli(
            "compare", "--nmin", "20", "--nmax", "60", "--step", "20",
            "--degree", "12", "--seeds", "2", "--out", out, *extra,
            cwd=tmp_path,
        )

    def test_row_arithmetic(self, tmp_path):
        proc = self.sweep(tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.startswith("wrote cmp.csv: 21 rows")
        text = (tmp_path / "cmp.csv").read_text()
        assert len(text.splitlines()) == 22
        rows = read_rows(tmp_path / "cmp.csv")
        assert {r["method"] for r in rows} == {"ideal_eq2", "ours", "cds_alg1", "cds_alg2"}
        ideal = [r for r in rows if r["method"] == "ideal_eq2"]
        assert [(r["n"], r["seed"]) for r in ideal] == [("20", "-1"), ("40", "-1"), ("60", "-1")]
        assert {r["experiment"] for r in rows} == {"compare_deg12"}
        methods = ["ideal_eq2", "ours", "cds_alg1", "cds_alg2"]

        def mean(n, m):
            return statistics.mean(float(r["value"]) for r in rows if (int(r["n"]), r["method"]) == (n, m))

        assert [line.split() for line in proc.stdout.splitlines()[1:]] == [["n", *methods]] + [
            [str(n)] + [f"{mean(n, m):.2f}" for m in methods] for n in (20, 40, 60)
        ]

    def test_seed_flag_offsets_sweep(self, tmp_path):
        proc = self.sweep(tmp_path, "cmp.csv", "--seed", "10")
        assert proc.returncode == 0, proc.stderr
        rows = read_rows(tmp_path / "cmp.csv")
        assert {r["seed"] for r in rows} == {"-1", "10", "11"}

    def test_deterministic_output(self, tmp_path):
        for out in ("c1.csv", "c2.csv"):
            proc = self.sweep(tmp_path, out)
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()


class TestCurves:
    def test_three_files(self, tmp_path):
        proc = run_cli("curves", "--out-dir", "curves", cwd=tmp_path)
        assert proc.returncode == 0
        keys = read_rows(tmp_path / "curves" / "distinct_keys.csv")
        assert {r["method"] for r in keys} == {"keys"}
        assert all(r["value"] == r["n"] for r in keys)
        storage = read_rows(tmp_path / "curves" / "gd_storage.csv")
        assert {r["method"] for r in storage} == {"gd_bits"}
        assert all(r["eta"] == r["n"] for r in storage)
        degree = read_rows(tmp_path / "curves" / "er_degree.csv")
        assert {r["method"] for r in degree} == {"er_degree"}
        assert {r["seed"] for r in keys + storage + degree} == {"-1"}


class TestStorage:
    def test_uniform_figures(self, tmp_path):
        proc = run_cli("storage", "--alpha", "5", "--beta", "50", "--eta", "10", cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "per_gd_bits=1408",
            "per_os_bits=256",
            "total_bits=19840",
        ]

    def test_mismatched_counts_rejected(self, tmp_path):
        proc = run_cli("storage", "--alpha", "5", "--beta", "49", "--eta", "10", cwd=tmp_path)
        assert proc.returncode == 2


class TestTrace:
    def test_pretty_print(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = run_cli("sim", "--config", str(cfg), "--trace", "t.jsonl", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("trace", "t.jsonl", cwd=tmp_path)
        assert proc.returncode == 0
        raw = (tmp_path / "t.jsonl").read_text().splitlines()
        pretty = proc.stdout.splitlines()
        assert len(pretty) == len(raw)
        assert pretty[0].startswith("round ")
        assert "join_request" in pretty[0]
