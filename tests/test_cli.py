import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bgft
from bgft.cli import main, read_signal, write_signal

from conftest import birth_death_chain, transient_chain


def run(args, out_path):
    return main(args + ["--out", str(out_path)])


@pytest.fixture
def no_transition(monkeypatch):
    """Make building a transition operator fail: a command that reaches it
    has not refused its input first."""
    def transition(g):
        raise AssertionError(f"transition built for n={g.n}")

    monkeypatch.setattr(bgft.markov, "transition", transition)


class TestSignalIO:
    def test_round_trip(self, tmp_path):
        x = np.array([1 + 2j, -0.5, 3.25j])
        path = tmp_path / "sig.txt"
        with open(path, "w") as fh:
            write_signal(x, fh)
        assert np.array_equal(read_signal(path), x)

    def test_bare_reals_and_comments(self, tmp_path):
        path = tmp_path / "sig.txt"
        path.write_text("# header\n1.5\n2.0 -3.0\n")
        assert np.array_equal(read_signal(path), [1.5, 2 - 3j])

    @pytest.mark.parametrize("text, dtype", [
        ("1.5\n-2.0\n", np.float64),
        ("1.5 0\n-2.0 0.0\n", np.float64),
        ("1.5\n-2.0 0.5\n", np.complex128),
    ])
    def test_real_values_read_as_real(self, tmp_path, text, dtype):
        path = tmp_path / "sig.txt"
        path.write_text(text)
        x = read_signal(path)
        assert x.dtype == dtype
        assert np.array_equal(x.real, [1.5, -2.0])

    def test_bad_line(self, tmp_path):
        path = tmp_path / "sig.txt"
        path.write_text("1.0\nx y\n")
        with pytest.raises(bgft.BgftError):
            read_signal(path)

    def test_stops_past_node_cap(self, tmp_path):
        path = tmp_path / "long.sig"
        path.write_text("1.0\n" * bgft.graphs.MAX_NODES)
        assert read_signal(path).shape == (bgft.graphs.MAX_NODES,)
        path.write_text("1.0\n" * (bgft.graphs.MAX_NODES + 1))
        with pytest.raises(bgft.BgftError, match="long.sig:4097: more than MAX_NODES=4096"):
            read_signal(path)


class TestIndices:
    def test_directed_cycle_table1_values(self, tmp_path, capfd):
        out = tmp_path / "r.json"
        assert run(["indices", "--graph", "directed-cycle", "--format", "json"], out) == 0
        rec = json.loads(out.read_text())[0]
        assert rec["alpha"] == pytest.approx(1.4142135623730951, abs=1e-12)
        assert rec["delta"] == pytest.approx(0.0, abs=1e-14)
        assert rec["cond_v"] == pytest.approx(1.0, abs=1e-6)
        assert rec["spectral_radius"] == pytest.approx(1.0, abs=1e-10)

    def test_undirected_alpha_zero(self, tmp_path):
        out = tmp_path / "r.json"
        run(["indices", "--graph", "undirected-cycle", "--format", "json"], out)
        rec = json.loads(out.read_text())[0]
        assert rec["alpha"] == 0.0
        assert rec["reversible"] is True

    @pytest.mark.parametrize("cmd", [["indices"], ["reconstruct", "--k", "2", "--m", "3"]])
    def test_four_node_undirected_cycle(self, tmp_path, cmd):
        # Its P is symmetric; LAPACK's parallel eigenvectors for the double
        # eigenvalue 0 must not make it look defective.
        out = tmp_path / "r.json"
        assert run([*cmd, "--graph", "undirected-cycle", "--n", "4", "--format", "json"],
                   out) == 0
        rec = json.loads(out.read_text())[0]
        if cmd == ["indices"]:
            assert rec["cond_v"] == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_delta(self, tmp_path):
        out = tmp_path / "r.json"
        run(["indices", "--graph", "perturbed-cycle", "--format", "json"], out)
        rec = json.loads(out.read_text())[0]
        assert rec["delta"] == pytest.approx(0.02987165083714049, abs=1e-12)

    def test_graph_from_file(self, tmp_path):
        gpath = tmp_path / "g.edges"
        bgft.save_edge_list(bgft.directed_cycle(16), gpath)
        out = tmp_path / "r.json"
        assert run(["indices", "--graph", "file", "--input", str(gpath),
                    "--format", "json"], out) == 0
        rec = json.loads(out.read_text())[0]
        assert rec["alpha"] == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_transient_node_not_reversible(self, tmp_path, capsys):
        # stationary() refuses the chain, which indices reports as False
        gpath = tmp_path / "t.edges"
        bgft.save_edge_list(transient_chain(), gpath)
        assert main(["indices", "--graph", "file", "--input", str(gpath)]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert dict(zip(header.split(), row.split()))["reversible"] == "False"

    def test_widely_spread_pi_reversible(self, tmp_path, capsys):
        # birth-death chains: pi spreads over 3.1e10 (n=12, r=0.1) to 3.0e23
        # (n=40, r=0.2), and detailed balance holds to roundoff with
        # stationary's pi
        gpath = tmp_path / "bd.edges"
        for n, r in [(12, 0.1), (20, 0.1), (40, 0.2), (60, 0.3)]:
            bgft.save_edge_list(birth_death_chain(n, r), gpath)
            assert main(["indices", "--graph", "file", "--input", str(gpath)]) == 0
            header, row = capsys.readouterr().out.splitlines()
            assert dict(zip(header.split(), row.split()))["reversible"] == "True"

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        run(["indices", "--graph", "directed-cycle", "--format", "csv"], out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("graph,alpha,delta")
        assert len(lines) == 2


class TestFilter:
    def _signal(self, tmp_path, n=64, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        path = tmp_path / "x.sig"
        with open(path, "w") as fh:
            write_signal(x, fh)
        return x, path

    def test_tau_zero_identity(self, tmp_path):
        x, path = self._signal(tmp_path)
        out = tmp_path / "y.sig"
        assert run(["filter", str(path), "--tau", "0"], out) == 0
        assert np.linalg.norm(read_signal(out) - x) <= 1e-10 * np.linalg.norm(x)

    def test_constant_unchanged(self, tmp_path, capsys):
        path = tmp_path / "ones.sig"
        with open(path, "w") as fh:
            write_signal(np.ones(64), fh)
        out = tmp_path / "y.sig"
        run(["filter", str(path), "--tau", "2"], out)
        assert np.linalg.norm(read_signal(out) - 1.0) <= 1e-8 * 8
        # norms print as plain floats (not numpy scalar reprs)
        assert capsys.readouterr().err.startswith("||x||2 = 8.0 ||Hx||2 = ")

    def test_huge_tau_warns_nothing(self, tmp_path, capsys):
        # tau (1 - lambda) overflows, and the heat response takes its exact
        # limit 0 quietly: stderr holds the norms line alone.
        _, path = self._signal(tmp_path, n=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["filter", str(path), "--graph", "perturbed-cycle", "--n", "8",
                        "--tau", "1e308"], tmp_path / "y.sig") == 0
        err = capsys.readouterr().err
        assert err.startswith("||x||2 = ") and err.count("\n") == 1

    def test_length_mismatch_exit_code(self, tmp_path):
        path = tmp_path / "short.sig"
        path.write_text("1.0 0.0\n")
        out = tmp_path / "y.sig"
        assert run(["filter", str(path)], out) == 1


class TestDiffuse:
    def test_directed_cycle_norm_constant(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(64)
        path = tmp_path / "x.sig"
        with open(path, "w") as fh:
            write_signal(x, fh)
        out = tmp_path / "traj.json"
        assert run(["diffuse", str(path), "--graph", "directed-cycle",
                    "--t", "10", "--format", "json"], out) == 0
        recs = json.loads(out.read_text())
        assert len(recs) == 11
        norms = [r["norm"] for r in recs]
        assert norms == pytest.approx([np.linalg.norm(x)] * 11, rel=1e-12)
        for r in recs:
            assert r["norm"] <= r["bound"] + 1e-8

    def test_bound_slack_is_relative(self, tmp_path):
        # The iterate bound's roundoff is relative to it: rho reads 1 - 2e-16
        # here, so at t = 8 the bound on this constant signal's conserved
        # norm 1.6e7 is 1.1e-8 below it, past an absolute slack of 1e-8.
        path = tmp_path / "c.sig"
        path.write_text("1e6\n" * 256)
        out = tmp_path / "traj.json"
        assert run(["diffuse", str(path), "--graph", "undirected-cycle", "--n", "256",
                    "--format", "json"], out) == 0
        norms = [r["norm"] for r in json.loads(out.read_text())]
        assert norms == pytest.approx([1.6e7] * 21, rel=1e-12)

    def test_bound_exceeded_is_an_error(self, tmp_path, monkeypatch, capsys):
        # With the bound halved, the first iterate (t = 0, norm ||x||)
        # already exceeds it: one error line and exit status 1 (main
        # returns, so nothing was raised), and no output file.
        path = tmp_path / "ones.sig"
        path.write_text("1.0\n" * 8)
        iterate_bound = bgft.transform.iterate_bound
        monkeypatch.setattr(bgft.transform, "iterate_bound",
                            lambda basis, t: iterate_bound(basis, t) / 2)
        out = tmp_path / "traj.json"
        assert run(["diffuse", str(path), "--graph", "directed-cycle", "--n", "8"], out) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert re.fullmatch(r"error: iterate norm \S+ exceeds bound \S+ at t=0\n", err)
        assert not out.exists()

    def test_ones_norm_sqrt_n(self, tmp_path):
        path = tmp_path / "ones.sig"
        with open(path, "w") as fh:
            write_signal(np.ones(64), fh)
        out = tmp_path / "traj.json"
        run(["diffuse", str(path), "--graph", "perturbed-cycle",
             "--t", "5", "--format", "json"], out)
        for r in json.loads(out.read_text()):
            assert r["norm"] == pytest.approx(8.0, abs=1e-10)


class TestReconstruct:
    def test_noiseless_perturbed(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["reconstruct", "--graph", "perturbed-cycle", "--format",
                    "json", "--seed", "3"], out) == 0
        rec = json.loads(out.read_text())[0]
        assert rec["rel_err"] <= 1e-4
        assert not rec["rank_deficient"]

    def test_full_sampling(self, tmp_path):
        out = tmp_path / "r.json"
        run(["reconstruct", "--graph", "perturbed-cycle", "--m", "64",
             "--format", "json"], out)
        assert json.loads(out.read_text())[0]["rel_err"] <= 1e-8

    def test_noise_within_bound(self, tmp_path):
        out = tmp_path / "r.json"
        run(["reconstruct", "--graph", "perturbed-cycle", "--noise", "1e-3",
             "--format", "json", "--seed", "5"], out)
        rec = json.loads(out.read_text())[0]
        # rel_err * ||x|| must sit under the absolute noise bound
        assert rec["noise_bound"] > 0

    def test_bad_sizes_exit_code(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["reconstruct", "--k", "30", "--m", "20"], out) == 1


BAD_INPUTS = [
    # argv, BGFT_SEED (None: unset), expected message fragment
    pytest.param(["table1"], "abc", "BGFT_SEED must be an integer, got 'abc'",
                 id="env-seed-not-int"),
    pytest.param(["reconstruct", "--seed", "-1"], None,
                 "--seed must be >= 0, got -1", id="negative-seed-flag"),
    pytest.param(["reconstruct"], "-3", "BGFT_SEED must be >= 0, got -3",
                 id="negative-env-seed"),
    pytest.param(["filter", "{tmp}/missing"], None, "cannot read signal file",
                 id="missing-signal-file"),
    pytest.param(["indices", "--graph", "file", "--input", "{tmp}/missing"], None,
                 "cannot read graph file", id="missing-graph-file"),
    pytest.param(["indices", "--graph", "file", "--input", "{tmp}/missing.mtx"], None,
                 "cannot read graph file {tmp}/missing.mtx: No such file",
                 id="missing-mtx-file"),
    pytest.param(["indices", "--graph", "file", "--input", "{tmp}/dir.mtx"], None,
                 "cannot read graph file {tmp}/dir.mtx: Is a directory", id="directory-as-mtx"),
    pytest.param(["table1", "--k", "30", "--m", "20"], None,
                 "need 1 <= K <= m <= n", id="table1-k-above-m"),
    pytest.param(["indices", "--out", "{tmp}/missing/r.json"], None, "cannot write",
                 id="unwritable-out"),
    pytest.param(["filter", "{tmp}/nan.sig"], None, "nan.sig:2: non-finite value",
                 id="nan-in-signal"),
    pytest.param(["diffuse", "{tmp}/inf.sig"], None, "inf.sig:2: non-finite value",
                 id="inf-in-signal"),
    pytest.param(["diffuse", "{tmp}/missing", "--t", "-1"], None,
                 "--t must be >= 0, got -1", id="negative-t"),
    pytest.param(["diffuse", "{tmp}/missing", "--t", "10001"], None,
                 "--t must be <= MAX_DIFFUSE_STEPS=10000, got 10001", id="t-over-cap"),
    pytest.param(["indices", "--graph", "file", "--input", "{tmp}/header.edges"], None,
                 "header.edges:3: node index 7 >= node count 5", id="index-past-header"),
    pytest.param(["indices", "--graph", "file", "--input", "{tmp}/sum.edges"], None,
                 "sum.edges:2: summed weight of edge 0 -> 1 is not finite",
                 id="summed-weight-overflow"),
    *[pytest.param(["filter", "{tmp}/x.sig", "--graph", "directed-cycle", "--n", "3",
                    "--tau", tau], None, "heat filter needs a finite tau >= 0",
                   id=f"tau-{tau}") for tau in ("-1", "nan", "inf")],
    *[pytest.param(["indices", "--eps", eps], None, "chord weight must be finite and >= 0",
                   id=f"eps-{eps}") for eps in ("-1", "nan")],
    *[pytest.param(["reconstruct", "--noise", noise], None,
                   "--noise must be finite and >= 0", id=f"noise-{noise}")
      for noise in ("-1", "nan", "inf")],
    pytest.param(["indices", "--graph", "file", "--input", "{tmp}/neg.mtx"], None,
                 "neg.mtx:0: adjacency entries must be nonnegative", id="negative-mtx-entry"),
    pytest.param(["indices", "--graph", "file", "--input", "{tmp}/nan.mtx"], None,
                 "nan.mtx:0: adjacency entries must be finite", id="nan-mtx-entry"),
    pytest.param(["indices", "--graph", "file", "--input", "{tmp}/complex.mtx"], None,
                 "complex.mtx:0: complex entries are not supported", id="complex-mtx-entry"),
    pytest.param(["filter", "{tmp}/cols.sig"], None, "cols.sig:2: expected 're im'",
                 id="signal-line-columns"),
    pytest.param(["diffuse", "{tmp}/empty.sig"], None, "empty.sig: empty signal file",
                 id="empty-signal"),
    pytest.param(["indices", "--graph", "file"], None, "--graph file requires --input PATH",
                 id="file-without-input"),
    *[pytest.param(["indices", "--graph", "file", "--input", "{tmp}/" + name], None, message,
                   id=name) for name, message in [
        ("count.edges", "count.edges:1: bad node count"),
        ("cols.edges", "cols.edges:2: expected 'src dst [weight]'"),
        ("neg.edges", "neg.edges:2: negative node index"),
        ("empty.edges", "empty.edges:0: empty graph file"),
        ("text.mtx", "text.mtx:0: not a readable Matrix Market file"),
        ("wide.mtx", "wide.mtx:0: adjacency must be square, got (2, 3)"),
    ]],
]

# Input files the BAD_INPUTS rows name as {tmp}/<name>.
BAD_FILES = {
    "nan.sig": "1.0\nnan 0.0\n",
    "inf.sig": "1.0\n0.0 -inf\n",
    "header.edges": "# nodes 5\n0 1\n7 0\n",
    "sum.edges": "0 1 1e308\n0 1 1e308\n1 0 1\n",
    "x.sig": "1.0\n0.0\n0.0\n",
    "neg.mtx": "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 2 1.0\n2 3 -1.0\n3 1 1.0\n",
    "nan.mtx": "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 2 1.0\n2 3 nan\n3 1 1.0\n",
    "complex.mtx": "%%MatrixMarket matrix coordinate complex general\n"
                   "3 3 3\n1 2 1.0 0.5\n2 3 1.0 0.0\n3 1 1.0 0.0\n",
    "cols.sig": "1.0\n1.0 2.0 3.0\n",
    "empty.sig": "# no values\n\n",
    "count.edges": "# nodes three\n0 1\n",
    "cols.edges": "0 1\n0 1 1.0 2.0\n",
    "neg.edges": "0 1\n-1 0\n",
    "empty.edges": "# only a comment\n",
    "text.mtx": "not a Matrix Market file\n",
    "wide.mtx": "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 2 1.0\n",
}


class TestBadInput:
    @pytest.mark.parametrize("argv,env_seed,message", BAD_INPUTS)
    def test_error_line_and_exit_1(self, argv, env_seed, message, tmp_path,
                                   monkeypatch, capsys):
        if env_seed is None:
            monkeypatch.delenv("BGFT_SEED", raising=False)
        else:
            monkeypatch.setenv("BGFT_SEED", env_seed)
        for name, text in BAD_FILES.items():
            (tmp_path / name).write_text(text)
        (tmp_path / "dir.mtx").mkdir()
        assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message.replace("{tmp}", str(tmp_path)) in err

    @pytest.mark.parametrize("command", [["reconstruct", "--n", "3"], ["table1", "--n", "16"]])
    def test_noise_norm_overflow(self, command, monkeypatch, capsys):
        # Each noise entry is finite, but the noise vector's norm overflows:
        # one error line, before any decomposition, and no numpy warning on
        # the way.
        def eig_general(m):
            raise AssertionError(f"eig_general called for n={len(m)}")

        monkeypatch.setattr(bgft.linalg, "eig_general", eig_general)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(command + ["--k", "2", "--m", "3", "--noise", "1e200"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --noise is too large: the noise vector's norm overflows, got 1e+200\n"

    @pytest.mark.parametrize("argv,message", [
        (["indices", "--graph", "file", "--input", "{tmp}/heavy.edges"],
         "out-degree of node 2 overflows float64"),
        *[([command, "{tmp}/big.sig", "--graph", "directed-cycle", "--n", "8"],
           "{tmp}/big.sig: signal is too large: its norm overflows")
          for command in ("filter", "diffuse")],
    ], ids=["out-degree", "filter-signal", "diffuse-signal"])
    def test_overflowing_sum_refused(self, argv, message, tmp_path, capsys):
        # Each value is finite, but a row sum or the signal's norm overflows:
        # one error line, and no numpy warning on the way.
        (tmp_path / "heavy.edges").write_text("# nodes 3\n0 1 1\n1 2 1\n2 0 1e308\n2 1 1e308\n")
        (tmp_path / "big.sig").write_text("1e308 -1e308\n" * 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: " + message.replace("{tmp}", str(tmp_path)) + "\n"

    @pytest.mark.parametrize("argv,message", [
        (["indices", "--graph", "file", "--input", "{tmp}/latin1.edges"],
         "{tmp}/latin1.edges:0: not utf-8 text (invalid start byte)"),
        (["filter", "{tmp}/latin1.sig", "--graph", "directed-cycle", "--n", "3"],
         "{tmp}/latin1.sig: not utf-8 text (invalid start byte)"),
    ], ids=["edge-list", "signal"])
    def test_undecodable_file_named(self, argv, message, tmp_path, capsys):
        # A byte that is not UTF-8 ends as one error line naming the file,
        # not as the decoder's message, which names no file.
        (tmp_path / "latin1.edges").write_bytes(b"0 1\n1 0 \xff\n")
        (tmp_path / "latin1.sig").write_bytes(b"1.0\n\xff\n0.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: " + message.replace("{tmp}", str(tmp_path)) + "\n"

    @pytest.mark.parametrize("text", ["1.7e308\n" + "0\n" * 7, "5e307\n" * 8],
                             ids=["one-entry", "eight-entries"])
    def test_overflowing_coefficients_refused(self, text, tmp_path, capsys):
        # The signal's norm is finite, but on the perturbed cycle its
        # coefficients U* x overflow: one error line naming the overflow, and
        # no numpy warning on the way.  The normal cycles filter it.
        path = tmp_path / "big.sig"
        path.write_text(text)
        argv = ["filter", str(path), "--n", "8"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--graph", "perturbed-cycle"]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: signal is too large: the coefficients U* x overflow float64\n"
            for graph in ("directed-cycle", "undirected-cycle"):
                assert run(argv + ["--graph", graph], tmp_path / "out") == 0
                assert np.isfinite(read_signal(tmp_path / "out")).all()

    @pytest.mark.parametrize("command", ["filter", "diffuse"])
    def test_signal_with_overflowing_sum_of_squares_accepted(self, command, tmp_path, capsys):
        # The sum of squares of eight entries 1e200 overflows, but their norm
        # does not: the run succeeds and reports it, with no numpy warning.
        path = tmp_path / "big.sig"
        path.write_text("1e200\n" * 8)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, str(path), "--graph", "directed-cycle", "--n", "8",
                        "--format", "json"], out) == 0
        norm = np.sqrt(8) * 1e200
        if command == "filter":
            err = capsys.readouterr().err
            assert err.startswith("||x||2 = ")
            assert [float(v) for v in err.split()[2::3]] == pytest.approx([norm] * 2, rel=1e-12)
            assert read_signal(out) == pytest.approx(np.full(8, 1e200), rel=1e-12)
        else:
            recs = json.loads(out.read_text())
            assert [r["norm"] for r in recs] == pytest.approx([norm] * 21, rel=1e-12)
            assert np.isfinite([r["bound"] for r in recs]).all()

    def test_generated_graph_over_cap(self, no_transition, capsys):
        # Refused before the transition operator is built: without the cap
        # this would eigendecompose a 4097-node operator.
        assert main(["indices", "--graph", "directed-cycle", "--n", "4097"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "MAX_NODES=4096, got 4097" in err

    @pytest.mark.parametrize("argv,message", [
        (["--k", "30", "--m", "20"], "need 1 <= K <= m <= n, got K=30 m=20 n=512"),
        (["--noise", "-1"], "--noise must be finite and >= 0, got -1.0"),
    ])
    def test_table1_trial_checked_first(self, argv, message, no_transition, capsys):
        # Refused from --n before the first graph is decomposed.
        assert main(["table1", "--n", "512", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("graph", [["--n", "512"], ["--graph", "file", "--input", "{tmp}"]],
                             ids=["generated", "file"])
    @pytest.mark.parametrize("argv,message", [
        (["--k", "30", "--m", "20"], "need 1 <= K <= m <= n, got K=30 m=20"),
        (["--noise", "-1"], "--noise must be finite and >= 0, got -1.0"),
    ], ids=["k-above-m", "negative-noise"])
    def test_reconstruct_trial_checked_first(self, graph, argv, message, tmp_path,
                                             no_transition, capsys):
        # Refused once the graph's n is known, before it is decomposed.
        path = tmp_path / "c.edges"
        bgft.save_edge_list(bgft.directed_cycle(40), path)
        graph = [a.replace("{tmp}", str(path)) for a in graph]
        assert main(["reconstruct", *graph, *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("argv,message", [
        (["filter", "{tmp}/x.sig", "--graph", "file", "--input", "{tmp}/c.edges"],
         "signal length 3 does not match n=40"),
        (["filter", "{tmp}/x.sig", "--n", "512"], "signal length 3 does not match n=512"),
        (["diffuse", "{tmp}/missing", "--n", "512"], "cannot read signal file"),
        (["diffuse", "{tmp}/nan.sig", "--graph", "directed-cycle"],
         "nan.sig:2: non-finite value"),
    ], ids=["filter-file-graph-length", "filter-length", "diffuse-missing", "diffuse-nan"])
    def test_signal_checked_first(self, argv, message, tmp_path, no_transition, capsys):
        # Read and checked against the graph's n before the graph is decomposed.
        bgft.save_edge_list(bgft.directed_cycle(40), tmp_path / "c.edges")
        for name in ("x.sig", "nan.sig"):
            (tmp_path / name).write_text(BAD_FILES[name])
        assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_help_with_bad_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("BGFT_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: bgft" in capsys.readouterr().out


class TestFlags:
    # Each subcommand takes only the flags it reads.
    @pytest.mark.parametrize("argv", [
        ["indices", "--seed", "3"],
        ["filter", "x.sig", "--k", "4"],
        ["diffuse", "x.sig", "--tau", "1"],
        ["reconstruct", "--tau", "1"],
        ["table1", "--graph", "file"],
    ], ids=lambda argv: " ".join(argv))
    def test_unread_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_env_seed_ignored_without_randomness(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BGFT_SEED", "abc")
        assert run(["indices", "--graph", "directed-cycle"], tmp_path / "r.txt") == 0


class TestTable1:
    def test_deterministic_columns(self, tmp_path):
        out = tmp_path / "t.json"
        assert run(["table1", "--format", "json"], out) == 0
        rows = {r["graph"]: r for r in json.loads(out.read_text())}
        und = rows["undirected-cycle"]
        dirc = rows["directed-cycle"]
        per = rows["perturbed-cycle(eps=20)"]
        assert und["alpha"] == 0.0 and und["delta"] == 0.0
        assert dirc["alpha"] == pytest.approx(1.4142135623730951, abs=1e-12)
        assert dirc["delta"] == pytest.approx(0.0, abs=1e-14)
        assert per["delta"] == pytest.approx(0.02987165083714049, abs=1e-12)
        assert per["cond_v"] == pytest.approx(28.011585066632986, rel=0.01)
        for r in rows.values():
            assert r["rel_err"] <= 1e-3

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["table1", "--format", "csv", "--seed", "11"], out1)
        run(["table1", "--format", "csv", "--seed", "11"], out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BGFT_SEED", "17")
        out1 = tmp_path / "env.csv"
        run(["table1", "--format", "csv"], out1)
        out2 = tmp_path / "flag.csv"
        run(["table1", "--format", "csv", "--seed", "17"], out2)
        assert out1.read_bytes() == out2.read_bytes()


def test_import_loads_no_scipy():
    # scipy roughly doubles a fresh process's import time and memory, and
    # every bgft invocation would pay for it; no module under src/ imports it.
    src = str(Path(bgft.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import bgft, bgft.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_mtx_run_loads_no_scipy(tmp_path):
    # Matrix Market files go through graphs' own numpy parser.
    mtx = tmp_path / "c3.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "3 3 3\n1 2 1.0\n2 3 1.0\n3 1 1.0\n")
    out_file = tmp_path / "r.json"
    src = str(Path(bgft.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from bgft import cli; "
            "rc = cli.main(['indices', '--graph', 'file', '--input', sys.argv[2], "
            "'--out', sys.argv[3]]); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src, str(mtx), str(out_file)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "0 []\n"
    assert out_file.exists()
