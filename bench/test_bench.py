"""Self-tests of the benchmark: a one-op smoke pass of every workload, and
deliberately corrupted results that each workload's checks must reject."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from bgft import graphs, linalg, markov, sampling, transform  # noqa: E402


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def op(request, tmp_path_factory):
    """A set-up workload with one executed op: (workload, input, output)."""
    wl = workloads.WORKLOADS[request.param](1, tmp_path_factory.mktemp(request.param))
    assert wl.prepare_checks() == []
    inp = wl.prepare(0)
    return wl, inp, wl.execute(inp)


def test_one_op_passes_its_checks(op):
    wl, inp, out = op
    assert wl.check(inp, out) == []


def _corruptions(wl, inp, out):
    """Wrong results of the kind a broken change could produce."""
    if wl.name == "analyze":
        basis = out["basis"]
        lam = basis.eigenvalues.copy()
        lam[1] += 1e-6
        eig = dataclasses.replace(basis.eig, eigenvalues=lam)
        pi = out["pi"].copy()
        pi[0] *= 1.001
        return [dict(out, basis=dataclasses.replace(basis, eig=eig)),
                dict(out, pi=pi),
                dict(out, alpha=out["alpha"] * (1 + 1e-6)),
                dict(out, reversible=not out["reversible"])]
    if wl.name == "signal-batch":
        heat = out["heat"].copy()
        heat[0] += 1e-6 * np.linalg.norm(inp["x"])
        energy = dataclasses.replace(out["energy"], tv_pi=out["energy"].tv_upper * 1.01)
        recon = dataclasses.replace(out["recon"], sigma_min_b=out["recon"].sigma_min_b * 1.01)
        return [dict(out, heat=heat), dict(out, energy=energy), dict(out, recon=recon)]
    if wl.name == "sampling-design":
        item = wl.items[inp["index"]]
        nodes = list(out["m_set"].nodes)
        swapped = next(j for j in range(workloads.DESIGN_N) if j not in nodes)
        wrong = sampling.SamplingSet(tuple(nodes[1:] + [swapped]))
        # A worse but self-consistent set: the first m nodes, reported honestly.
        first = sampling.SamplingSet(tuple(range(item["m"])))
        honest = sampling.reconstruct(item["basis"], item["omega"], first,
                                      sampling.sample(item["x_true"], first),
                                      x_true=item["x_true"])
        return [dict(out, m_set=wrong), dict(out, m_set=first, recon=honest)]
    assert wl.name == "cli"
    digit = next(k for k, ch in enumerate(out.stdout) if ch.isdigit())
    flipped = out.stdout[:digit] + str((int(out.stdout[digit]) + 1) % 10) + out.stdout[digit + 1:]
    return [workloads.CliResult(out.returncode, flipped, out.stderr),
            workloads.CliResult(out.returncode, out.stdout[: len(out.stdout) // 2], out.stderr),
            workloads.CliResult(1, out.stdout, "Traceback (most recent call last):\n")]


def test_corrupted_results_fail(op):
    wl, inp, out = op
    assert wl.check(inp, out) == []  # the cli check remembers the good output
    for bad in _corruptions(wl, inp, out):
        assert wl.check(inp, bad), f"{wl.name}: corrupted result passed its checks"


def test_tracer_restores_functions_and_counts_calls():
    modules = dict(graphs=graphs, linalg=linalg, markov=markov,
                   transform=transform, sampling=sampling)
    originals = (np.linalg.eig, np.linalg.svd, transform.decompose, linalg.eig_general)
    tracer = tracing.Tracer(modules)
    op_ = markov.transition(graphs.directed_cycle(16))
    with tracer.traced_op(0):
        transform.decompose(op_)
    assert (np.linalg.eig, np.linalg.svd, transform.decompose, linalg.eig_general) == originals
    layer = tracer.per_layer(1)
    assert layer["linalg.eig_general.calls_per_op"] == 1
    assert layer["linalg.lapack_eig.calls_per_op"] == 1
    assert layer["linalg.svd.calls_per_op"] >= 1
    assert 0 < layer["linalg.lapack_eig_s"] <= layer["linalg.eig_general_s"]
    assert layer["transform.decompose.total_s"] >= layer["linalg.eig_general_s"]


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_result_line():
    proc = _run(ROOT, "--workload", "analyze", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "analyze", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
