"""The four benchmark workloads.

Each workload is a class whose constructor is the set-up (timed as
``setup_s``).  ``prepare_checks()`` then verifies what the set-up computed and
builds the references the checks need, untimed; it returns a list of
problems.  For op ``i`` the benchmark calls ``prepare(i)`` to generate the
op's inputs from the workload seed, ``execute(inp, tracer)`` as the timed op,
and ``check(inp, out)``, which returns a list of problems (empty when the
output is correct).  Inputs are generated here with numpy; bgft only ever
receives the generated inputs.  The checks use numpy and scipy only and
recompute every certificate they test rather than trusting bgft's.

bgft functions are always called through their module (``transform.decompose``)
so that the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse
import scipy.sparse.linalg

from bgft import cli, graphs, markov, sampling, transform

# Tolerances of the checks.  Spectral results are compared with a bound that
# scales with cond(V), the quantity the paper says limits accuracy; the
# constants sit 3 to 5 orders of magnitude above the errors measured at
# these sizes.
EIG_RESIDUAL_TOL = 1e-10   # ||P V - V L||_F / (n ||P||_F)
DUAL_RESIDUAL_TOL = 1e-10  # ||U V - I||_F / (n cond(V))
SPECTRAL_TOL = 1e-10       # ||y - y_ref|| / (cond(V) ||x||)
EXACT_TOL = 1e-12          # relative, for quantities with a closed form


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _rel(a, b) -> float:
    """Relative difference |a - b| / max(|b|, tiny)."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))
                 / max(float(np.linalg.norm(b)), 1e-300))


# -- input generators ------------------------------------------------------


def cycle_adjacency(n: int, undirected: bool) -> np.ndarray:
    a = np.roll(np.eye(n), 1, axis=1)
    return a + a.T if undirected else a


def perturbed_cycle_adjacency(n: int, eps: float, src: int, dst: int) -> np.ndarray:
    a = cycle_adjacency(n, undirected=False)
    a[src, dst] += eps
    return a


def random_chord(n: int, rng) -> tuple:
    """(eps, src, dst) with eps uniform in [5, 50] and src != dst."""
    src, dst = rng.choice(n, size=2, replace=False)
    return float(rng.uniform(5.0, 50.0)), int(src), int(dst)


def random_digraph(n: int, rng, density: float = 0.5, floor: float = 0.05) -> np.ndarray:
    """Random non-reversible digraph.  The weight floor on every off-diagonal
    edge keeps P away from near-defective shift-like structure."""
    a = rng.random((n, n)) * (rng.random((n, n)) < density) + floor
    np.fill_diagonal(a, 0.0)
    return a


def random_reversible(n: int, rng) -> np.ndarray:
    """Symmetric weights: detailed balance holds with pi ~ weighted degree."""
    w = rng.random((n, n))
    w = w + w.T
    np.fill_diagonal(w, 0.0)
    return w


def write_graph(path: Path, a: np.ndarray) -> None:
    """Edge list (`# nodes N` header, `src dst weight`) or, for a .mtx path,
    Matrix Market coordinate format."""
    if path.suffix == ".mtx":
        scipy.io.mmwrite(str(path), scipy.sparse.coo_matrix(a))
        return
    rows, cols = np.nonzero(a)
    with open(path, "w") as fh:
        fh.write(f"# nodes {a.shape[0]}\n")
        fh.writelines(f"{i} {j} {float(a[i, j])!r}\n" for i, j in zip(rows, cols))


def transition_ref(a: np.ndarray) -> np.ndarray:
    return a / a.sum(axis=1)[:, None]


# -- shared checks ---------------------------------------------------------


def check_eig(p_ref, lam, v, u, cond_v) -> list:
    """Eig residual, dual residual, unit columns and cond(V) recomputed."""
    problems = []
    n = p_ref.shape[0]
    res = np.linalg.norm(p_ref @ v - v * lam)
    _expect(problems, res <= EIG_RESIDUAL_TOL * n * max(1.0, np.linalg.norm(p_ref)),
            f"eig residual {res:.3e}")
    sv = np.linalg.svd(v, compute_uv=False)
    cond = sv[0] / sv[-1]
    _expect(problems, abs(cond - cond_v) <= 1e-8 * cond,
            f"cond(V) {cond_v!r} != recomputed {cond!r}")
    dual = np.linalg.norm(u @ v - np.eye(n))
    _expect(problems, dual <= DUAL_RESIDUAL_TOL * n * cond,
            f"dual residual {dual:.3e}")
    norms = np.linalg.norm(v, axis=0)
    _expect(problems, np.max(np.abs(norms - 1.0)) <= 1e-12, "columns not unit norm")
    return problems


def check_stationary(p_ref, pi) -> list:
    problems = []
    res = np.linalg.norm(pi @ p_ref - pi)
    _expect(problems, res <= 1e-10, f"pi residual {res:.3e}")
    _expect(problems, bool(np.all(pi > 0)), "pi has a nonpositive entry")
    _expect(problems, abs(pi.sum() - 1.0) <= 1e-12, "pi does not sum to 1")
    return problems


def heat_reference(p_ref, tau, x) -> np.ndarray:
    """exp(-tau L) x without an eigendecomposition, L = I - P."""
    l_rw = scipy.sparse.csr_matrix(np.eye(p_ref.shape[0]) - p_ref)
    return scipy.sparse.linalg.expm_multiply(-tau * l_rw, x)


# -- analyze ---------------------------------------------------------------

ANALYZE_N = 256
KINDS = ("undirected-cycle", "directed-cycle", "perturbed-cycle",
         "random-reversible", "random-nonreversible")
REVERSIBLE = {"undirected-cycle": True, "directed-cycle": False,
              "perturbed-cycle": False, "random-reversible": True,
              "random-nonreversible": False}
ITERATE_T = 8


class Analyze:
    """One op fully analyses one n=256 graph; kinds cycle in a seeded order."""

    name = "analyze"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        n = ANALYZE_N
        self.order = [KINDS[k] for k in rng.permutation(len(KINDS))]
        # Random graphs are read back from files: one edge list and one .mtx
        # per kind, alternating between passes over the kinds.  A cycle of
        # inputs is therefore two passes.
        self.cycle = 2 * len(KINDS)
        self.files = {}
        for kind, make in (("random-reversible", random_reversible),
                           ("random-nonreversible", random_digraph)):
            entries = []
            for ext in (".txt", ".mtx"):
                a = make(n, rng)
                path = workdir / f"{kind}{ext}"
                write_graph(path, a)
                entries.append((path, a))
            self.files[kind] = entries
        self.cycles = {k: cycle_adjacency(n, k == "undirected-cycle")
                       for k in ("undirected-cycle", "directed-cycle")}

    def prepare_checks(self) -> list:
        return []  # the set-up only writes inputs

    def prepare(self, i: int) -> dict:
        kind = self.order[i % len(KINDS)]
        rng = np.random.default_rng([self.seed, 2, i])
        inp = dict(kind=kind, tau=float(rng.uniform(0.5, 5.0)))
        if kind in self.files:
            inp["path"], inp["adjacency"] = self.files[kind][i // len(KINDS) % 2]
        elif kind == "perturbed-cycle":
            inp["chord"] = random_chord(ANALYZE_N, rng)
            inp["adjacency"] = perturbed_cycle_adjacency(ANALYZE_N, *inp["chord"])
        else:
            inp["adjacency"] = self.cycles[kind]
        return inp

    def execute(self, inp: dict, tracer=None) -> dict:
        kind, n = inp["kind"], ANALYZE_N
        if kind == "undirected-cycle":
            g = graphs.undirected_cycle(n)
        elif kind == "directed-cycle":
            g = graphs.directed_cycle(n)
        elif kind == "perturbed-cycle":
            eps, src, dst = inp["chord"]
            g = graphs.add_directed_chord(graphs.directed_cycle(n), eps, src, dst)
        else:
            g = graphs.load_graph(inp["path"])
        op = markov.transition(g)
        basis = transform.decompose(op)
        dist = markov.stationary(op)
        return dict(
            p=op.p, basis=basis, pi=dist.pi,
            reversible=markov.is_reversible(op, dist),
            alpha=markov.asymmetry_index(op.p),
            delta=markov.departure_from_normality(op.p),
            iterate_bound=transform.iterate_bound(basis, ITERATE_T),
            filter_bound=transform.filter_bound(
                basis, transform.FilterSpec.heat(inp["tau"])),
        )

    def check(self, inp: dict, out: dict) -> list:
        problems = []
        kind, basis = inp["kind"], out["basis"]
        p = transition_ref(inp["adjacency"])
        _expect(problems, np.max(np.abs(out["p"] - p)) <= 1e-12, "P differs from D^-1 A")
        lam, cond_v = basis.eigenvalues, basis.cond_v
        problems += check_eig(p, lam, basis.right_vectors, basis.left_dual, cond_v)
        problems += check_stationary(p, out["pi"])

        nf = np.linalg.norm(p)
        alpha = np.linalg.norm(p - p.T) / nf
        delta = np.linalg.norm(p @ p.T - p.T @ p) / nf**2
        _expect(problems, abs(out["alpha"] - alpha) <= 1e-10 * max(alpha, 1.0),
                f"alpha {out['alpha']!r} != {alpha!r}")
        _expect(problems, abs(out["delta"] - delta) <= 1e-10 * max(delta, 1.0),
                f"delta {out['delta']!r} != {delta!r}")
        _expect(problems, out["reversible"] == REVERSIBLE[kind],
                f"reversible={out['reversible']} for {kind}")
        if kind == "directed-cycle":
            _expect(problems, abs(cond_v - 1.0) <= 1e-8, f"directed cycle cond_v {cond_v!r}")
            _expect(problems, abs(out["alpha"] - np.sqrt(2.0)) <= 1e-12,
                    "directed cycle alpha != sqrt(2)")
        if kind == "undirected-cycle":
            _expect(problems, out["alpha"] <= 1e-14, "undirected cycle alpha != 0")

        bound = cond_v * np.max(np.abs(lam)) ** ITERATE_T
        _expect(problems, abs(out["iterate_bound"] - bound) <= EXACT_TOL * bound,
                "iterate bound != cond(V) rho^t")
        pt_norm = np.linalg.norm(np.linalg.matrix_power(p, ITERATE_T), 2)
        _expect(problems, pt_norm <= out["iterate_bound"] * (1 + 1e-9),
                f"||P^t||_2 {pt_norm!r} exceeds the iterate bound")
        fbound = cond_v * np.max(np.abs(np.exp(-inp["tau"] * (1.0 - lam))))
        _expect(problems, abs(out["filter_bound"] - fbound) <= EXACT_TOL * fbound,
                "filter bound != cond(V) max|h|")
        return problems


# -- signal-batch ----------------------------------------------------------

SIGNAL_N = 512
DIFFUSE_T = 50
BAND_K, SAMPLES_M, NOISE = 8, 20, 1e-3


class SignalBatch:
    """Set-up decomposes two n=512 operators; one op pushes one seeded signal
    through filtering, transforms, diffusion, energy and reconstruction."""

    name = "signal-batch"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        n = SIGNAL_N
        self.operators = []
        for a in (perturbed_cycle_adjacency(n, *random_chord(n, rng)),
                  random_digraph(n, rng)):
            op = markov.transition(graphs.DirectedGraph(a))
            basis = transform.decompose(op)
            dist = markov.stationary(op)
            omega = sampling.select_band(basis, BAND_K)
            self.operators.append((op, basis, dist, transition_ref(a), omega))
        self.cycle = len(self.operators)

    def prepare_checks(self) -> list:
        problems = []
        for _, basis, dist, p, _ in self.operators:
            problems += check_eig(p, basis.eigenvalues, basis.right_vectors,
                                  basis.left_dual, basis.cond_v)
            problems += check_stationary(p, dist.pi)
        return problems

    def prepare(self, i: int) -> dict:
        op, basis, dist, p, omega = self.operators[i % self.cycle]
        rng = np.random.default_rng([self.seed, 2, i])
        n = SIGNAL_N
        c = rng.standard_normal(BAND_K) + 1j * rng.standard_normal(BAND_K)
        x_true = basis.right_vectors[:, list(omega.omega)] @ c
        nodes = np.sort(rng.choice(n, size=SAMPLES_M, replace=False))
        eta = NOISE * rng.standard_normal(SAMPLES_M)
        return dict(
            index=i % self.cycle, x=rng.standard_normal(n),
            tau=float(rng.uniform(0.5, 5.0)), lowpass_k=int(rng.integers(4, 33)),
            x_true=x_true, m_set=sampling.SamplingSet(tuple(nodes)),
            y=x_true[nodes] + eta, eta_norm=float(np.linalg.norm(eta)),
        )

    def execute(self, inp: dict, tracer=None) -> dict:
        op, basis, dist, _, omega = self.operators[inp["index"]]
        x = inp["x"]
        xhat = transform.analyze(basis, x)
        return dict(
            heat=transform.apply_filter(basis, transform.FilterSpec.heat(inp["tau"]), x),
            lowpass=transform.apply_filter(
                basis, transform.FilterSpec.ideal_lowpass(inp["lowpass_k"]), x),
            xhat=xhat,
            round_trip=transform.synthesize(basis, xhat),
            spectral=transform.diffuse_spectral(basis, x, DIFFUSE_T),
            direct=transform.diffuse_direct(op, x, DIFFUSE_T),
            energy=transform.energy_report(basis, dist, x),
            recon=sampling.reconstruct(basis, omega, inp["m_set"], inp["y"],
                                       x_true=inp["x_true"], eta_norm=inp["eta_norm"]),
        )

    def check(self, inp: dict, out: dict) -> list:
        problems = []
        _, basis, dist, p, omega = self.operators[inp["index"]]
        v, u, lam = basis.right_vectors, basis.left_dual, basis.eigenvalues
        x, cond = inp["x"], basis.cond_v
        tol = SPECTRAL_TOL * cond * np.linalg.norm(x)

        err = np.linalg.norm(out["heat"] - heat_reference(p, inp["tau"], x))
        _expect(problems, err <= tol, f"heat filter off expm_multiply by {err:.3e}")
        band = basis.order[: inp["lowpass_k"]]
        lowpass = v[:, band] @ (u[band, :] @ x)
        err = np.linalg.norm(out["lowpass"] - lowpass)
        _expect(problems, err <= tol, f"ideal low-pass off by {err:.3e}")
        _expect(problems, _rel(out["xhat"], u @ x) <= EXACT_TOL, "analyze != U* x")
        err = np.linalg.norm(out["round_trip"] - x)
        _expect(problems, err <= tol, f"round trip off by {err:.3e}")

        direct = x.astype(complex)
        for _ in range(DIFFUSE_T):
            direct = p @ direct
        _expect(problems, _rel(out["direct"], direct) <= EXACT_TOL, "direct diffusion wrong")
        err = np.linalg.norm(out["spectral"] - out["direct"])
        _expect(problems, err <= tol, f"spectral vs direct diffusion off by {err:.3e}")

        e = out["energy"]
        pi = dist.pi
        pi_energy = float(np.sum(pi * np.abs(x) ** 2))
        _expect(problems, abs(e.pi_energy - pi_energy) <= EXACT_TOL * pi_energy,
                "pi_energy != sum pi |x|^2")
        _expect(problems, abs(e.gram_energy - e.pi_energy) <= SPECTRAL_TOL * cond**2 * pi_energy,
                f"gram_energy {e.gram_energy!r} != pi_energy {e.pi_energy!r}")
        tv = float(np.sum(pi * np.abs(x - p @ x) ** 2))
        _expect(problems, abs(e.tv_pi - tv) <= 1e-10 * tv, "tv_pi != ||(I-P)x||_pi^2")
        slack = SPECTRAL_TOL * cond**2 * tv
        _expect(problems, e.tv_lower - slack <= e.tv_pi <= e.tv_upper + slack,
                f"tv sandwich broken: {e.tv_lower!r} <= {e.tv_pi!r} <= {e.tv_upper!r}")

        r = out["recon"]
        nodes = list(inp["m_set"].nodes)
        v_o = v[:, list(omega.omega)]
        sb = np.linalg.svd(v_o[nodes, :], compute_uv=False)
        _expect(problems, abs(r.sigma_min_b - sb[-1]) <= 1e-10 * sb[-1],
                "sigma_min_b != recomputed")
        _expect(problems, not r.rank_deficient, "full-rank band reported rank deficient")
        bound = np.linalg.norm(v_o, 2) * inp["eta_norm"] / sb[-1]
        _expect(problems, abs(r.noise_bound - bound) <= 1e-10 * bound, "noise_bound wrong")
        err = np.linalg.norm(r.x_hat - inp["x_true"])
        _expect(problems, err <= bound * (1 + 1e-9) + tol,
                f"reconstruct error {err:.3e} exceeds noise bound {bound:.3e}")
        return problems


# -- sampling-design -------------------------------------------------------

DESIGN_N = 32
DESIGN_KINDS = ("perturbed-cycle", "random-digraph", "random-reversible")
DESIGN_SIZES = ((4, 8), (8, 16), (8, 20))
DESIGN_ROUNDS = 8
RANDOM_SETS = 200


class SamplingDesign:
    """One op selects a greedy sampling set on a seeded n=32 problem.  Ops run
    in rounds; each round holds every (graph kind, K, m) once, in a seeded
    order, on fresh graphs.  All eigendecompositions happen here."""

    name = "sampling-design"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        n = DESIGN_N
        self.items = []
        combos = [(k, s) for k in DESIGN_KINDS for s in DESIGN_SIZES]
        for _ in range(DESIGN_ROUNDS):
            for c in rng.permutation(len(combos)):
                kind, (k, m) = combos[c]
                if kind == "perturbed-cycle":
                    a = perturbed_cycle_adjacency(n, *random_chord(n, rng))
                elif kind == "random-digraph":
                    a = random_digraph(n, rng)
                else:
                    a = random_reversible(n, rng)
                basis = transform.decompose(markov.transition(graphs.DirectedGraph(a)))
                omega = sampling.select_band(basis, k)
                v_o = basis.right_vectors[:, list(omega.omega)]
                c_true = rng.standard_normal(k) + 1j * rng.standard_normal(k)
                self.items.append(dict(kind=kind, k=k, m=m, adjacency=a, basis=basis,
                                       omega=omega, v_o=v_o, x_true=v_o @ c_true))
        self.cycle = len(combos)
        self.sigma_first_round: dict = {}

    def prepare_checks(self) -> list:
        """Checks each set-up basis and sets each problem's quality floor: the
        best sigma_min of RANDOM_SETS random m-sets."""
        rng = np.random.default_rng([self.seed, 3])
        problems = []
        for item in self.items:
            basis, v_o, m = item["basis"], item["v_o"], item["m"]
            problems += check_eig(transition_ref(item["adjacency"]), basis.eigenvalues,
                                  basis.right_vectors, basis.left_dual, basis.cond_v)
            item["floor"] = max(
                np.linalg.svd(v_o[np.sort(rng.choice(DESIGN_N, m, replace=False))],
                              compute_uv=False)[-1]
                for _ in range(RANDOM_SETS))
        return problems

    def prepare(self, i: int) -> dict:
        return dict(index=i % len(self.items))

    def execute(self, inp: dict, tracer=None) -> dict:
        item = self.items[inp["index"]]
        m_set = sampling.greedy_sampling_set(item["basis"], item["omega"], item["m"])
        y = sampling.sample(item["x_true"], m_set)
        recon = sampling.reconstruct(item["basis"], item["omega"], m_set, y,
                                     x_true=item["x_true"])
        return dict(m_set=m_set, recon=recon)

    def check(self, inp: dict, out: dict) -> list:
        problems = []
        item = self.items[inp["index"]]
        nodes = list(out["m_set"].nodes)
        _expect(problems, len(nodes) == item["m"] and len(set(nodes)) == item["m"],
                f"expected {item['m']} distinct nodes, got {nodes}")
        if problems or not all(0 <= j < DESIGN_N for j in nodes):
            return problems + [f"node out of range in {nodes}"]
        sigma = np.linalg.svd(item["v_o"][nodes, :], compute_uv=False)[-1]
        r = out["recon"]
        _expect(problems, abs(r.sigma_min_b - sigma) <= 1e-10 * sigma,
                f"reported sigma_min {r.sigma_min_b!r} != recomputed {sigma!r}")
        _expect(problems, sigma >= item["floor"] * (1 - 1e-12),
                f"sigma_min {sigma:.4g} below the best random set {item['floor']:.4g}")
        _expect(problems, r.rel_err <= 1e-8, f"noise-free reconstruction error {r.rel_err:.3e}")
        if inp["index"] < self.cycle:
            self.sigma_first_round[inp["index"]] = sigma
        return problems

    def sigma_min_b_gmean(self) -> float | None:
        """Geometric mean of sigma_min(P_M V_Omega) over the first round's
        sets: the same nine problems for a given seed, whatever the speed."""
        if len(self.sigma_first_round) < self.cycle:
            return None
        return float(np.exp(np.mean(np.log(list(self.sigma_first_round.values())))))


# -- cli -------------------------------------------------------------------

CLI_N = 64
COMMANDS = ("indices", "table1", "reconstruct", "filter", "diffuse")
FORMATS = ("table", "csv", "json")
CLI_DIFFUSE_T = 30
FIELDS = {
    "indices": ("alpha", "delta", "cond_v", "spectral_radius", "reversible"),
    "table1": ("alpha", "delta", "cond_v", "cond_b", "rel_err"),
    "reconstruct": ("rel_err", "sigma_min_b", "cond_b", "noise_bound",
                    "rank_deficient", "k", "m", "noise", "seed"),
    "diffuse": ("norm", "bound"),
}


def parse_import_time(stderr: str) -> tuple:
    """Seconds spent importing the bgft package, from ``-X importtime``
    output, and the stderr with those lines removed."""
    seconds, rest = None, []
    for line in stderr.splitlines(keepends=True):
        if line.startswith("import time:"):
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "bgft":
                seconds = int(fields[1]) * 1e-6
        else:
            rest.append(line)
    if seconds is None:
        raise RuntimeError("no import time for bgft in -X importtime output")
    return seconds, "".join(rest)


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str


class Cli:
    """One op runs the bgft command in a child process with a seeded argv;
    argvs cycle through every subcommand, graph source and format."""

    name = "cli"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        n = CLI_N
        self.workdir = workdir
        # The child imports the same bgft source tree as this process.
        src_dir = Path(cli.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(src_dir))
        self.env.pop("BGFT_SEED", None)
        chord = random_chord(n, rng)
        sources = [(["--graph", "perturbed-cycle", "--n", str(n), "--eps", repr(chord[0]),
                     "--chord-src", str(chord[1]), "--chord-dst", str(chord[2])],
                    perturbed_cycle_adjacency(n, *chord))]
        for name in ("graph.txt", "graph.mtx"):
            a = random_digraph(n, rng)
            write_graph(workdir / name, a)
            sources.append((["--graph", "file", "--input", str(workdir / name)], a))
        self.x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        signal = workdir / "x.sig"
        with open(signal, "w") as fh:
            fh.writelines(f"{float(z.real)!r} {float(z.imag)!r}\n" for z in self.x)

        combos = [(COMMANDS[j % 5], FORMATS[j % 3], sources[(j // 5) % 3]) for j in range(15)]
        self.argvs = []
        for c in rng.permutation(len(combos)):
            cmd, fmt, (graph_args, a) = combos[c]
            argv = [cmd, "--format", fmt]
            extra = dict(adjacency=a)
            if cmd == "table1":
                eps = float(rng.uniform(5.0, 50.0))
                argv += ["--n", str(n), "--eps", repr(eps)]
            else:
                argv += graph_args
            if cmd in ("table1", "reconstruct"):
                argv += ["--k", "8", "--m", "20", "--noise", "0.01",
                         "--seed", str(int(rng.integers(0, 1000)))]
            if cmd == "filter":
                extra["tau"] = float(rng.uniform(0.5, 5.0))
                argv += [str(signal), "--tau", repr(extra["tau"])]
            if cmd == "diffuse":
                argv += [str(signal), "--t", str(CLI_DIFFUSE_T)]
            self.argvs.append(dict(argv=argv, cmd=cmd, fmt=fmt, **extra))
        self.cycle = len(self.argvs)
        self.first_output: dict = {}

    def prepare_checks(self) -> list:
        return []  # the set-up only writes inputs

    def prepare(self, i: int) -> dict:
        return dict(index=i % self.cycle, **self.argvs[i % self.cycle])

    def execute(self, inp: dict, tracer=None) -> CliResult:
        cmd = [sys.executable]
        if tracer is not None:
            cmd += ["-X", "importtime"]
        cmd += ["-m", "bgft.cli", *inp["argv"]]
        with tracer.span("cli.process") if tracer is not None else nullcontext():
            proc = subprocess.run(cmd, capture_output=True, cwd=self.workdir,
                                  env=self.env, timeout=120)
        # Decoded without newline translation: csv output ends rows in \r\n.
        stderr = proc.stderr.decode()
        if tracer is not None:
            seconds, stderr = parse_import_time(stderr)
            tracer.record("cli.import", seconds)
        return CliResult(proc.returncode, proc.stdout.decode(), stderr)

    def trace_in_process(self, inp: dict, out: CliResult, tracer) -> list:
        """Run ``cli.main`` in this process for the same argv, under the
        tracer's wrappers, and require the same output as the child's."""
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()), tracer.span("cli.main"):
            code = cli.main(inp["argv"])
        if code != 0 or stdout.getvalue() != out.stdout:
            return ["in-process cli.main output differs from the child's"]
        return []

    def check(self, inp: dict, out: CliResult) -> list:
        problems = []
        _expect(problems, out.returncode == 0, f"exit status {out.returncode}")
        _expect(problems, "Traceback" not in out.stderr, "traceback on stderr")
        if problems:
            return problems + [out.stderr[-500:]]
        try:
            problems += self._check_output(inp, out.stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"output does not parse: {exc!r}")
        first = self.first_output.setdefault(inp["index"], out.stdout)
        _expect(problems, first == out.stdout, "output differs from an earlier run of the same argv")
        return problems

    def _check_output(self, inp: dict, text: str) -> list:
        problems = []
        cmd, p = inp["cmd"], transition_ref(inp["adjacency"])
        if cmd == "filter":
            y = np.array([complex(float(re), float(im))
                          for re, im in (line.split() for line in text.splitlines())])
            _expect(problems, len(y) == CLI_N, f"{len(y)} filter output values")
            _, v = np.linalg.eig(p)
            tol = SPECTRAL_TOL * np.linalg.cond(v) * np.linalg.norm(self.x)
            err = np.linalg.norm(y - heat_reference(p, inp["tau"], self.x))
            _expect(problems, err <= tol, f"filter output off expm_multiply by {err:.3e}")
            return problems

        records = self._parse_records(inp["fmt"], cmd, text)
        expected_rows = {"indices": 1, "reconstruct": 1, "table1": 3,
                         "diffuse": CLI_DIFFUSE_T + 1}[cmd]
        _expect(problems, len(records) == expected_rows,
                f"{len(records)} records, expected {expected_rows}")
        if cmd == "indices":
            alpha = np.linalg.norm(p - p.T) / np.linalg.norm(p)
            _expect(problems, abs(records[0]["alpha"] - alpha) <= 1e-10 * alpha,
                    f"alpha {records[0]['alpha']!r} != {alpha!r}")
            _expect(problems, records[0]["cond_v"] >= 1.0, "cond_v < 1")
        elif cmd == "table1":
            directed = records[1]
            _expect(problems, abs(directed["cond_v"] - 1.0) <= 1e-8, "directed cycle cond_v != 1")
            _expect(problems, abs(directed["alpha"] - np.sqrt(2.0)) <= 1e-10,
                    "directed cycle alpha != sqrt(2)")
        elif cmd == "reconstruct":
            r = records[0]
            _expect(problems, r["sigma_min_b"] > 0 and not r["rank_deficient"],
                    "reconstruction reported rank deficient")
        elif cmd == "diffuse":
            _expect(problems, abs(records[0]["norm"] - np.linalg.norm(self.x)) <= 1e-10
                    * np.linalg.norm(self.x), "diffuse t=0 norm != ||x||")
            _expect(problems, all(r["norm"] <= r["bound"] * (1 + 1e-9) for r in records),
                    "diffuse norm exceeds the iterate bound")
        return problems

    @staticmethod
    def _parse_records(fmt: str, cmd: str, text: str) -> list:
        """Records as dicts of numbers/booleans, from any of the formats."""
        fields = FIELDS[cmd]
        if fmt == "json":
            records = json.loads(text)
            for r in records:
                for f in fields:
                    if not isinstance(r[f], (int, float, bool)):
                        raise TypeError(f"field {f} is {r[f]!r}")
            return records
        if fmt == "csv":
            rows = list(csv.reader(io.StringIO(text)))
        else:
            rows = [line.split() for line in text.splitlines()]
        if tuple(rows[0]) != ("graph",) + fields:
            raise ValueError(f"header {rows[0]}")

        def value(s):
            return s == "True" if s in ("True", "False") else float(s)

        return [dict(zip(fields, map(value, row[1:]), strict=True)) for row in rows[1:]]


WORKLOADS = {w.name: w for w in (Analyze, SignalBatch, SamplingDesign, Cli)}
