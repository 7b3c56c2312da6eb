"""Command-line frontend.

Subcommands:
  indices      asymmetry/non-normality indices, cond(V), spectral radius
  filter       apply the heat low-pass to a signal file
  diffuse      iterate x_{t+1} = P x_t and log norms against the iterate bound
  reconstruct  seeded bandlimited sampling/reconstruction experiment
  table1       three-row benchmark (undirected / directed / perturbed cycle)

Each subcommand accepts only the flags it reads.  All randomness (only in
reconstruct and table1) flows from one 64-bit seed (--seed, or env BGFT_SEED)
through numpy's PCG64 generator (np.random.default_rng); sub-draws use
documented offsets so runs are byte-reproducible.  Bad input (a BgftError,
or a ValueError from the library's own checks) ends as one `error: ...` line
on stderr with exit status 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import graphs, markov, sampling, transform
from .errors import BgftError

DEFAULTS = dict(n=64, eps=20.0, k=8, m=20, tau=transform.DEFAULT_TAU, noise=0.0, seed=0, t=20)

# diffuse keeps one output record per step, so --t is capped.
MAX_DIFFUSE_STEPS = 10_000

# Seed offsets for the independent random draws of one experiment.
SEED_SIGNAL = 0
SEED_SAMPLES = 1
SEED_NOISE = 2


def read_signal(path) -> np.ndarray:
    """One complex value per line as `re im`; bare reals get im = 0.  The
    array is float64 when every imaginary part is zero, else complex128.

    No graph has more than graphs.MAX_NODES nodes, so reading stops with an
    error at the first value past that many.  A norm that overflows is refused."""
    try:
        fh = open(path)
    except OSError as exc:
        raise BgftError(f"cannot read signal file {path}: {exc.strerror or exc}")
    values = []
    with fh:
        for lineno, raw in graphs.numbered_lines(fh, lambda msg: BgftError(f"{path}: {msg}")):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (1, 2):
                raise BgftError(f"{path}:{lineno}: expected 're im', got {line!r}")
            try:
                re = float(parts[0])
                im = float(parts[1]) if len(parts) == 2 else 0.0
            except ValueError:
                raise BgftError(f"{path}:{lineno}: could not parse {line!r}")
            if not (math.isfinite(re) and math.isfinite(im)):
                raise BgftError(f"{path}:{lineno}: non-finite value {line!r}")
            values.append(complex(re, im))
            if len(values) > graphs.MAX_NODES:
                raise BgftError(f"{path}:{lineno}: more than MAX_NODES={graphs.MAX_NODES} values")
    if not values:
        raise BgftError(f"{path}: empty signal file")
    x = np.array(values)
    if not math.isfinite(_signal_norm(x)):
        raise BgftError(f"{path}: signal is too large: its norm overflows")
    return x.real.copy() if not x.imag.any() else x


def _signal_norm(x) -> float:
    """||x||_2, inf only where it overflows: an x with entries of modulus 1
    or more is first scaled, exactly, by a power of two to entries below 1."""
    with np.errstate(over="ignore"):
        e = max(0, math.frexp(float(np.max(np.abs(x))))[1])
        return float(np.ldexp(np.linalg.norm(x * 2.0**-e), e))


def write_signal(x, stream) -> None:
    for z in np.asarray(x, dtype=complex):
        stream.write(f"{float(z.real)!r} {float(z.imag)!r}\n")


GRAPH_KINDS = ("undirected-cycle", "directed-cycle", "perturbed-cycle")


def generate_graph(kind, n, eps, chord_src=None, chord_dst=None) -> graphs.DirectedGraph:
    """One of GRAPH_KINDS at size n; the perturbed cycle's chord of weight
    eps runs chord_src -> chord_dst, by default 0 -> n//2."""
    if kind == "undirected-cycle":
        return graphs.undirected_cycle(n)
    if kind == "directed-cycle":
        return graphs.directed_cycle(n)
    src = 0 if chord_src is None else chord_src
    dst = n // 2 if chord_dst is None else chord_dst
    return graphs.add_directed_chord(graphs.directed_cycle(n), eps, src, dst)


def load_input(args) -> tuple:
    """(basis, signal) of a one-graph subcommand; signal is None unless the
    subcommand reads a signal file.  In order: load the --graph/--input graph,
    check the sampling trial and read the signal against the graph's n, and
    only then build P (which refuses a sink node) and decompose it."""
    if args.graph == "file":
        if not args.input:
            raise BgftError("--graph file requires --input PATH")
        g = graphs.load_graph(args.input)
    else:
        g = generate_graph(args.graph, args.n, args.eps, args.chord_src, args.chord_dst)
    if "k" in args:
        check_trial(args.k, args.m, g.n, args.noise, args.seed)
    x = None
    if "signal" in args:
        x = read_signal(args.signal)
        if x.shape[0] != g.n:
            raise BgftError(f"signal length {x.shape[0]} does not match n={g.n}")
    return transform.decompose(markov.transition(g)), x


def emit_records(records, fmt, stream) -> None:
    """records: list of (name, ordered dict of scalar fields)."""
    if fmt == "json":
        out = [dict(graph=name, **fields) for name, fields in records]
        json.dump(out, stream, indent=2)
        stream.write("\n")
        return
    keys = list(records[0][1].keys())
    if fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(["graph"] + keys)
        for name, fields in records:
            writer.writerow([name] + [repr(fields[k]) for k in keys])
        return
    # human table
    rows = []
    for name, fields in records:
        rows.append([name] + [f"{fields[k]:.12g}" if isinstance(fields[k], float)
                              else str(fields[k]) for k in keys])
    header = ["graph"] + keys
    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(len(header))]
    stream.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    for r in rows:
        stream.write("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() + "\n")


def analysis_fields(basis: transform.BgftBasis) -> dict:
    op = basis.operator
    try:
        dist = markov.stationary(op)
        reversible = markov.is_reversible(op, dist)
    except BgftError:
        reversible = False
    lam = basis.eigenvalues
    return dict(
        alpha=markov.asymmetry_index(op.p),
        delta=markov.departure_from_normality(op.p),
        cond_v=basis.cond_v,
        spectral_radius=float(np.max(np.abs(lam))),
        reversible=reversible,
        top_eigenvalues=[[float(z.real), float(z.imag)] for z in lam[:4]],
    )


def cmd_indices(args, stream) -> None:
    basis, _ = load_input(args)
    fields = analysis_fields(basis)
    if args.format != "json":
        fields.pop("top_eigenvalues")
    emit_records([(args.graph, fields)], args.format, stream)


def cmd_filter(args, stream) -> None:
    spec = transform.FilterSpec.heat(args.tau)
    basis, x = load_input(args)
    y = transform.apply_filter(basis, spec, x)
    print(f"||x||2 = {_signal_norm(x)!r} ||Hx||2 = {_signal_norm(y)!r}", file=sys.stderr)
    write_signal(y, stream)


def cmd_diffuse(args, stream) -> None:
    if args.t < 0:
        raise BgftError(f"--t must be >= 0, got {args.t}")
    if args.t > MAX_DIFFUSE_STEPS:
        raise BgftError(f"--t must be <= MAX_DIFFUSE_STEPS={MAX_DIFFUSE_STEPS}, got {args.t}")
    basis, x = load_input(args)
    # Iterated here rather than with transform.diffuse_direct, which returns
    # only the last iterate: every step's norm is checked and reported.
    records = []
    norm0 = _signal_norm(x)
    cur = x
    for s in range(args.t + 1):
        if s > 0:
            cur = basis.operator.apply(cur)
        norm = _signal_norm(cur)
        bound = transform.iterate_bound(basis, s) * norm0
        if norm > bound + 1e-8 * max(1.0, bound):  # its roundoff is relative
            raise BgftError(f"iterate norm {norm} exceeds bound {bound} at t={s}")
        records.append((f"t={s}", dict(norm=norm, bound=bound)))
    emit_records(records, args.format, stream)


def resolve_seed(flag) -> int:
    """The --seed value, else env BGFT_SEED, else the default.

    Seeds must be nonnegative integers (numpy's seed domain).
    """
    if flag is not None:
        seed, source = flag, "--seed"
    else:
        raw = os.environ.get("BGFT_SEED")
        if raw is None:
            return DEFAULTS["seed"]
        try:
            seed = int(raw)
        except ValueError:
            raise BgftError(f"BGFT_SEED must be an integer, got {raw!r}")
        source = "BGFT_SEED"
    if seed < 0:
        raise BgftError(f"{source} must be >= 0, got {seed}")
    return seed


def noise_vector(m, noise, seed) -> np.ndarray:
    """The sampling trial's m noise samples, drawn from the seed."""
    return noise * np.random.default_rng(1000 * seed + SEED_NOISE).standard_normal(m)


def check_trial(k, m, n, noise, seed) -> None:
    """The sampling trial's sizes, noise level and noise vector; needs no
    basis.  BgftError when the noise vector's norm overflows, though each
    sample is finite.  An m above MAX_NODES draws nothing: table1 refuses
    its n only later, when it builds its first graph."""
    if not (1 <= k <= m <= n):
        raise BgftError(f"need 1 <= K <= m <= n, got K={k} m={m} n={n}")
    if not (math.isfinite(noise) and noise >= 0):
        raise BgftError(f"--noise must be finite and >= 0, got {noise}")
    if m <= graphs.MAX_NODES:
        with np.errstate(over="ignore"):
            eta_norm = float(np.linalg.norm(noise_vector(m, noise, seed)))
        if not math.isfinite(eta_norm):
            raise BgftError(f"--noise is too large: the noise vector's norm overflows, got {noise}")


def run_reconstruction(basis, k, m, noise, seed):
    """One seeded sampling/reconstruction trial; returns the report.  The
    caller has passed k, m, noise and seed through check_trial."""
    omega = sampling.select_band(basis, k)
    x = sampling.random_bandlimited(basis, omega, 1000 * seed + SEED_SIGNAL)
    m_set = sampling.random_sampling_set(basis.n, m, 1000 * seed + SEED_SAMPLES)
    y = sampling.sample(x, m_set)
    eta = noise_vector(m, noise, seed)
    return sampling.reconstruct(basis, omega, m_set, y + eta, x_true=x,
                                eta_norm=float(np.linalg.norm(eta)))


def cmd_reconstruct(args, stream) -> None:
    basis, _ = load_input(args)
    rep = run_reconstruction(basis, args.k, args.m, args.noise, args.seed)
    fields = dict(
        rel_err=rep.rel_err,
        sigma_min_b=rep.sigma_min_b,
        cond_b=rep.cond_b,
        noise_bound=rep.noise_bound,
        rank_deficient=rep.rank_deficient,
        k=args.k, m=args.m, noise=args.noise, seed=args.seed,
    )
    emit_records([(args.graph, fields)], args.format, stream)


def cmd_table1(args, stream) -> None:
    check_trial(args.k, args.m, args.n, args.noise, args.seed)
    records = []
    for kind in GRAPH_KINDS:
        name = f"{kind}(eps={args.eps:g})" if kind == "perturbed-cycle" else kind
        op = markov.transition(generate_graph(kind, args.n, args.eps))
        basis = transform.decompose(op)
        rep = run_reconstruction(basis, args.k, args.m, args.noise, args.seed)
        records.append((name, dict(
            alpha=markov.asymmetry_index(op.p),
            delta=markov.departure_from_normality(op.p),
            cond_v=basis.cond_v,
            cond_b=rep.cond_b,
            rel_err=rep.rel_err,
        )))
    emit_records(records, args.format, stream)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgft",
        description="Biorthogonal spectral analysis of directed random-walk diffusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, graph=True, trial=False, signal=False, format_help=None):
        """A subcommand with the flags it reads: --graph/--input/--chord-*
        to pick one graph, --k/--m/--noise/--seed for the sampling trial."""
        p = sub.add_parser(name, help=help)
        if graph:
            p.add_argument("--graph", default="perturbed-cycle",
                           choices=[*GRAPH_KINDS, "file"])
            p.add_argument("--input", help="graph file (edge list or .mtx)")
            p.add_argument("--chord-src", type=int, default=None)
            p.add_argument("--chord-dst", type=int, default=None)
        p.add_argument("--n", type=int, default=DEFAULTS["n"])
        p.add_argument("--eps", type=float, default=DEFAULTS["eps"])
        if trial:
            p.add_argument("--k", type=int, default=DEFAULTS["k"])
            p.add_argument("--m", type=int, default=DEFAULTS["m"])
            p.add_argument("--noise", type=float, default=DEFAULTS["noise"])
            p.add_argument("--seed", type=int, default=None,
                           help="default: env BGFT_SEED, else 0")
        p.add_argument("--format", default="table", choices=["table", "csv", "json"],
                       help=format_help)
        p.add_argument("--out", help="output path (default stdout)")
        if signal:
            p.add_argument("signal", help="signal file, one 're im' pair per line")
        return p

    command("indices", "spectral/asymmetry indices")
    p = command("filter", "heat low-pass a signal", signal=True,
                format_help="accepted but unused: the output is always a signal file")
    p.add_argument("--tau", type=float, default=DEFAULTS["tau"])
    p = command("diffuse", "iterate diffusion, log norms", signal=True)
    p.add_argument("--t", type=int, default=DEFAULTS["t"], help="diffusion steps")
    command("reconstruct", "bandlimited sampling experiment", trial=True)
    command("table1", "three-graph benchmark table", graph=False, trial=True)
    return parser


COMMANDS = dict(indices=cmd_indices, filter=cmd_filter, diffuse=cmd_diffuse,
                reconstruct=cmd_reconstruct, table1=cmd_table1)


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    buf = io.StringIO()
    try:
        if "seed" in args:
            args.seed = resolve_seed(args.seed)
        COMMANDS[args.command](args, buf)
    except (BgftError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(buf.getvalue())
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(buf.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
