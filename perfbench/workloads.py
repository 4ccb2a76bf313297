"""The benchmark's workloads: inputs from a seed, CLI argv per op, checks.

Each workload generates its inputs from the workload seed, turns op i
into one or more `corneafit` argv lists, and checks the op's output.
A check raises OpFailed; the runner counts the op as failed.

Every op within a workload has the same size (grid nodes or mesh
shape), so latency percentiles describe one problem size.
"""

import io
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from corneafit import cli, solver
from corneafit.data import SynthSpec, generate_synthetic
from corneafit.errors import NoConvergence
from corneafit.fit import DomainEllipse, fit_mesh
from corneafit.kernel import ModelParams, lemma_b_max, theorem1_b_max

# The paper's synthetic cornea: parameters, footprint, scale, noise, mesh.
PAPER_A, PAPER_B, PAPER_ECC2 = 1.94398, 2.27534, 0.0234
PAPER_SCALE_MM, PAPER_SIGMA_MM, PAPER_MESH = 5.5, 0.01, 123
# (2, 2) and the two published (a, b) pairs, compared on ORACLE_NODES nodes.
ORACLE_PAIRS = ((2.0, 2.0), (2.07883, 2.76741), (1.94398, 2.27534))
ORACLE_NODES = 401
# Noise seeds of the fixed pool that fit_a_rel_err averages over.
QUALITY_SEEDS = range(20)
# A fit's elevation MAE may be at most this multiple of the sigma*sqrt(2/pi)
# noise floor; 2.5x the floor is the 0.02 mm ceiling of acceptance criterion 10.
MAE_FLOOR_MULTIPLE = 2.5


class OpFailed(Exception):
    pass


def call_cli(argv):
    """Run `corneafit <argv>` in this process; (exit code, stdout, stderr).

    `cli.main` is looked up at call time, so an installed tracer sees it.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def parse_report(text):
    """`key = value` lines to a dict."""
    entries = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            entries[key] = value
    return entries


def _positive_float(entries, key):
    try:
        value = float(entries[key])
    except (KeyError, ValueError):
        raise OpFailed(f"report key {key!r} missing or not a number") from None
    if not (math.isfinite(value) and value > 0.0):
        raise OpFailed(f"{key} = {value!r} is not finite and positive")
    return value


def _expect_success(results, commands):
    if len(results) != commands:
        raise OpFailed(f"only {len(results)} of {commands} commands ran")
    for rc, _, err in results:
        if rc != 0:
            raise OpFailed(f"exit code {rc}: {err.strip()}")


@dataclass(frozen=True)
class RadialSolve:
    """`solve --n-nodes N --out csv`, a fresh admissible (a, b) per op."""

    name: str = "radial_solve"
    n_nodes: int = 4001
    trace_ops: int = 100

    def setup(self, seed, workdir):
        return {"seed": seed, "csv": os.path.join(workdir, "profile.csv")}

    def params(self, state, index):
        # a in [0.5, 5]; b a fraction of the smaller admissibility bound,
        # so Theorem 1 and the envelope lemma both hold and every op runs
        # iteration, residual and envelope check.
        rng = np.random.default_rng([state["seed"], index])
        a = float(rng.uniform(0.5, 5.0))
        b = float(rng.uniform(0.25, 0.85)) * min(theorem1_b_max(a), lemma_b_max(a))
        return a, b

    def commands(self, state, index):
        a, b = self.params(state, index)
        return [[
            "solve", "--a", repr(a), "--b", repr(b),
            "--n-nodes", str(self.n_nodes), "--out", state["csv"],
        ]]

    def check(self, state, index, results):
        _expect_success(results, 1)
        entries = parse_report(results[0][1])
        if entries.get("envelope_ok") != "true":
            raise OpFailed(f"envelope_ok = {entries.get('envelope_ok')!r}")
        with open(state["csv"], "r", encoding="ascii") as handle:
            rows = handle.read().count("\n") - 1
        if rows != self.n_nodes:
            raise OpFailed(f"profile CSV has {rows} rows, expected {self.n_nodes}")


@dataclass(frozen=True)
class MeshFit:
    """`fit --out` then `axial --fit --out` on paper-like synthetic meshes.

    The meshes are the paper's cornea with sigma = 0.01 mm noise, one per
    noise seed drawn from the workload seed; ops cycle through the pool.
    """

    name: str
    size: int
    trace_ops: int
    pool: int = 4

    def setup(self, seed, workdir):
        noise_seeds = np.random.default_rng(seed).integers(0, 2**31, self.pool)
        meshes = []
        for k, noise_seed in enumerate(noise_seeds):
            path = os.path.join(workdir, f"mesh{k}.txt")
            argv = [
                "synth", "--a", repr(PAPER_A), "--b", repr(PAPER_B),
                "--ecc2", repr(PAPER_ECC2), "--scale-radius", repr(PAPER_SCALE_MM),
                "--noise-sigma", repr(PAPER_SIGMA_MM),
                "--seed", str(noise_seed), "--n-x", str(self.size),
                "--n-y", str(self.size), "--out", path,
            ]
            rc, _, err = call_cli(argv)
            if rc != 0:
                raise OpFailed(f"synth exit code {rc}: {err.strip()}")
            meshes.append(path)
        return {
            "meshes": meshes,
            "report": os.path.join(workdir, "fit.txt"),
            "axial": os.path.join(workdir, "axial.txt"),
        }

    def commands(self, state, index):
        mesh = state["meshes"][index % len(state["meshes"])]
        return [
            ["fit", "--mesh", mesh, "--out", state["report"]],
            ["axial", "--mesh", mesh, "--fit", state["report"], "--out", state["axial"]],
        ]

    def check(self, state, index, results):
        _expect_success(results, 2)
        printed = parse_report(results[0][1])
        with open(state["report"], "r", encoding="ascii") as handle:
            saved = parse_report(handle.read())
        if saved != printed or "a_nondim" not in saved:
            raise OpFailed("fit report file does not parse back to the printed report")
        _positive_float(saved, "a_nondim")
        _positive_float(saved, "b_nondim")
        mae = _positive_float(saved, "mean_abs_error_mm")
        ceiling = MAE_FLOOR_MULTIPLE * PAPER_SIGMA_MM * math.sqrt(2.0 / math.pi)
        if mae > ceiling:
            raise OpFailed(f"elevation MAE {mae:.4g} mm above {ceiling:.4g} mm")
        _positive_float(parse_report(results[1][1]), "axial_mean_abs_error_mm")


WORKLOADS = {
    workload.name: workload
    for workload in (
        RadialSolve(),
        MeshFit(name="mesh_fit", size=PAPER_MESH, trace_ops=60),
        MeshFit(name="mesh_large", size=161, trace_ops=40),
    )
}


def oracle_gap():
    """Largest sup |h_Picard - h_fd| over ORACLE_PAIRS on ORACLE_NODES nodes."""
    grid = solver.RadialGrid.uniform(ORACLE_NODES)
    gaps = []
    for a, b in ORACLE_PAIRS:
        params = ModelParams(a=a, b=b)
        picard = solver.solve(params, grid).profile.h
        gaps.append(np.max(np.abs(picard - solver.fd_oracle(params, grid).h)))
    return float(max(gaps))


def fit_a_rel_err():
    """Mean |a_fit / a_true - 1| over the whole fixed QUALITY_SEEDS pool."""
    errors = []
    for seed in QUALITY_SEEDS:
        spec = SynthSpec(
            params=ModelParams(a=PAPER_A, b=PAPER_B),
            scale_radius=PAPER_SCALE_MM,
            ellipse=DomainEllipse.from_signed_ecc_sq(PAPER_ECC2),
            noise_sigma=PAPER_SIGMA_MM,
            seed=seed,
            n_x=PAPER_MESH,
            n_y=PAPER_MESH,
        )
        errors.append(abs(fit_mesh(generate_synthetic(spec)).params.a / PAPER_A - 1.0))
    return float(np.mean(errors))


def fd_oracle_failures(n_nodes):
    """How many ORACLE_PAIRS fd_oracle fails to converge on at n_nodes."""
    grid = solver.RadialGrid.uniform(n_nodes)
    failed = 0
    for a, b in ORACLE_PAIRS:
        try:
            solver.fd_oracle(ModelParams(a=a, b=b), grid)
        except NoConvergence:
            failed += 1
    return failed
