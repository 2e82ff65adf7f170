"""The benchmark's workloads: seeded inputs, fixed task sets, output checks.

A workload is built from a seed in `build(name, G, seed, out_dir)`, where
G is the imported `gpe` package.  Everything a pass needs (bases,
potentials, controls, configs, initial-state seeds) is made there, so
that set-up cost shows in `setup_s` and a pass only calls the public API.

A task is one call into the public API.  Its `call` returns the raw
result; `outputs` turns that result into named float/complex arrays and
`checks` lists the invariant violations that hold for any seed.  Task
calls look functions up on the module at call time (`G.simulate`, never a
captured function object) so that a traced pass sees the wrapped names.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

WORKLOADS = ("ensemble-1d", "cubic-multid", "batched-1d", "cli-examples")
DEFAULT_SEED = 0

# The L2 tolerance against the stored reference, relative to the larger of
# the output's norm and 1, the L2 norm of every state in the benchmark.
# Outputs that are differences of states (residuals, weak-limit and
# convergence errors, tail masses) are far smaller than the states they
# come from; their roundoff is set by the states, so it is measured
# against the states' scale.
REL_TOL = 1e-12
# Criterion 3: L2 drift of sigma = 0 Strang runs.
L2_DRIFT_TOL = 1e-10
# Criterion 5: Strang and Picard final states agree in L2.
CROSS_TOL = 1e-6

_KINDS = ("gaussian_bump", "sech", "polynomial_decay")


@dataclass
class Task:
    name: str
    call: Callable[[], object]
    outputs: Callable[[object], dict]
    checks: Callable[[object], list] = lambda result: []
    # True when the outputs do not depend on the workload seed, so the
    # stored reference applies at every seed, not only the default one.
    seed_free: bool = False
    # False leaves the final state out of the stored reference (its
    # diagnostic columns stay), which keeps 2D/3D references small.
    store_final: bool = True
    # The seeded inputs of the call, for the self-test's fingerprints.
    inputs: object = None


@dataclass
class Workload:
    name: str
    seed: int
    tasks: list
    # Guaranteed passes per run, so the tail percentile always has at
    # least ten samples beyond it (see run.py).
    min_passes: int
    # Checks across tasks of one pass: (outputs by task) -> {task: [msg]}.
    cross_checks: Callable[[dict], dict] = lambda outs: {}
    # Called after a pass has been gated (removes files a pass wrote).
    after_pass: Callable[[], None] = lambda: None


# ---------------------------------------------------------------- checks


def finite_failures(outputs: dict) -> list:
    return [f"{key}: not finite" for key, arr in outputs.items()
            if not np.all(np.isfinite(arr))]


def l2_drift(l2: np.ndarray) -> float:
    return float(np.max(np.abs(l2 - l2[0])) / l2[0])


def compare_reference(outputs: dict, ref: dict) -> list:
    """Relative L2 distance of every referenced output; messages for misses."""
    bad = []
    for key, want in ref.items():
        got = outputs.get(key)
        if got is None:
            bad.append(f"{key}: missing output")
            continue
        if np.shape(got) != np.shape(want):
            bad.append(f"{key}: shape {np.shape(got)} != reference {np.shape(want)}")
            continue
        scale = max(float(np.linalg.norm(want)), 1.0)
        err = float(np.linalg.norm(np.asarray(got) - want))
        if not err <= REL_TOL * scale:
            bad.append(f"{key}: L2 error {err:.3e} > {REL_TOL:g} x {scale:.3e}")
    return bad


def gate(workload: Workload, results: dict, errors: dict, reference: dict) -> dict:
    """Failure messages per task for one pass; an empty list means correct.

    results maps task name to the raw result of its call, errors maps the
    names of tasks that raised to the exception text.  reference maps task
    name to {output: array} at the default seed; None skips the comparison.
    """
    use_ref = reference is not None and workload.seed == DEFAULT_SEED
    failures, outs = {}, {}
    for task in workload.tasks:
        if task.name in errors:
            failures[task.name] = [f"raised {errors[task.name]}"]
            continue
        try:
            out = task.outputs(results[task.name])
            msgs = finite_failures(out) + list(task.checks(results[task.name]))
        except Exception as exc:  # a malformed result is a failed task
            failures[task.name] = [f"unreadable result: {exc!r}"]
            continue
        if use_ref or (reference is not None and task.seed_free):
            ref = reference.get(task.name)
            msgs += ["no reference"] if ref is None else compare_reference(out, ref)
        outs[task.name] = out
        failures[task.name] = msgs
    for name, msgs in workload.cross_checks(outs).items():
        failures[name] = failures.get(name, []) + msgs
    return failures


# --------------------------------------------------------------- helpers


def _potential(G, basis, rng, kind=None):
    kind = kind or _KINDS[int(rng.integers(len(_KINDS)))]
    return G.make_potential(
        basis, kind,
        amplitude=float(rng.uniform(0.3, 1.5)),
        width=float(rng.uniform(0.8, 2.0)),
        center=float(rng.uniform(-1.0, 1.0)),
    )


def _initial(G, rng, lo=2.0, hi=4.0):
    return G.InitialState(
        "random_decay", decay=float(rng.uniform(lo, hi)), seed=int(rng.integers(0, 2**63))
    )


def _control(G, rng, t_final):
    return G.diagnostics.draw_control(
        rng, t_final, float(rng.uniform(0.3, 1.2)), int(rng.integers(4, 12))
    )


def _record_times(t_final, dt, every=None, count=None):
    if count is not None:
        return tuple(np.linspace(0.0, t_final, count))
    steps = int(round(t_final / dt))
    return tuple(j * dt for j in range(0, steps + 1, every))


def traj_outputs(traj) -> dict:
    recs = traj.records
    out = {
        "final": recs[-1].state.coeffs,
        "t": np.array([r.t for r in recs]),
        "l2": np.array([r.l2 for r in recs]),
        "energy": np.array([r.energy for r in recs]),
        "residual": np.array([r.residual_sobolev for r in recs]),
        "linf": np.array([r.linf for r in recs]),
    }
    for s in recs[0].sobolev:
        out[f"h{s:g}"] = np.array([r.sobolev[s] for r in recs])
    return out


def _traj_checks(traj) -> list:
    cfg = traj.cfg
    if cfg.sigma == 0 and cfg.integrator == "strang":
        drift = l2_drift(np.array([r.l2 for r in traj.records]))
        if not drift <= L2_DRIFT_TOL:
            return [f"L2 drift {drift:.3e} > {L2_DRIFT_TOL:g}"]
    return []


def simulate_task(G, name, basis, cfg) -> Task:
    return Task(name, lambda: G.simulate(basis, cfg), traj_outputs, _traj_checks, inputs=cfg)


# ------------------------------------------------------------ workloads

# ensemble-1d: sigma = 0, d = 1 runs behind criteria 3/7, 9, 10 and 11.
# Counts are chosen so that the median task lands inside the N = 64 runs
# and the p90 task inside the N = 256 runs, the two blocks of tasks whose
# cost does not depend on the seed (an ensemble's cost does: each sample
# stops at a random time).
ENS_ATTAINABLE = ((64, 6, 6), (128, 3, 4))   # (N, samples, calls), T = 0.1
ENS_SIM64 = 6           # criterion-7 style runs, N = 64, T = 0.5, 9 records
ENS_SIM128 = 2          # the same at N = 128
ENS_WEAK64 = 2          # weak-limit runs, n in (1, 8, 64), T = 0.5
ENS_SMOOTH256 = (32, 64, 128, 96, 48)   # criterion-9 eigenstates, N = 256, T = 0.15


def _ensemble_1d(G, seed, out_dir):
    rng = np.random.default_rng(seed)
    bases = {n: G.build_basis(1, n) for n in (64, 128, 256)}
    tasks = []
    for n, samples, calls in ENS_ATTAINABLE:
        for i in range(calls):
            tasks.append(_attainable_task(G, f"attainable-d1n{n}-{i}", bases[n], rng, samples))
    for n, count in ((64, ENS_SIM64), (128, ENS_SIM128)):
        for i in range(count):
            tasks.append(simulate_task(G, f"sim-d1n{n}-{i}", bases[n],
                                       _cfg(G, bases[n], rng, 0, 0.5, 1e-3, count=9)))
    for i in range(ENS_WEAK64):
        tasks.append(_weak_task(G, f"weak-limit-d1n64-{i}", bases[64], rng))
    b256 = bases[256]
    for k0 in ENS_SMOOTH256:
        pot = G.make_potential(b256, "gaussian_bump", amplitude=float(rng.uniform(0.8, 1.2)),
                               width=1.2, center=float(rng.uniform(-0.5, 0.5)))
        cfg = G.SimConfig(
            dim=1, n_modes=256, sigma=0, t_final=0.15, dt=1e-3,
            initial_state=G.InitialState("eigenstate", (k0,)), potential=pot,
            control=G.diagnostics.draw_control(rng, 0.15, 1.0, 8),
            record_times=_record_times(0.15, 1e-3, count=11),
        )
        tasks.append(simulate_task(G, f"smooth-d1n256-k{k0}", b256, cfg))
    return Workload("ensemble-1d", seed, tasks, min_passes=5)


def _cfg(G, basis, rng, sigma, t_final, dt, count=None, every=None, control=None, pot=None,
         initial=None):
    return G.SimConfig(
        dim=basis.dim, n_modes=basis.n_modes, sigma=sigma, t_final=t_final, dt=dt,
        initial_state=initial if initial is not None else _initial(G, rng),
        potential=pot if pot is not None else _potential(G, basis, rng),
        control=control if control is not None else _control(G, rng, t_final),
        record_times=_record_times(t_final, dt, every=every, count=count),
    )


def _attainable_task(G, name, basis, rng, samples):
    # criterion 11 cutoffs, at N/4, N/2 and 3N/4 of the 64-mode base
    cutoffs = [2.0 * (64 // 4) + 1.0, 2.0 * (64 // 2) + 1.0, 2.0 * (3 * 64 // 4) + 1.0]
    cfg = _cfg(G, basis, rng, 0, 0.1, 2e-3, count=2, control=G.ControlSignal.zero(0.1))
    cfg = replace(cfg, record_times=(0.1,))
    ens_seed = int(rng.integers(0, 2**31))

    def outputs(profiles):
        return {"tail_mass": np.array([p.masses for p in profiles])}

    def checks(profiles):
        masses = outputs(profiles)["tail_mass"]
        return [] if np.all(masses >= 0.0) else ["negative tail mass"]

    return Task(
        name,
        lambda: G.attainable_ensemble(basis, cfg, samples, 1.0, seed=ens_seed, k=0,
                                      beta=0.4, cutoffs=cutoffs),
        outputs, checks, inputs=(cfg, samples, ens_seed),
    )


def _weak_task(G, name, basis, rng):
    u = G.ControlSignal.piecewise_constant([float(rng.uniform(0.1, 0.5))], 0.5)
    cfg = replace(_cfg(G, basis, rng, 0, 0.5, 2e-3, count=2, control=u), record_times=(0.5,))

    def outputs(errs):
        return {"n": np.array([n for n, _ in errs], dtype=float),
                "err": np.array([e for _, e in errs])}

    return Task(
        name,
        lambda: G.weak_limit_experiment(basis, cfg, [1, 8, 64], 1.0),
        outputs, inputs=cfg,
    )


# cubic-multid: defocusing 2D at N = 64 and focusing 3D at N = 16, records
# every 10 steps.
CUBIC_2D = 6
CUBIC_3D = 14
CUBIC_T = 0.06


def _cubic_multid(G, seed, out_dir):
    rng = np.random.default_rng(seed)
    tasks = []
    for dim, n, sigma, count in ((2, 64, 1, CUBIC_2D), (3, 16, -1, CUBIC_3D)):
        basis = G.build_basis(dim, n)
        pot = _potential(G, basis, rng, kind="gaussian_bump")
        for i in range(count):
            base = _control(G, rng, CUBIC_T)
            u = G.ControlSignal.sinusoid_perturbed(
                base, float(rng.uniform(0.3, 0.8)), int(rng.integers(1, 5)))
            cfg = _cfg(G, basis, rng, sigma, CUBIC_T, 1e-3, every=10, control=u, pot=pot,
                       initial=_initial(G, rng, 2.5, 4.0))
            task = simulate_task(G, f"cubic-d{dim}n{n}-{i}", basis, cfg)
            task.store_final = i == 0
            tasks.append(task)
    return Workload("cubic-multid", seed, tasks, min_passes=5)


# batched-1d: criterion 8 (Kato functional of all 257 eigenstates) and
# criterion 5 (Picard against Strang at N = 64, sigma in {0, 1}).  The
# N = 64 runs are repeated over BAT_REPS seeded inputs so that they are
# about a tenth of a pass: the p95 task then lands inside their block,
# not in the slowest few Kato calls, where it would time the host's
# hiccups rather than the code.
KATO_N = 257
KATO_BETA = 0.45
KATO_PANELS = 256
BAT_REPS = 5


def _batched_1d(G, seed, out_dir):
    rng = np.random.default_rng(seed)
    b257 = G.build_basis(1, KATO_N)
    # An eigenstate's free-flow density does not change in time, so the
    # functional over a window of fixed length is the same wherever the
    # window starts: the seeded start moves the input, not the answer.
    t0 = -2.0 * np.pi + float(rng.uniform(-1.0, 1.0))
    window = (t0, t0 + 4.0 * np.pi)
    tasks = []
    for k in range(KATO_N):
        phi = G.basis_state(b257, k)
        tasks.append(Task(
            f"kato-k{k}",
            lambda phi=phi: G.kato_functional(b257, phi, KATO_BETA, window, KATO_PANELS),
            lambda val: {"kato": np.array([val])},
            lambda val: [] if val > 0.0 else ["non-positive functional"],
            seed_free=True, inputs=(k, window),
        ))
    b64 = G.build_basis(1, 64)
    pot = G.make_potential(b64, "gaussian_bump", amplitude=float(rng.uniform(0.8, 1.2)),
                           width=1.2, center=float(rng.uniform(-0.5, 0.5)))
    pairs = []
    for rep in range(BAT_REPS):
        for sigma in (0, 1):
            cfg = G.SimConfig(
                dim=1, n_modes=64, sigma=sigma, t_final=0.1, dt=1e-4,
                initial_state=_initial(G, rng, 2.5, 3.0), potential=pot,
                control=G.ControlSignal.piecewise_constant([float(rng.uniform(0.3, 0.9))], 0.1),
                record_times=(0.1,),
            )
            tag = f"s{sigma}-{rep}"
            tasks.append(simulate_task(G, f"strang-{tag}", b64, cfg))
            tasks.append(simulate_task(G, f"picard-sim-{tag}", b64,
                                       replace(cfg, integrator="picard")))
            tasks.append(Task(
                f"picard-solve-{tag}",
                lambda cfg=cfg: G.picard_solve(b64, cfg, 0.1),
                lambda res: {"final": res.state.coeffs, "n_iter": np.array([float(res.n_iter)])},
                inputs=cfg,
            ))
            pairs += [(f"strang-{tag}", f"picard-sim-{tag}"),
                      (f"strang-{tag}", f"picard-solve-{tag}")]

    def cross_checks(outs):
        bad = {}
        for strang_name, name in pairs:
            strang = outs.get(strang_name)
            if strang is None or name not in outs:
                continue
            dist = float(np.linalg.norm(outs[name]["final"] - strang["final"]))
            if not dist <= CROSS_TOL:
                bad[name] = [f"Picard vs Strang L2 distance {dist:.3e} > {CROSS_TOL:g}"]
        return bad

    return Workload("batched-1d", seed, tasks, min_passes=3, cross_checks=cross_checks)


# cli-examples: the example configs through gpe.cli.run_config.
CLI_REPEATS = 3


def _read_table(path: str) -> dict:
    """Columns of a CSV or JSONL file written by emit_records, as arrays."""
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    if path.endswith(".jsonl"):
        rows = [json.loads(line) for line in text.splitlines()]
        keys = list(rows[0])
        return {k: np.array([float(r[k]) for r in rows]) for k in keys}
    lines = text.splitlines()
    keys = lines[0].split(",")
    vals = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return {k: vals[:, j] for j, k in enumerate(keys)}


def _cli_examples(G, seed, out_dir):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config_dir = os.path.join(root, "configs")
    names = sorted(f for f in os.listdir(config_dir) if f.endswith(".json"))
    configs = {}
    for name in names:
        with open(os.path.join(config_dir, name), encoding="utf-8") as fh:
            configs[name[:-5]] = json.load(fh)
    rng = np.random.default_rng(seed)
    overrides = [int(rng.integers(0, 2**31)) for _ in range(CLI_REPEATS)]
    pass_dir = os.path.join(out_dir, f"cli-{os.getpid()}")
    tasks = []
    for rep, seed_override in enumerate(overrides):
        for stem, config in configs.items():
            task_dir = os.path.join(pass_dir, f"{stem}-{rep}")
            sigma = config.get("sim", {}).get("sigma")

            def outputs(code, task_dir=task_dir):
                out = {}
                for fname in sorted(os.listdir(task_dir)):
                    for col, arr in _read_table(os.path.join(task_dir, fname)).items():
                        out[f"{fname}:{col}"] = arr
                return out

            def checks(code, task_dir=task_dir, sigma=sigma):
                if code != 0:
                    return [f"exit code {code}"]
                bad = []
                for key, arr in outputs(code).items():
                    if sigma == 0 and key.endswith(":l2"):
                        drift = l2_drift(arr)
                        if not drift <= L2_DRIFT_TOL:
                            bad.append(f"{key}: L2 drift {drift:.3e} > {L2_DRIFT_TOL:g}")
                return bad

            tasks.append(Task(
                f"{stem}-{rep}",
                lambda config=config, s=seed_override, d=task_dir: G.cli.run_config(
                    config, seed_override=s, output_override=d),
                outputs, checks, inputs=(stem, seed_override),
            ))

    def after_pass():
        shutil.rmtree(pass_dir, ignore_errors=True)

    # Ten passes give 210 task calls, so the tail is p95, the middle of the
    # three convergence runs, the costliest config.
    return Workload("cli-examples", seed, tasks, min_passes=10, after_pass=after_pass)


_BUILDERS = {
    "ensemble-1d": _ensemble_1d,
    "cubic-multid": _cubic_multid,
    "batched-1d": _batched_1d,
    "cli-examples": _cli_examples,
}


def build(name: str, G, seed: int, out_dir: str) -> Workload:
    return _BUILDERS[name](G, seed, out_dir)


def reference_path(name: str) -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "reference", f"{name}.npz")


def load_reference(name: str) -> dict:
    """{task: {output: array}} from the stored reference, {} if absent."""
    path = reference_path(name)
    if not os.path.exists(path):
        return {}
    ref = {}
    with np.load(path, allow_pickle=False) as data:
        for key in data.files:
            task, out = key.split("|", 1)
            ref.setdefault(task, {})[out] = data[key]
    return ref
