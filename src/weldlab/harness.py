"""Experiment runner: reproducible configs in, JSON reports and CSV out.

Every command is a deterministic function of its config (trials run in
fixed-size chunks seeded by chunk index, so the job count changes wall
time, never results).
Reports are appended as single JSON lines; rerunning a config appends a
byte-identical line.  Statistical checks report at 3 sigma and only fail a
run beyond 5 sigma; hard checks fail immediately.
"""
from __future__ import annotations

import json
import math
import os
import platform
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy

from . import __version__
from . import bottleneck as BN
from . import circuits as C
from . import hybrid_sim as HS
from . import tree
from . import walk
from .rng import derive_seed, make_rng

SCHEMA_VERSION = 1
JOBS_ENV_VAR = "WELDLAB_JOBS"


@dataclass
class ExperimentConfig:
    experiment: str
    n: int = 4
    seed: int = 0
    trials: int = 20_000
    samples: int = 50           # labelings for simulator comparisons
    h_values: tuple[int, ...] = (1, 4, 16)
    t_max: float = 40.0
    steps: int = 400
    budget: int | None = None   # walker budget; default round(2^(n/3))
    circuit_file: str | None = None
    tau: float | None = None
    rho_log2: float | None = None
    sample_budget: int = 24
    out: str | None = None
    jobs: int = 0               # 0: honor WELDLAB_JOBS, else 1

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        doc = json.loads(text)
        if "h_values" in doc:
            doc["h_values"] = tuple(doc["h_values"])
        return cls(**doc)

    def to_jsonable(self) -> dict:
        doc = asdict(self)
        doc["h_values"] = list(self.h_values)
        return doc

    def result_fields(self) -> dict:
        """The echo embedded in reports: every field that determines results.

        ``out`` routes I/O and ``jobs`` only changes wall time, so they stay
        out of the echo and reruns are byte-identical wherever they write.
        """
        doc = self.to_jsonable()
        doc.pop("out")
        doc.pop("jobs")
        return doc

    def effective_jobs(self) -> int:
        if self.jobs > 0:
            return self.jobs
        env = os.environ.get(JOBS_ENV_VAR)
        return max(1, int(env)) if env else 1

    def walker_budget(self) -> int:
        return self.budget if self.budget is not None else round(2 ** (self.n / 3))


@dataclass
class CheckResult:
    name: str
    kind: str               # "hard" | "statistical" | "info"
    measured: float
    bound: float | None
    sigma: float | None
    passed: bool
    fatal: bool

    def to_jsonable(self) -> dict:
        return {k: v for k, v in asdict(self).items()}


def hard_check(name: str, measured, bound, ok: bool) -> CheckResult:
    return CheckResult(name=name, kind="hard", measured=float(measured),
                       bound=None if bound is None else float(bound),
                       sigma=None, passed=bool(ok), fatal=not ok)


def stat_check(name: str, measured: float, bound: float, sigma: float) -> CheckResult:
    sigma = max(sigma, 1e-300)
    passed = measured <= bound + 3 * sigma
    fatal = measured > bound + 5 * sigma
    return CheckResult(name=name, kind="statistical", measured=float(measured),
                       bound=float(bound), sigma=float(sigma), passed=passed,
                       fatal=fatal)


def info_check(name: str, measured: float, bound: float | None = None) -> CheckResult:
    return CheckResult(name=name, kind="info", measured=float(measured),
                       bound=None if bound is None else float(bound),
                       sigma=None, passed=True, fatal=False)


@dataclass
class Report:
    experiment: str
    config: dict
    checks: list[CheckResult] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def environment(self) -> dict:
        return {"weldlab": __version__,
                "python": platform.python_version(),
                "platform": sys.platform,
                "numpy": np.__version__,
                "scipy": scipy.__version__}

    def to_json(self) -> str:
        doc = {"schema_version": self.schema_version,
               "experiment": self.experiment,
               "config": self.config,
               "checks": [c.to_jsonable() for c in self.checks],
               "artifacts": self.artifacts,
               "environment": self.environment()}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def ok(self) -> bool:
        return not any(c.fatal for c in self.checks)


def write_report(report: Report, out: str | None) -> str:
    line = report.to_json() + "\n"
    if out:
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(line)
    return line


# ---------------------------------------------------------------------------
# discovery: the fresh-valid-label guessing experiment
# ---------------------------------------------------------------------------

def _discovery_chunk(args) -> int:
    """Hits in one chunk of guessing trials; module-level for process pools."""
    structure, coloring, h, chunk_seed, trials = args
    rng = make_rng(chunk_seed, "trials")
    batch = tree.generate_label_batch(structure, coloring, trials, rng)
    seen = walk.blind_walks(batch.handle(), h, trials, rng)
    guess = rng.integers(0, 1 << batch.label_bits, size=trials)
    # grading: a hit names a vertex label the walk never stood on
    fresh = (batch.vertex_of(guess) >= 0) & (seen != guess[:, None]).all(axis=1)
    return int(np.count_nonzero(fresh))


def discovery_rate(n: int, h: int, trials: int, seed: int, jobs: int = 1
                   ) -> tuple[float, float]:
    """(empirical rate, stderr) for the h-query guessing adversary.

    Every trial walks the same colored tree under a fresh labeling.  Trials
    run in chunks of a size fixed by (n, h) alone, each seeded from its
    chunk index, so ``jobs`` only decides how many processes share them.
    """
    walk.check_trials("discovery_rate", trials, h)
    structure = tree.generate_structure(n, derive_seed(seed, "structure"))
    coloring = tree.generate_coloring(structure, derive_seed(seed, "coloring"))
    per = walk.batch_trials(structure.vertex_count + h + 1)
    args = [(structure, coloring, h, derive_seed(seed, "chunk", i), min(per, trials - start))
            for i, start in enumerate(range(0, trials, per))]
    if jobs > 1 and len(args) > 1:
        workers = min(jobs, len(args))
        # one task per worker, not per chunk: a future per chunk costs memory
        with ProcessPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(_discovery_chunk, args, chunksize=-(-len(args) // workers)))
    else:
        hits = sum(map(_discovery_chunk, args))
    p = hits / trials
    stderr = math.sqrt(max(p * (1 - p), 1.0 / trials) / trials)
    return p, stderr


def discovery_bound(n: int, h: int) -> float:
    return h * (2 ** (n + 2) - 2) / 2 ** (2 * n)


def cmd_discovery(config: ExperimentConfig) -> Report:
    report = Report(experiment="discovery", config=config.result_fields())
    n = config.n
    for h in config.h_values:
        bound = discovery_bound(n, h)
        rate, stderr = discovery_rate(n, h, config.trials,
                                      derive_seed(config.seed, "discovery", n, h),
                                      jobs=config.effective_jobs())
        report.checks.append(stat_check(f"discovery n={n} h={h} rate<=bound",
                                        rate, bound, stderr))
    if n == 3:
        report.checks.append(hard_check("printed bound n=3 h=1 equals 30/64",
                                        discovery_bound(3, 1), 30 / 64,
                                        discovery_bound(3, 1) == 30 / 64))
    return report


# ---------------------------------------------------------------------------
# walk: sweep, cross-checks, classical baseline
# ---------------------------------------------------------------------------

def cmd_walk(config: ExperimentConfig) -> Report:
    report = Report(experiment="walk", config=config.result_fields())
    n = config.n
    res = walk.sweep(n, config.t_max, config.steps, config.seed)
    report.checks.append(hard_check("curve length equals steps",
                                    len(res.curve), config.steps,
                                    len(res.curve) == config.steps))
    report.checks.append(hard_check("best exit probability positive",
                                    res.best_p, 0.0, res.best_p > 0))
    report.checks.append(info_check("best_t", res.best_t))
    report.checks.append(info_check("best_p", res.best_p))

    if n <= walk.FULL_WALK_MAX_N:
        structure = tree.generate_structure(n, config.seed)
        rw = walk.build_reduced(structure)
        rng = make_rng(config.seed, "cross-check")
        worst = 0.0
        worst_norm = 0.0
        for _ in range(20):
            t = float(rng.uniform(0, config.t_max))
            vec = walk.full_graph_state(structure, t)
            worst = max(worst, abs(walk.evolve_exit_probability(rw, t)
                                   - float(np.abs(vec[structure.exit]) ** 2)))
            worst_norm = max(worst_norm, abs(float(np.sum(np.abs(vec) ** 2)) - 1.0))
        report.checks.append(hard_check("reduced vs full agreement", worst, 1e-9,
                                        worst <= 1e-9))
        report.checks.append(hard_check("probability conservation", worst_norm,
                                        1e-9, worst_norm <= 1e-9))

    bbt = tree.make_blackbox(max(n, 2), derive_seed(config.seed, "walker-tree"))
    budget = config.walker_budget()
    trials = min(config.trials, 10_000)
    rate = walk.walker_success_rate(bbt, budget, trials,
                                    derive_seed(config.seed, "walker"))
    report.checks.append(info_check(f"classical walker rate (budget {budget})", rate))
    report.checks.append(hard_check("separation factor >= 10x",
                                    res.best_p, 10 * rate, res.best_p >= 10 * rate))
    if config.out:
        # the report carries the artifact's name only, so reruns stay
        # byte-identical wherever they write; the file sits next to `out`
        csv_name = f"walk-n{n}.csv"
        with open(f"{config.out}.{csv_name}", "w", encoding="utf-8") as fh:
            fh.write(walk.curve_to_csv(res.curve))
        report.artifacts["curve_csv"] = csv_name
    return report


# ---------------------------------------------------------------------------
# simulate: simulators against references
# ---------------------------------------------------------------------------

def _default_circuit(n: int) -> C.HybridCircuit:
    text = f"""hybrid n={n} g={4 * n + 4}
tier classical
  {" ".join(f"ANC({w})" for w in range(n, 4 * n + 4))}
tier quantum
  {" ".join(f"H({w})" for w in range(2 * n, 2 * n + 2))}
  QRY({",".join(str(w) for w in range(4 * n + 4))})
"""
    return C.parse(text)


def load_circuit(config: ExperimentConfig) -> C.Circuit:
    if config.circuit_file:
        with open(config.circuit_file, encoding="utf-8") as fh:
            return C.parse(fh.read())
    return _default_circuit(config.n)


def cmd_simulate(config: ExperimentConfig) -> Report:
    report = Report(experiment="simulate", config=config.result_fields())
    circuit = load_circuit(config)
    problems = C.validate(circuit)
    report.checks.append(hard_check("circuit validates", len(problems), 0,
                                    not problems))
    if problems:
        return report
    n = circuit.n
    structure = tree.generate_structure(n, derive_seed(config.seed, "structure"))
    comp = HS.compare_to_reference(circuit, structure, config.samples, config.seed)
    stats = C.accounting(circuit)
    report.checks.append(hard_check("fidelity identity gap <= 1e-10",
                                    comp.max_fidelity_gap, 1e-10,
                                    comp.max_fidelity_gap <= 1e-10))
    envelope = (4 * (2 ** (n + 2) - 2) / 2 ** (2 * n)) * max(stats.query_gates, 1)
    report.checks.append(stat_check("mean TV within query envelope",
                                    comp.mean_tv, envelope, comp.stderr_tv))
    report.checks.append(info_check("mean queries per run", comp.mean_queries))
    report.checks.append(hard_check(
        "wrapper query ceiling", comp.mean_queries,
        HS.wrapper_query_ceiling(circuit),
        comp.mean_queries <= HS.wrapper_query_ceiling(circuit)))

    if isinstance(circuit, C.HybridCircuit) and circuit.all_quantum:
        bbt = tree.generate_labels(structure,
                                   tree.generate_coloring(structure,
                                                          derive_seed(config.seed, "col")),
                                   derive_seed(config.seed, "lab"))
        acct = C.accounting(circuit)
        tape = BN.SeedTape.generate(config.seed, n, circuit.eta,
                                    max(acct.max_quantum_depth, 1), circuit.g)
        b0 = BN.bottleneck_wrapper(circuit, bbt, seed=config.seed,
                                   cfg=BN.BottleneckConfig(tau=0.0), tape=tape)
        f0 = HS.few_tier_wrapper(circuit, bbt, seed=config.seed,
                                 tier_seed_fn=tape.tier_seed)
        same = (b0.output == f0.output
                and b0.transcript.to_json() == f0.transcript.to_json())
        report.checks.append(hard_check("tau=0 degeneration transcript-identical",
                                        int(same), 1, same))
        cfg = BN.BottleneckConfig(tau=config.tau, rho_log2=config.rho_log2,
                                  sample_budget=config.sample_budget)
        res = BN.bottleneck_wrapper(circuit, bbt, seed=config.seed, cfg=cfg, tape=tape)
        report.checks.append(info_check("bottleneck aborted", float(res.aborted)))
        report.checks.append(info_check("bottleneck |V_hist|", res.hist.size()))
    return report


# ---------------------------------------------------------------------------
# e2e: aggregate the story
# ---------------------------------------------------------------------------

def cmd_e2e(config: ExperimentConfig) -> Report:
    report = Report(experiment="e2e", config=config.result_fields())
    n = config.n
    budget = config.walker_budget()
    bbt = tree.make_blackbox(n, derive_seed(config.seed, "tree"))
    trials = config.trials
    rate = walk.walker_success_rate(bbt, budget, trials,
                                    derive_seed(config.seed, "walker"))
    report.checks.append(hard_check(
        f"classical walker rate <= 1e-3 (budget {budget})", rate, 1e-3,
        rate <= 1e-3))
    res = walk.sweep(n, config.t_max, config.steps, config.seed)
    report.checks.append(info_check("quantum walk best_p", res.best_p))
    report.checks.append(hard_check("walk beats walker 10x",
                                    res.best_p, 10 * rate, res.best_p >= 10 * rate))
    sim_cfg = ExperimentConfig(experiment="simulate", n=min(n, 3),
                               seed=config.seed, samples=min(config.samples, 30),
                               circuit_file=config.circuit_file)
    sub = cmd_simulate(sim_cfg)
    for chk in sub.checks:
        chk.name = "simulate: " + chk.name
        report.checks.append(chk)
    return report


COMMANDS = {"walk": cmd_walk, "discovery": cmd_discovery,
            "simulate": cmd_simulate, "e2e": cmd_e2e}


def run_command(config: ExperimentConfig) -> Report:
    try:
        fn = COMMANDS[config.experiment]
    except KeyError:
        raise ValueError(f"unknown experiment {config.experiment!r}") from None
    return fn(config)
