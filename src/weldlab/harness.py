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
import platform
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from . import bottleneck as BN
from . import circuits as C
from . import hybrid_sim as HS
from . import tree
from . import walk
from .rng import derive_seed, make_rng

SCHEMA_VERSION = 1
MAX_N = 15
"""Largest tree height: ``simulate`` colors a height-n tree, and the coloring
search stops at 200,000 steps, one per edge unconstrained (3 * 2^(n+1) - 4)."""


_JSON_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "str": ((str,), "a string"), "tuple[int, ...]": ((list,), "a list of integers")}


def _json_field(name: str, annotation: str, value):
    """A config file's ``value`` for field ``name``, checked against the
    field's annotation (``int``, ``float``, ``str``, ``tuple[int, ...]``,
    each possibly ``| None``)."""
    base, _, nullable = annotation.partition(" | ")
    if value is None and nullable == "None":
        return value
    kinds, wanted = _JSON_TYPES[base]
    ok = isinstance(value, kinds) and not isinstance(value, bool)
    if ok and base == "tuple[int, ...]":
        ok = all(isinstance(v, int) and not isinstance(v, bool) for v in value)
        value = tuple(value)
    if not ok:
        raise ValueError(f"config field {name!r} must be {wanted}"
                         f"{' or null' if nullable else ''}, got {json.dumps(value)}")
    return value


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
    jobs: int = 1               # processes for discovery's trial chunks

    @classmethod
    def from_json(cls, text: str, experiment: str | None = None) -> "ExperimentConfig":
        """The config a JSON object describes; ``experiment`` overrides its own."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        doc["experiment"] = experiment or doc.get("experiment")
        if doc["experiment"] is None:
            raise ValueError("config names no experiment")
        types = {f.name: f.type for f in fields(cls)}
        return cls(**{key: _json_field(key, types[key], val) for key, val in doc.items()})

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

    def walker_budget(self) -> int:
        return self.budget if self.budget is not None else round(2 ** (self.n / 3))

    def check_bounds(self) -> None:
        """A ValueError naming the first field out of its bounds; ``run_command``
        checks every config here, once, whatever the command."""
        if not 1 <= self.n <= MAX_N:    # the tree is built first: 8 TiB at n=40
            raise ValueError(f"config field 'n' must be in [1, {MAX_N}], got {self.n}")
        for name, least in {"trials": 1, "samples": 1, "steps": 1, "sample_budget": 1,
                            "jobs": 1, "t_max": 0, "budget": 0}.items():
            value = getattr(self, name)
            if value is None:
                continue
            if not value < math.inf:        # NaN and inf; a large int is finite
                raise ValueError(f"config field {name!r} must be finite, got {value}")
            if value < least:
                raise ValueError(f"config field {name!r} must be >= {least}, got {value}")
        if self.tau is not None and not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"config field 'tau' must be in [0, 1], got {self.tau}")
        if self.rho_log2 is not None and not -math.inf < self.rho_log2 < math.inf:
            raise ValueError(f"config field 'rho_log2' must be finite, got {self.rho_log2}")
        if any(h < 0 for h in self.h_values):
            raise ValueError(f"config field 'h_values' must hold budgets >= 0, "
                             f"got {list(self.h_values)}")


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


def info_check(name: str, measured: float) -> CheckResult:
    return CheckResult(name=name, kind="info", measured=float(measured), bound=None,
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
                "numpy": np.__version__}

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


def write_out(path: str, text: str, mode: str = "a") -> None:
    """Write ``text`` to ``path``, or raise a ValueError naming it."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"out {path}: {exc.strerror}") from None


def write_report(report: Report, out: str | None) -> str:
    line = report.to_json() + "\n"
    if out:
        write_out(out, line)
    return line


# ---------------------------------------------------------------------------
# discovery: the fresh-valid-label guessing experiment
# ---------------------------------------------------------------------------

def _discovery_chunk(args) -> int:
    """Hits in one chunk of guessing trials; module-level for process pools.

    A trial walks blind in vertex space (``walk.blind_walks``) and then
    guesses a uniform 2n-bit string.  A hit is a guess that labels a vertex
    the walk never reached: under a uniform labeling drawn apart from the
    walk, exactly V - K of the 2^(2n) strings do, K counting the distinct
    vertices reached, entrance included.  So a hit is ``u < V - K`` for a
    uniform ``u``, and no label is drawn.  A chunk draws its walks and
    guesses from its one seeded stream.
    """
    neighbors, label_bits, h, chunk_seed, trials = args
    rng = make_rng(chunk_seed, "trials")
    path = np.sort(walk.blind_walks(neighbors, h, trials, rng), axis=1)
    reached = 1 + np.count_nonzero(path[:, 1:] != path[:, :-1], axis=1)
    guess = rng.integers(0, 1 << label_bits, size=trials)
    return int(np.count_nonzero(guess < len(neighbors) - reached))


def discovery_rate(n: int, h: int, trials: int, seed: int, jobs: int = 1
                   ) -> tuple[float, float]:
    """(empirical rate, stderr) for the h-query guessing adversary.

    Every trial walks the same ``walk.blind_table`` under a fresh labeling.
    Trials run in chunks of a size fixed by h alone, each seeded from its
    chunk index, so ``jobs`` only decides how many processes share them.
    """
    walk.check_trials("discovery_rate", trials, h)
    structure = tree.generate_structure(n, derive_seed(seed, "structure"))
    label_bits = tree.checked_label_bits(structure)
    neighbors = walk.blind_table(structure)
    per = walk.batch_trials(h + 1)
    args = [(neighbors, label_bits, h, derive_seed(seed, "chunk", i), min(per, trials - start))
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
                                      jobs=config.jobs)
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
        ts = np.array([rng.uniform(0, config.t_max) for _ in range(20)])
        probs = np.abs(walk.full_graph_state(structure, ts)) ** 2
        worst = np.max(np.abs(walk.evolve_exit_probabilities(rw, ts) - probs[:, structure.exit]))
        worst_norm = np.max(np.abs(probs.sum(axis=1) - 1.0))
        report.checks.append(hard_check("reduced vs full agreement", worst, 1e-9,
                                        worst <= 1e-9))
        report.checks.append(hard_check("probability conservation", worst_norm,
                                        1e-9, worst_norm <= 1e-9))

    # the walker reads no label or color, so it walks the bare structure, n=1 too
    walker_tree = tree.generate_structure(n, derive_seed(config.seed, "walker-tree"))
    budget = config.walker_budget()
    rate = walk.walker_success_rate(walker_tree, budget, min(config.trials, 10_000),
                                    derive_seed(config.seed, "walker"))
    report.checks.append(info_check(f"classical walker rate (budget {budget})", rate))
    report.checks.append(hard_check("separation factor >= 10x",
                                    res.best_p, 10 * rate, res.best_p >= 10 * rate))
    if config.out:
        # the report carries the artifact's name only, so reruns stay
        # byte-identical wherever they write; the file sits next to `out`
        csv_name = f"walk-n{n}.csv"
        write_out(f"{config.out}.{csv_name}", walk.curve_to_csv(res.curve), "w")
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
    """The circuit file's circuit, else the default one; a file that cannot
    be read or parsed is a ``ValueError`` naming it."""
    if not config.circuit_file:
        return _default_circuit(config.n)
    path = config.circuit_file
    try:
        with open(path, encoding="utf-8") as fh:
            return C.parse(fh.read())
    except OSError as exc:
        raise ValueError(f"circuit {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"circuit {path}: {exc}") from None


def cmd_simulate(config: ExperimentConfig) -> Report:
    report = Report(experiment="simulate", config=config.result_fields())
    circuit = load_circuit(config)
    problems = C.validate(circuit)
    report.checks.append(hard_check("circuit validates", len(problems), 0,
                                    not problems))
    if problems:
        # the located diagnostics, one a line
        report.artifacts["circuit_problems"] = "\n".join(problems)
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
        tape = BN.SeedTape.generate(config.seed, n, circuit.eta,
                                    max(stats.max_quantum_depth, 1), circuit.g)
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
    structure = tree.generate_structure(n, derive_seed(config.seed, "tree"))
    tree.checked_label_bits(structure)      # the simulate part labels: n=1 fails before any work
    rate = walk.walker_success_rate(structure, budget, config.trials,
                                    derive_seed(config.seed, "walker"))
    report.checks.append(hard_check(
        f"classical walker rate <= 1e-3 (budget {budget})", rate, 1e-3,
        rate <= 1e-3))
    res = walk.sweep(n, config.t_max, config.steps, config.seed)
    report.checks.append(info_check("quantum walk best_p", res.best_p))
    report.checks.append(hard_check("walk beats walker 10x",
                                    res.best_p, 10 * rate, res.best_p >= 10 * rate))
    sub = cmd_simulate(replace(config, experiment="simulate", n=min(n, 3),
                               samples=min(config.samples, 30)))
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
    config.check_bounds()
    return fn(config)
