"""The experiment registry: each sweep the CLI and the job service share.

One :class:`Experiment` record per sweep generates its CLI subcommand
(:mod:`repro.cli`), validates a :class:`~repro.service.JobSpec`'s
``params`` and runs the job (:mod:`repro.service.exec`).  Both front ends
call :meth:`Experiment.run` with a :class:`RunContext`, so a sweep
records the same store fingerprints from the shell and from the service.

The module imports only :mod:`repro.config` and :mod:`repro.errors`; run
functions are ``"module:function"`` strings imported on first use, so
``repro --help`` loads no experiment, runner, store, search or service
code.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .config import KABY_LAKE, SKYLAKE, PlatformConfig
from .errors import ServiceError

#: Names ``--platform`` and a spec's ``platform`` accept.
PLATFORMS: Dict[str, PlatformConfig] = {"skylake": SKYLAKE, "kaby-lake": KABY_LAKE}


def register_platform(name: str, config: PlatformConfig) -> None:
    """Make ``config`` addressable as ``platform=name`` (tests)."""
    PLATFORMS[name] = config


def machine_factory(config: PlatformConfig, seed: int,
                    engine: Optional[str] = None) -> Callable[[], Any]:
    """A zero-argument builder of ``Machine(config, seed, backend=engine)``."""
    from .sim.machine import Machine

    return lambda: Machine(config, seed=seed, backend=engine)


@dataclass(frozen=True)
class RunContext:
    """The runner surface of one sweep, from CLI flags or a job spec.

    ``store=None`` and ``runtime=None`` resolve the process defaults.
    """

    config: PlatformConfig
    seed: int = 0
    engine: Optional[str] = None
    jobs: int = 1
    cache: Any = None
    metrics: Any = None
    trace: Any = None
    faults: Any = None
    retries: int = 0
    warm_start: bool = True
    store: Any = None
    runtime: Any = None

    def machine_factory(self) -> Callable[[], Any]:
        return machine_factory(self.config, self.seed, self.engine)

    def sweep_kwargs(self, seeded: bool = True, warm_start: bool = True) -> Dict[str, Any]:
        """The runner keyword arguments of the ``run_*`` sweeps."""
        kwargs = dict(engine=self.engine, jobs=self.jobs, result_cache=self.cache,
                      metrics=self.metrics, trace=self.trace, faults=self.faults,
                      retries=self.retries, store=self.store, runtime=self.runtime)
        if seeded:
            kwargs["seed"] = self.seed
        if warm_start:
            kwargs["warm_start"] = self.warm_start
        return kwargs


@dataclass(frozen=True)
class Param:
    """One knob: a run-function kwarg, a spec ``params`` key, a CLI flag.

    ``type`` is ``int``, ``str`` or ``list`` (a non-empty list of ints);
    ``minimum`` bounds ints and list items.  ``flag=None`` keeps the knob
    off the CLI.
    """

    name: str
    type: type
    default: Any
    flag: Optional[str] = None
    choices: Tuple[Any, ...] = ()
    minimum: Optional[int] = None
    help: Optional[str] = None
    metavar: Optional[str] = None

    def check(self, value: Any) -> None:
        """Raise ``ValueError`` unless ``value`` fits this param."""
        items, kind = [value], self.type
        if kind is list:
            if not isinstance(value, (list, tuple)) or not value:
                raise ValueError(f"must be a non-empty list of integers, got {value!r}")
            items, kind = value, int
        for item in items:
            if not isinstance(item, kind) or isinstance(item, bool):
                raise ValueError(f"must be {kind.__name__}, got {item!r}")
            if self.choices and item not in self.choices:
                raise ValueError(f"{item!r} is not one of {', '.join(self.choices)}")
            if self.minimum is not None and item < self.minimum:
                raise ValueError(f"must be >= {self.minimum}, got {item!r}")


@dataclass(frozen=True)
class Experiment:
    """One sweep, declared once for the CLI and the job service.

    The run function named by ``function`` takes the platform config
    (``takes_config``) or a machine factory, then the params and the
    :meth:`RunContext.sweep_kwargs`; ``seeded`` and ``warm_start`` say
    whether it takes those two, and only warm-starting sweeps get a
    ``--cold-start`` flag.  ``summary`` is the service job's ``detail``;
    ``render`` prints the CLI's stdout.
    """

    name: str
    command: str
    help: str
    function: str
    params: Tuple[Param, ...]
    summary: Callable[[Any], Dict[str, Any]]
    render: Callable[[Any], None]
    takes_config: bool = False
    seeded: bool = True
    warm_start: bool = True

    def validate(self, params: Mapping[str, Any]) -> None:
        """Raise :class:`ServiceError` on an unknown, mistyped or bad param."""
        allowed = {param.name: param for param in self.params}
        unknown = sorted(set(params) - set(allowed))
        if unknown:
            raise ServiceError(
                f"unknown {self.name} param(s): {', '.join(unknown)} "
                f"(allowed: {', '.join(sorted(allowed))})"
            )
        for name, value in params.items():
            try:
                allowed[name].check(value)
            except ValueError as error:
                raise ServiceError(f"{self.name} param {name!r} {error}") from None

    def run(self, context: RunContext, params: Mapping[str, Any]) -> Any:
        """Call the run function; a param missing from ``params`` takes its default."""
        module, _, attr = self.function.partition(":")
        kwargs = {p.name: params.get(p.name, p.default) for p in self.params}
        kwargs.update(context.sweep_kwargs(self.seeded, self.warm_start))
        target = context.config if self.takes_config else context.machine_factory()
        return getattr(import_module(module), attr)(target, **kwargs)


def _table(header, rows, title: str) -> None:
    from .analysis.reporting import format_table

    print(format_table(header, rows, title=title))


def _capacity_summary(sweep) -> Dict[str, Any]:
    peak = sweep.peak
    return {
        "platform": sweep.platform,
        "peak_interval": peak.interval,
        "peak_capacity_kb_per_s": peak.capacity_kb_per_s,
        "peak_bit_error_rate": peak.bit_error_rate,
    }


def _insertion_render(sweep) -> None:
    rows = [(str(a), f"{sweep.evicted_fraction[a]*100:.0f}%")
            for a in sorted(sweep.evicted_fraction)]
    _table(("position", "evicted"), rows,
           f"Figure 2 sweep — {sweep.platform} via {sweep.engine} engine "
           "(paper: evicted at every position)")


def _detection_render(result) -> None:
    _table(result.header(), result.rows(), "Section V-A3 — FN rate vs victim period")
    for attack in sorted(result.curves):
        try:
            period = result.usable_period(attack)
            print(f"{attack}: usable down to ~{period}-cycle periods")
        except Exception:
            print(f"{attack}: no tested period reached FN <= 10%")


def _sensitivity_render(result) -> None:
    rows = [(f"{p.sync_scale:.2f}", f"{p.ntp_capacity:.0f}",
             f"{p.prime_probe_capacity:.0f}", f"{p.advantage:.1f}x")
            for p in result.points]
    _table(("sync scale", "NTP+NTP KB/s", "Prime+Probe KB/s", "advantage"), rows,
           "Calibration sensitivity — NTP+NTP advantage vs sync budget")
    lo, hi = result.advantage_range()
    print(f"advantage range over perturbation: {lo:.1f}x - {hi:.1f}x")


def _search_render(outcome) -> None:
    rows = [(row["round"], row["fidelity"], row["evaluations"],
             f"{row['best']:.4f}", f"{row['best_so_far']:.4f}")
            for row in outcome.trajectory()]
    _table(("round", "fidelity", "evals", "round best", "best so far"), rows,
           f"Search — {outcome.objective} via {outcome.strategy} "
           f"(budget {outcome.budget})")
    winner = ", ".join(f"{k}={v}" for k, v in sorted(outcome.winner.items()))
    print(f"winner: {winner} (score {outcome.winner_score:.4f})")
    print(f"evaluations: {outcome.evaluations_used} of {outcome.grid_size} "
          f"grid points ({outcome.evaluations_used / outcome.grid_size:.0%})")
    print(f"fingerprint: {outcome.fingerprint}")


def _bits(default: int) -> Param:
    return Param("n_bits", int, default, flag="--bits", minimum=1)


def _rows(result) -> Dict[str, Any]:
    return {"rows": len(result.rows())}


_SWEEPS = (
    Experiment(
        "capacity", "fig8", "capacity/BER sweep for one channel",
        "repro.experiments.capacity_sweep:run_capacity_sweep",
        (Param("channel", str, "ntp+ntp", flag="--channel",
               choices=("ntp+ntp", "prime+probe")),
         _bits(256),
         Param("intervals", list, None, minimum=1)),
        _capacity_summary,
        lambda sweep: _table(("interval", "raw KB/s", "BER", "capacity KB/s"),
                             sweep.rows(),
                             f"Figure 8 — {sweep.channel} on {sweep.platform}"),
    ),
    Experiment(
        "insertion", "fig2-sweep", "insertion sweep, trial-batched",
        "repro.experiments.insertion_sweep:run_insertion_sweep",
        (Param("trials", int, 32, flag="--trials", minimum=1,
               help="trials per insertion position"),
         Param("batch_size", int, 64, flag="--batch-size", minimum=1, metavar="N",
               help="trials per array program under --engine batch")),
        lambda sweep: {
            "platform": sweep.platform,
            "engine": sweep.engine,
            "positions": len(sweep.evicted_fraction),
            "all_evicted": all(
                fraction == 1.0 for fraction in sweep.evicted_fraction.values()
            ),
        },
        _insertion_render, warm_start=False,
    ),
    Experiment(
        "noise", "noise", "BER vs third-party noise sweep",
        "repro.experiments.noise_sweep:run_noise_sweep", (_bits(128),), _rows,
        lambda result: _table(result.header(), result.rows(),
                              "Section IV-B3 — BER vs noise intensity"),
    ),
    Experiment(
        "detection", "detect-sweep", "FN rate vs victim period sweep",
        "repro.experiments.detection_sweep:run_detection_sweep",
        (Param("duration", int, 600_000, flag="--duration", minimum=1),),
        _rows, _detection_render, seeded=False,
    ),
    Experiment(
        "sensitivity", "sensitivity", "capacity vs sync-budget perturbation",
        "repro.experiments.sensitivity:run_sensitivity_experiment", (_bits(128),),
        lambda result: {"points": len(result.points),
                        "advantage_range": list(result.advantage_range())},
        _sensitivity_render, takes_config=True,
    ),
    Experiment(
        "comparison", "compare", "all channels on one table",
        "repro.experiments.channel_comparison:run_channel_comparison", (_bits(96),),
        lambda result: {"channels": len(result.profiles)},
        lambda result: _table(result.HEADER, result.rows(),
                              "Covert-channel design space"),
    ),
    Experiment(
        "search", "search", "adaptive search over a sweep space (seeded, deterministic)",
        "repro.search:run_search",
        (Param("objective", str, "toy-cliff", flag="--objective",
               choices=("toy-cliff", "capacity-cliff", "detection-knee"),
               help="what to optimize (see docs/search.md)"),
         Param("strategy", str, "mutate", flag="--strategy",
               choices=("mutate", "halving", "bandit"),
               help="how to spend the budget: mutation loop, successive "
                    "halving over fidelity rungs, or UCB over regions"),
         Param("budget", int, 32, flag="--budget", minimum=1, metavar="N",
               help="computed-evaluation cap (memoized repeats are free)")),
        lambda outcome: {
            "winner": dict(sorted(outcome.winner.items())),
            "winner_score": outcome.winner_score,
            "search_fingerprint": outcome.fingerprint,
            "evaluations": outcome.evaluations_used,
        },
        _search_render, takes_config=True, warm_start=False,
    ),
)

#: Service experiment name -> record.
EXPERIMENTS: Dict[str, Experiment] = {sweep.name: sweep for sweep in _SWEEPS}
#: CLI subcommand -> record.
COMMANDS: Dict[str, Experiment] = {sweep.command: sweep for sweep in _SWEEPS}
