"""The four workloads, each measured untraced or traced.

Every workload is closed-loop: the next operation starts only when the
previous one has its result.  A run warms up with one operation, then
repeats operations until ``seconds`` have passed, sampling the machine's
speed (:class:`~perfbench.measure.Calibration`) between operations.
Times are reported at reference speed; the raw figures go to the run
record.

A traced run (``trace=True``) first measures untraced for half of
``seconds``, then repeats exactly the same operations with the span
wrappers installed.  The per-layer metrics come from the second phase;
the tracing overhead is the throughput difference between the two.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import inputs, layers, measure
from perfbench.tracer import Tracer, install

ROOT = measure.ROOT
WORK = ROOT / ".perfbench"

#: sha256 of ``MonteCarloReport.canonical_bytes()`` for mutants 0..3 of
#: the default seed (equal to ``run_monte_carlo(samples=4, seed=2024)``).
MC_DIGEST = "27d6ce010792e14047ba163b3b5bc3d42db552c970cec3d293f88d2dca2853aa"
MC_DIGEST_MUTANTS = 4
#: sha256 of the in-process solubility journal plus the monitor's state
#: after every command, for the default seed's parameters.
SOLUBILITY_DIGEST = "ca507a0fc7db08150898dfb67a767425d6a3d3a90457c5b1b85337d65633fc04"

#: The one single-edit mutant of the 117 that RABIT flags without
#: ground-truth damage (a G3 workspace-bounds alert).  Seeds that draw it
#: list it in the record; any other false alarm fails the run.
KNOWN_FALSE_ALARM = "perturb dosing_safe_viperx.y by +0.08"

#: Client connections the serve workloads drive (closed loop each).
SERVE_CLIENTS = 2
#: Cold set-ups timed before and again after the measured phase;
#: ``setup_s`` is the fastest of them (start-up noise only adds time).
SETUP_SAMPLES_EACH_SIDE = 4
#: The percentile ``latency_p99_ms`` reports, fixed per workload so that
#: a faster program does not change what the metric means.  A run without
#: enough samples for its percentile fails.
TAIL_PERCENTILE = 99.0
#: A Monte Carlo run guards 530-1,170 commands, too few for a p99 with ten
#: samples beyond it.  Its latencies form clusters (84 % under 10 ms, 3 %
#: at 20-30 ms, 3.4 % at 45-50 ms, 2.7 % at 100-120 ms, the rest above);
#: p95 falls between two of them, so the seed's mutant mix picks which one
#: it reads (130 ms against 70 ms between seeds).  p90 lies inside the
#: 45-50 ms cluster and moved by 2 % over resampled mutant mixes.
MC_SWEEP_TAIL_PERCENTILE = 90.0


@dataclass
class Outcome:
    """What one run reports: checks, counts, metrics, and the record."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    record: Dict[str, Any] = field(default_factory=dict)
    stage_tables: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


@dataclass
class Phase:
    """The operations of one measured phase."""

    results: List[Any] = field(default_factory=list)
    #: Wall seconds of each operation (calibration excluded).
    op_s: List[float] = field(default_factory=list)
    #: CPU seconds this process spent inside the operations.
    cpu_s: float = 0.0
    calibration: measure.Calibration = field(default_factory=measure.Calibration)

    @property
    def busy_s(self) -> float:
        return sum(self.op_s)

    def speeds(self) -> List[float]:
        """Each operation's slowdown against reference speed."""
        return [self.calibration.local(i) for i in range(len(self.op_s))]

    def rate(self, units: int) -> float:
        """*units* per second at reference speed."""
        return units / sum(s / f for s, f in zip(self.op_s, self.speeds()))

    def scaled(self, per_op: Sequence[Sequence[float]]) -> List[float]:
        """Per-operation samples (seconds) at reference speed, flattened."""
        return [v / f for values, f in zip(per_op, self.speeds()) for v in values]


def run_phase(op: Callable[[int], Any], budget_s: Optional[float] = None,
              count: Optional[int] = None, every_core: bool = False,
              watch: Sequence[int] = ()) -> Phase:
    """Call ``op(i)`` for ``i = 0, 1, ...`` until *budget_s* seconds have
    passed (or *count* calls were made), with a calibration sample
    before the first call and after every call.  *watch* names the
    service processes whose CPU marks a calibration sample busy."""
    phase = Phase(calibration=measure.Calibration(every_core, watch))
    phase.calibration.sample()
    started = time.perf_counter()
    while (count is not None and len(phase.results) < count) or (
        count is None and time.perf_counter() - started < budget_s
    ):
        cpu0, t0 = time.process_time(), time.perf_counter()
        phase.results.append(op(len(phase.results)))
        phase.op_s.append(time.perf_counter() - t0)
        phase.cpu_s += time.process_time() - cpu0
        phase.calibration.sample()
    return phase


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def _tail_ms(out: Outcome, samples_s: Sequence[float], pct: float, what: str) -> float:
    """The *pct* percentile of *samples_s* in ms; a failed check when too
    few samples lie beyond it."""
    value, enough = measure.tail(samples_s, pct)
    out.check(enough, f"{what}: {len(samples_s)} samples leave fewer than "
                      f"{measure.TAIL_BEYOND} beyond p{pct:g}")
    return 1e3 * value


def _timing_metrics(out: Outcome, phase: Phase, units: int,
                    latencies_s: Sequence[Sequence[float]], pct: float) -> None:
    """Throughput and latency percentiles at reference speed.

    *latencies_s* holds each operation's latency samples; the tail
    metric is their *pct* percentile."""
    flat = phase.scaled(latencies_s)
    raw = [v for values in latencies_s for v in values]
    calibration = phase.calibration
    busy = len(calibration.samples) - len(calibration.clean())
    out.check(2 * busy <= len(calibration.samples),
              f"the service used CPU during {busy} of {len(calibration.samples)} calibration "
              "samples between operations")
    out.metrics["throughput_per_s"] = phase.rate(units)
    out.metrics["latency_p50_ms"] = 1e3 * measure.median(flat)
    out.metrics["latency_p99_ms"] = _tail_ms(out, flat, pct, "latency")
    out.record.update({
        "speed_factor": calibration.factor(),
        "calibration_samples": len(calibration.samples),
        "calibration_busy_samples": busy,
        "latency_tail_percentile": pct,
        "latency_samples": len(flat),
        "raw": {"throughput_per_s": units / phase.busy_s,
                "latency_p50_ms": 1e3 * measure.median(raw),
                "latency_tail_ms": 1e3 * measure.percentile(raw, pct)},
    })


def _setup_metric(out: Outcome, samples: List[float]) -> None:
    """``setup_s``: the fastest of *samples*, not calibrated — start-up is
    interpreter launch and imports, which the kernel does not track."""
    out.metrics["setup_s"] = min(samples)
    out.record["setup_samples_s"] = samples


def _cold_setups(workload: str) -> List[float]:
    """Spawn-to-ready times of :data:`SETUP_SAMPLES_EACH_SIDE` fresh set-ups."""
    samples = []
    for _ in range(SETUP_SAMPLES_EACH_SIDE):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.setup_probe", workload],
            cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - started)
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return samples


def _traced(run: Callable[[], Phase], name: str, seed: int,
            out: Outcome) -> Tuple[Phase, Dict[str, Any]]:
    """Run *run* with the wrappers installed; write its spans; return the
    phase and the tracer snapshot."""
    tracer = Tracer()
    installation = install(tracer, layers.TARGETS, observers=layers.OBSERVERS)
    try:
        phase = run()
    finally:
        installation.restore()
    snapshot = tracer.snapshot()
    trace_dir = WORK / "traces" / f"{name}-s{seed}-{os.getpid()}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(str(trace_dir / "bench.spans.jsonl"), {"process": "bench", **measure.stamp(seed)})
    out.stage_tables.append(layers.format_stage_table(f"[{name}] benchmark process", snapshot))
    out.record["trace_dir"] = str(trace_dir.relative_to(ROOT))
    return phase, snapshot


def _finish_trace(out: Outcome, snapshots: List[Dict[str, Any]], untraced_rate: float,
                  traced_rate: float, ops: int, extras: Dict[str, float]) -> None:
    """Per-layer metrics of a traced run; checks its stage tables add up."""
    for snap in snapshots:
        accounted = snap["unattributed_ns"] + sum(l["self_ns"] for l in snap["layers"].values())
        out.check(accounted == snap["wall_ns"],
                  f"stage table sums to {accounted} ns, traced wall is {snap['wall_ns']} ns")
    out.record["tracing_overhead"] = {
        "untraced_per_s": untraced_rate,
        "traced_per_s": traced_rate,
        "difference_per_s": traced_rate - untraced_rate,
    }
    values = {name: 0.0 for name in layers.EXTRA_METRICS}
    values.update(extras)
    values["trace.ops"] = float(ops)
    values["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate
    out.metrics = layers.per_layer_metrics(layers.merge_snapshots(snapshots), values)


# ---------------------------------------------------------------------------
# mc_sweep
# ---------------------------------------------------------------------------


@contextmanager
def _guard_stopwatch(samples: List[float]):
    """Append the wall time of every ``Rabit.guard`` call to *samples*.

    The Monte Carlo sweep guards its commands inside the program, so this
    one timing wrapper is how an untraced run sees per-command latency."""
    from repro.core.monitor import Rabit

    original = Rabit.guard

    def timed(self, call, execute):
        started = time.perf_counter()
        try:
            return original(self, call, execute)
        finally:
            samples.append(time.perf_counter() - started)

    Rabit.guard = timed
    try:
        yield
    finally:
        Rabit.guard = original


def mc_sweep(seed: int, seconds: float, trace: bool) -> Outcome:
    """Sequential Monte Carlo mutant sweep, one ``score_mutant`` per index."""
    from repro.faults import montecarlo

    out = Outcome()
    setups = [] if trace else _cold_setups("mc_sweep")
    line_ids = montecarlo.reference_line_ids()
    montecarlo.score_mutant(0, seed, line_ids)  # warm-up

    def score(index: int):
        # Looked up per call so a traced phase sees the wrapper.
        return montecarlo.score_mutant(index, seed, line_ids)

    guard_s: List[float] = []
    per_mutant: List[List[float]] = []

    def timed_score(index: int):
        start = len(guard_s)
        outcome = score(index)
        per_mutant.append(guard_s[start:])
        return outcome

    with _guard_stopwatch(guard_s):
        phase = run_phase(timed_score, budget_s=seconds / 2 if trace else seconds)
    outcomes = list(phase.results)
    if trace:
        traced, snapshot = _traced(lambda: run_phase(score, count=len(outcomes)),
                                   "mc_sweep", seed, out)
        false_alarms = sum(o.classification == "false_positive" for o in traced.results)
        _finish_trace(out, [snapshot], phase.rate(len(outcomes)),
                      traced.rate(len(traced.results)), len(traced.results),
                      {"faults.false_alarms": float(false_alarms)})
        outcomes += traced.results
    else:
        _timing_metrics(out, phase, len(outcomes), per_mutant, MC_SWEEP_TAIL_PERCENTILE)
        out.metrics["peak_rss_mb"] = measure.peak_rss_mb(os.getpid())
        _setup_metric(out, setups + _cold_setups("mc_sweep"))

    out.attempted = len(outcomes)
    errors = [o.description for o in outcomes if "harness_error" in o.damage_kinds]
    false_alarms = [o.description for o in outcomes if o.classification == "false_positive"]
    unexpected = [d for d in false_alarms if d != KNOWN_FALSE_ALARM]
    out.failed = len(errors)
    out.check(not errors, f"harness errors: {errors}")
    out.check(not unexpected, f"false alarms: {unexpected}")
    out.record["false_alarms"] = false_alarms
    out.record["mutants"] = len(outcomes)
    out.record["detected"] = sum(o.detected for o in outcomes)
    if seed == inputs.DEFAULT_SEED:
        head = phase.results[:MC_DIGEST_MUTANTS]
        head += [score(i) for i in range(len(head), MC_DIGEST_MUTANTS)]
        digest = hashlib.sha256(montecarlo.MonteCarloReport(head).canonical_bytes()).hexdigest()
        out.record["mc_digest"] = digest
        out.check(digest == MC_DIGEST, f"MonteCarloReport digest {digest} != pinned {MC_DIGEST}")
    return out


# ---------------------------------------------------------------------------
# guard_solubility
# ---------------------------------------------------------------------------


@dataclass
class GuardPass:
    """Per-command timings and verdicts of one stream pass."""

    latency_s: List[float] = field(default_factory=list)
    #: The arm commands' latencies (see :data:`perfbench.inputs.ARM`).
    arm_latency_s: List[float] = field(default_factory=list)
    execute_s: List[float] = field(default_factory=list)
    alerts: int = 0
    errors: List[str] = field(default_factory=list)
    journal: List[Dict[str, Any]] = field(default_factory=list)
    states: List[str] = field(default_factory=list)


def guard_pass(stream: Sequence[Dict[str, Any]], record: bool = False) -> GuardPass:
    """Guard *stream* on a fresh ``hein`` deck, timing ``execute`` apart.

    Mirrors :func:`repro.serve.journal.run_inprocess_journal` command for
    command (same deck, options and clock charges) so the journal it
    records with ``record=True`` is the one a service session must
    match; the benchmark owns ``execute`` to time the device model."""
    from repro.core.interceptor import BASELINE_DURATION, resolve_action
    from repro.core.state import ALL_VARS
    from repro.serve.journal import cache_disposition, journal_record
    from repro.serve.session import build_guarded_deck, default_serve_options

    result = GuardPass()
    deck, rabit = build_guarded_deck("hein", {}, None, default_serve_options())
    clock = time.perf_counter
    for command in stream:
        device = deck.devices[command["device"]]
        method, args, kwargs = command["method"], tuple(command["args"]), command["kwargs"]
        attr = getattr(device, method)
        call = resolve_action(device, method, args, kwargs)
        rabit.clock.advance(
            device.connection.command_latency + BASELINE_DURATION.get(call.label, 1.0),
            "experiment",
        )
        spent = [0.0]

        def execute() -> Any:
            t0 = clock()
            try:
                return attr(*args, **kwargs)
            finally:
                spent[0] = clock() - t0

        cache = rabit.rule_cache
        hits, misses = (cache.hits, cache.misses) if cache is not None else (0, 0)
        before = rabit.alert_count
        t0 = clock()
        try:
            rabit.guard(call, execute)
        except Exception as exc:  # noqa: BLE001 - an unexpected exception is a failed command
            result.errors.append(f"{method}{args}: {type(exc).__name__}: {exc}")
            return result
        result.latency_s.append(clock() - t0)
        if command["device"] == inputs.ARM:
            result.arm_latency_s.append(result.latency_s[-1])
        result.execute_s.append(spent[0])
        alert = rabit.last_alert() if rabit.alert_count > before else None
        result.alerts += alert is not None
        if record:
            result.journal.append(journal_record(
                seq=len(result.journal), device=device.name, method=method,
                label=call.label, location=call.location, t=rabit.clock.now, alert=alert,
                rule_cache=cache_disposition(rabit, hits, misses), degraded=False,
            ))
            result.states.append(repr(sorted(
                (var, sorted(rabit.state.entries(var).items(), key=repr)) for var in ALL_VARS
            )))
    return result


def solubility_digest(run: GuardPass) -> str:
    """sha256 of a recorded pass's journal and state stream."""
    from repro.trace.canon import canonical_bytes

    digest = hashlib.sha256(canonical_bytes(run.journal))
    for state in run.states:
        digest.update(state.encode())
    return digest.hexdigest()


def _reference_pass(seed: int, stream: Sequence[Dict[str, Any]], out: Outcome) -> GuardPass:
    """The untimed recorded pass every check compares against."""
    reference = guard_pass(stream, record=True)
    out.check(not reference.errors and reference.alerts == 0
              and len(reference.journal) == len(stream),
              f"reference pass: {reference.alerts} alerts, errors {reference.errors}")
    if seed == inputs.DEFAULT_SEED:
        digest = solubility_digest(reference)
        out.record["solubility_digest"] = digest
        out.check(digest == SOLUBILITY_DIGEST,
                  f"solubility stream digest {digest} != pinned {SOLUBILITY_DIGEST}")
    return reference


def guard_solubility(seed: int, seconds: float, trace: bool) -> Outcome:
    """The 45-command solubility stream through ``Rabit.guard``, in process."""
    out = Outcome()
    setups = [] if trace else _cold_setups("guard_solubility")
    params = inputs.solubility_params(seed)
    stream = inputs.solubility_stream(params)
    out.record["params"] = params
    out.record["stream_commands"] = len(stream)
    _reference_pass(seed, stream, out)
    guard_pass(stream)  # warm-up

    def one_pass(_index: int) -> GuardPass:
        return guard_pass(stream)

    phase = run_phase(one_pass, budget_s=seconds / 2 if trace else seconds)
    runs: List[GuardPass] = list(phase.results)
    commands = sum(len(r.latency_s) for r in runs)
    own_s = phase.scaled([[lat - ex for lat, ex in zip(r.latency_s, r.execute_s)] for r in runs])
    own = {"core.guard_own_p50_ms": 1e3 * measure.median(own_s),
           "core.guard_own_p99_ms": _tail_ms(out, own_s, TAIL_PERCENTILE, "guard-own")}
    if trace:
        traced, snapshot = _traced(lambda: run_phase(one_pass, count=len(runs)),
                                   "guard_solubility", seed, out)
        traced_commands = sum(len(r.latency_s) for r in traced.results)
        _finish_trace(out, [snapshot], phase.rate(commands), traced.rate(traced_commands),
                      traced_commands, own)
        runs += traced.results
    else:
        _timing_metrics(out, phase, commands, [r.arm_latency_s for r in runs],
                        TAIL_PERCENTILE)
        out.metrics["peak_rss_mb"] = measure.peak_rss_mb(os.getpid())
        out.record["guard_own"] = own
        _setup_metric(out, setups + _cold_setups("guard_solubility"))

    out.attempted = sum(len(r.latency_s) + len(r.errors) for r in runs)
    out.failed = sum(r.alerts + len(r.errors) for r in runs)
    incomplete = [r.errors for r in runs if len(r.latency_s) != len(stream)]
    out.check(not incomplete, f"{len(incomplete)} passes did not complete: {incomplete[:1]}")
    out.record["passes"] = len(runs)
    return out


# ---------------------------------------------------------------------------
# serve_solubility / serve_sharded
# ---------------------------------------------------------------------------


class Service:
    """One ``repro serve`` child process on a unix socket in the checkout.

    The constructor returns once the service answered its first ``ping``;
    :attr:`setup_s` is the time from spawn to that answer."""

    def __init__(self, shard_workers: Optional[int], name: str,
                 traced_seed: Optional[int] = None) -> None:
        (WORK / "sock").mkdir(parents=True, exist_ok=True)
        (WORK / "tmp").mkdir(parents=True, exist_ok=True)
        # Relative to the checkout root: unix socket paths are length-capped.
        self.socket = os.path.join(".perfbench", "sock", f"{name}-{os.getpid()}.sock")
        self.trace_dir = WORK / "traces" / f"{name}-{os.getpid()}"
        serve_args = ["--socket", self.socket]
        if shard_workers is not None:
            serve_args += ["--shard-workers", str(shard_workers)]
        if traced_seed is not None:
            command = [sys.executable, "-m", "perfbench.serve_launcher", str(self.trace_dir),
                       str(traced_seed), *serve_args]
        else:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        self.log = open(WORK / f"{name}-{os.getpid()}.log", "a", encoding="utf-8")
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=ROOT, env=_env(), stdout=self.log,
                                     stderr=subprocess.STDOUT)
        try:
            asyncio.run(self._first_ping())
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    @property
    def path(self) -> str:
        return str(ROOT / self.socket)

    async def _first_ping(self, budget_s: float = 60.0) -> None:
        from repro.serve.client import ServeClient

        deadline = time.perf_counter() + budget_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"service exited with {self.proc.returncode} before its first ping")
            try:
                reader, writer = await asyncio.open_unix_connection(self.path)
            except (FileNotFoundError, ConnectionError):
                if time.perf_counter() > deadline:
                    raise RuntimeError("service did not answer a ping in time") from None
                await asyncio.sleep(0.005)
                continue
            client = ServeClient(reader, writer)
            try:
                await client.ping()
            finally:
                await client.close()
            return

    def pids(self) -> List[int]:
        """The service process and its forked workers."""
        return [self.proc.pid, *measure.child_pids(self.proc.pid)]

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.log.close()
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def snapshots(self) -> List[Dict[str, Any]]:
        """Tracer snapshots the traced service's processes wrote on exit."""
        return [json.loads(p.read_text(encoding="utf-8"))
                for p in sorted(self.trace_dir.glob("*.snapshot.json"))]


@dataclass
class Round:
    """One round: every client replays the stream once in a fresh session."""

    latency_s: List[float] = field(default_factory=list)
    #: The arm commands' latencies (see :data:`perfbench.inputs.ARM`).
    arm_latency_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    journal: Optional[List[Dict[str, Any]]] = None


async def _round(service: Service, stream: Sequence[Dict[str, Any]], sharded: bool,
                 want_journal: bool) -> Round:
    from repro.serve.client import ServeClient, ServeError

    result = Round()
    clock = time.perf_counter

    async def client_pass(index: int) -> None:
        client = await ServeClient.open_unix(service.path)
        try:
            await client.open_session(deck="hein", io_latency=0.0,
                                      worker=index if sharded else None)
            for command in stream:
                result.attempted += 1
                t0 = clock()
                try:
                    response = await client.command(
                        command["device"], command["method"], *command["args"],
                        **command["kwargs"])
                except (ServeError, ConnectionError) as exc:
                    result.failed += 1
                    result.errors.append(f"{command['method']}: {exc}")
                    return
                result.latency_s.append(clock() - t0)
                if command["device"] == inputs.ARM:
                    result.arm_latency_s.append(result.latency_s[-1])
                if not response.get("ok") or response.get("degraded"):
                    result.failed += 1
                    result.errors.append(f"{command['method']}: {response}")
            if want_journal and index == 0:
                result.journal = await client.journal()
        finally:
            await client.close()

    await asyncio.gather(*(client_pass(i) for i in range(SERVE_CLIENTS)))
    return result


async def _stats(service: Service) -> Dict[str, Any]:
    from repro.serve.client import ServeClient

    client = await ServeClient.open_unix(service.path)
    try:
        return await client.stats()
    finally:
        await client.close()


def _load(service: Service, stream: Sequence[Dict[str, Any]], sharded: bool,
          budget_s: Optional[float] = None, count: Optional[int] = None,
          want_journal: bool = False) -> Tuple[Phase, Dict[int, float], Dict[str, Any]]:
    """Rounds of closed-loop load; the phase, service CPU by pid, stats."""
    loop = asyncio.new_event_loop()
    try:
        pids = service.pids()
        cpu_before = {pid: measure.cpu_seconds(pid) for pid in pids}
        phase = run_phase(
            lambda _i: loop.run_until_complete(_round(service, stream, sharded, want_journal)),
            budget_s=budget_s, count=count, every_core=True, watch=pids,
        )
        service_cpu = {pid: measure.cpu_seconds(pid) - cpu_before[pid] for pid in pids}
        stats = loop.run_until_complete(_stats(service))
    finally:
        loop.close()
    return phase, service_cpu, stats


def _sweeps(stats: Dict[str, Any]) -> Dict[str, int]:
    """The batcher counters of a ``stats`` answer (a sharded service
    reports them summed under ``totals``)."""
    return stats.get("totals", stats)["sweeps"]


def _serve_extras(phase: Phase, service_cpu: Dict[int, float], stats: Dict[str, Any],
                  router_pid: Optional[int]) -> Dict[str, float]:
    """Service counters, CPU per command and load-generator accounting."""
    commands = sum(len(r.latency_s) for r in phase.results) or 1
    sweeps = _sweeps(stats)
    router_cpu = service_cpu.get(router_pid, 0.0) if router_pid is not None else 0.0
    server_cpu = sum(service_cpu.values()) - router_cpu
    busy = phase.cpu_s / phase.busy_s
    extras = {
        "serve.batcher.batch_size_mean": (
            sweeps.get("batched", 0) / sweeps["batches"] if sweeps.get("batches") else 0.0
        ),
        "serve.batcher.degraded": float(sweeps.get("degraded", 0)),
        "serve.batcher.throttled": float(sweeps.get("throttled", 0)),
        "serve.server_cpu_ms_per_cmd": 1e3 * server_cpu / commands,
        "serve.shard.router_cpu_ms_per_cmd": 1e3 * router_cpu / commands,
        "serve.shard.worker_share_max": 1.0,
        "loadgen.cpu_busy_share": busy,
        "loadgen.saturated": float(busy >= 0.9),
    }
    per_worker = [w for w in stats.get("per_worker", []) if w]
    if per_worker:
        total = sum(w.get("commands", 0) for w in per_worker) or 1
        extras["serve.shard.worker_share_max"] = max(w.get("commands", 0) for w in per_worker) / total
    return extras


def _serve(seed: int, seconds: float, trace: bool, shard_workers: Optional[int],
           name: str) -> Outcome:
    from repro.trace.canon import canonical_bytes

    out = Outcome()
    sharded = shard_workers is not None
    stream = inputs.solubility_stream(inputs.solubility_params(seed))
    out.record["stream_commands"] = len(stream)
    reference = _reference_pass(seed, stream, out)

    def spawn_and_stop() -> float:
        spare = Service(shard_workers, name)
        spare.stop()
        return spare.setup_s

    # Each spawn is timed to its first ping; the last one carries the load.
    setups = [] if trace else [spawn_and_stop() for _ in range(SETUP_SAMPLES_EACH_SIDE - 1)]
    service = Service(shard_workers, name)
    setups.append(service.setup_s)
    try:
        warm, _cpu, _warm_stats = _load(service, stream, sharded, count=1, want_journal=True)
        phase, service_cpu, stats = _load(service, stream, sharded,
                                          budget_s=seconds / 2 if trace else seconds)
        rss = measure.peak_rss_mb(os.getpid()) + sum(measure.peak_rss_mb(p) for p in service.pids())
    finally:
        service.stop()

    journal = warm.results[0].journal
    out.check(journal is not None and canonical_bytes(journal) == canonical_bytes(reference.journal),
              "service session journal differs from the in-process verdict stream")
    extras = _serve_extras(phase, service_cpu, stats, service.proc.pid if sharded else None)
    out.record["loadgen"] = {
        "client_cpu_busy_share": extras["loadgen.cpu_busy_share"],
        "service_cpu_cores": sum(service_cpu.values()) / phase.busy_s,
        "generator_saturated": bool(extras["loadgen.saturated"]),
    }
    commands = sum(len(r.latency_s) for r in phase.results)
    rounds = [*warm.results, *phase.results]
    if trace:
        traced_service = Service(shard_workers, name + "-traced", traced_seed=seed)
        try:
            traced, traced_cpu, traced_stats = _load(traced_service, stream, sharded,
                                                     count=len(phase.results))
        finally:
            traced_service.stop()
        snapshots = traced_service.snapshots()
        out.check(len(snapshots) == 1 + (shard_workers or 0),
                  f"expected a trace from every service process, got {len(snapshots)}")
        for snap in snapshots:
            out.stage_tables.append(layers.format_stage_table(f"[{name}] {snap['process']}", snap))
        out.record["trace_dir"] = str(traced_service.trace_dir.relative_to(ROOT))
        traced_commands = sum(len(r.latency_s) for r in traced.results)
        traced_extras = _serve_extras(traced, traced_cpu, traced_stats,
                                      traced_service.proc.pid if sharded else None)
        _finish_trace(out, snapshots, phase.rate(commands), traced.rate(traced_commands),
                      traced_commands, traced_extras)
        rounds += traced.results
    else:
        _timing_metrics(out, phase, commands, [r.arm_latency_s for r in phase.results],
                        TAIL_PERCENTILE)
        out.metrics["peak_rss_mb"] = rss
        _setup_metric(out, setups + [spawn_and_stop() for _ in range(SETUP_SAMPLES_EACH_SIDE)])
    out.record["rounds"] = len(rounds)
    out.attempted = sum(r.attempted for r in rounds)
    out.failed = sum(r.failed for r in rounds)
    errors = [e for r in rounds for e in r.errors]
    out.check(not errors, f"service errors: {errors[:3]}")
    out.check(_sweeps(stats)["degraded"] == 0, "service degraded sweeps")
    return out


def serve_solubility(seed: int, seconds: float, trace: bool) -> Outcome:
    """Two closed-loop sessions against single-process ``repro serve``."""
    return _serve(seed, seconds, trace, None, "serve_solubility")


def serve_sharded(seed: int, seconds: float, trace: bool) -> Outcome:
    """The same traffic against ``repro serve --shard-workers 2``."""
    return _serve(seed, seconds, trace, 2, "serve_sharded")


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "mc_sweep": mc_sweep,
    "guard_solubility": guard_solubility,
    "serve_solubility": serve_solubility,
    "serve_sharded": serve_sharded,
}
