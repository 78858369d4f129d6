"""In-memory spans around the metabcrb layers, recorded from outside the package.

`Tracer.install` replaces public functions at the names their callers look
up (for example ``metabcrb.cli.bcrb_closed_form`` or
``SensorModel.reflection``) with wrappers that record a span per call, and
`Tracer.uninstall` puts the originals back. The package source is never
edited. Spans stay in memory; `layer_metrics` turns one pass's spans into the
per-layer numbers after the pass has ended.

Parents are tracked per thread. A span opened on a thread with no open span
(a sweep worker of the CLI's thread pool) attaches to the job span that is
active on the main thread, so worker time is charged to its job.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Routing threshold of the seed's moment engine: tones whose prior spread s
# (in half-widths) has 1/s below it integrate on the adaptive `quad` route.
# Kept here so the count survives a later engine that drops the constant.
ADAPTIVE_RATIO = 0.35

# Doubles held per tone and chunk by the seed's chunk storage (a, b: 4, d: 16).
CHUNK_DOUBLES_PER_TONE = 21


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    job: int | None = None  # sid of the job span the span belongs to
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _grid_count(args, kwargs):
    return {"tones": _arg(args, kwargs, 0, "scenario").grid.count}


def _kernel_attrs(args, kwargs):
    # keep the arguments; the detuning stats are computed after the pass
    return {"sensor": _arg(args, kwargs, 0, "sensor"), "f": _arg(args, kwargs, 1, "f"),
            "prior": _arg(args, kwargs, 2, "prior")}


def _sensor_points(args, kwargs):
    # bound-method wrappers receive self first
    f = _arg(args, kwargs, 1, "f")
    c = _arg(args, kwargs, 2, "c")
    return {"points": int(np.prod(np.broadcast_shapes(np.shape(f), np.shape(c))))}


def _draw_size(args, kwargs):
    return {"samples": int(_arg(args, kwargs, 1, "size"))}


def _trials(args, kwargs):
    return {"trials": int(_arg(args, kwargs, 1, "trials"))}


def detuning_stats(sensor, f, prior):
    """Center x0 (per tone) and spread s of the prior-induced detuning.

    Same formula as `metabcrb.expectations.detuning_stats`, restated so the
    counters do not depend on a helper a later engine may drop.
    """
    f = np.atleast_1d(np.asarray(f, dtype=float))
    x0 = (f - (sensor.shift_rate * prior.mean + sensor.center_offset)) / sensor.half_width
    s = abs(sensor.shift_rate) * prior.std / sensor.half_width
    return x0, float(s)


# (owner, attribute, span name, layer, attrs from the call's arguments)
# An owner "pkg.mod:Class" patches the class attribute, so every caller of
# the method is seen.
WRAPS = [
    ("metabcrb.cli", "parse_config", "config.parse", "config", None),
    ("metabcrb.cli", "apply_override", "config.override", "config", None),
    ("metabcrb.cli", "scenario_from_settings", "config.scenario", "config", None),
    ("metabcrb.bcrb", "prior_moments", "expectations.prior_moments", "expectations", None),
    ("metabcrb.cli", "slope_power", "expectations.slope_power", "expectations", None),
    ("metabcrb.cli", "corr_magsq", "expectations.corr_magsq", "expectations", None),
    ("metabcrb.expectations", "kernel_means", "expectations.kernel_means", "expectations",
     _kernel_attrs),
    ("metabcrb.cli", "bcrb_closed_form", "bcrb.closed_form", "bcrb", None),
    ("metabcrb.bcrb", "bcrb_closed_form", "bcrb.closed_form", "bcrb", None),
    ("metabcrb.mc", "bcrb_closed_form", "bcrb.closed_form", "bcrb", None),
    ("metabcrb.cli", "select_subcarriers", "bcrb.select", "bcrb", None),
    ("metabcrb.cli", "assemble_bfim", "bcrb.blocks", "bcrb", None),
    ("metabcrb.cli", "bcrb_from_blocks", "bcrb.blocks", "bcrb", None),
    ("metabcrb.cli", "bcrb_from_dense", "bcrb.dense", "bcrb", None),
    ("metabcrb.cli", "mc_bound", "mc.bound", "mc", None),
    ("metabcrb.mc", "mc_bound", "mc.bound", "mc", None),
    ("metabcrb.mc", "mc_blocks", "mc.blocks", "mc", _grid_count),
    ("metabcrb.mc", "draw_samples", "mc.draw", "mc", _draw_size),
    ("metabcrb.mc", "posterior_mean_mse", "mc.posterior", "mc", _trials),
    ("metabcrb.sensor:SensorModel", "reflection", "sensor.reflection", "sensor", _sensor_points),
    ("metabcrb.sensor:SensorModel", "reflection_dc", "sensor.reflection_dc", "sensor",
     _sensor_points),
    ("metabcrb.cli", "slope_power_wide_limit", "asymptotics.limit", "asymptotics", None),
    ("metabcrb.cli", "corr_magsq_wide_limit", "asymptotics.limit", "asymptotics", None),
    ("metabcrb.cli", "slope_power_narrow_limit", "asymptotics.limit", "asymptotics", None),
    ("metabcrb.cli", "corr_magsq_narrow_limit", "asymptotics.limit", "asymptotics", None),
    ("metabcrb.cli", "wideband_slope_power_sum", "asymptotics.wideband", "asymptotics", None),
    ("metabcrb.cli", "fit_loglog_slope", "asymptotics.fit", "asymptotics", None),
    ("metabcrb.cli", "write_line_chart", "svg.chart", "svg", None),
]


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span store for one pass. Not reentrant across passes: make a new one."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._ids_lock = threading.Lock()
        self._local = threading.local()
        self._job: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, attrs: dict | None = None):
        """Record one span; the innermost open span of this thread is its parent."""
        with self._ids_lock:
            sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else self._job
        record = Span(sid, name, layer, 0.0, 0.0, parent, self._job, threading.get_ident(),
                      attrs if attrs is not None else {})
        stack.append(sid)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)  # list.append is atomic under the GIL

    @contextmanager
    def job(self, name: str, layer: str):
        """Top-level span for one job; worker-thread spans attach to it."""
        with self.span(name, layer) as record:
            self._job = record.job = record.sid
            try:
                yield record
            finally:
                self._job = None

    def wrap(self, fn, name: str, layer: str, attrs_fn=None):
        def wrapper(*args, **kwargs):
            attrs = attrs_fn(args, kwargs) if attrs_fn else None
            with self.span(name, layer, attrs):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, wraps=WRAPS) -> None:
        for owner_name, attr, name, layer, attrs_fn in wraps:
            try:
                owner = _resolve(owner_name)
            except (ImportError, AttributeError):
                owner = None
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{owner_name}.{attr}")
                continue
            original = vars(owner)[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, layer, attrs_fn))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def records(spans: list[Span]) -> list[dict]:
    """The spans without their call arguments, in start order, for writing out."""
    keys = ("sid", "name", "layer", "start", "end", "parent", "job", "thread")
    return [{k: getattr(s, k) for k in keys} for s in sorted(spans, key=lambda s: s.start)]


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover.

    Children running at once on several threads count once for the time
    they overlap, so a parent waiting on a worker pool keeps only the time
    no child was running.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.sid]]
        covered = _union_length([iv for iv in clipped if iv[1] > iv[0]])
        out[s.sid] = s.duration - covered
    return out


def busy_time(spans: list[Span], layer: str) -> float:
    """Summed duration of a layer's outermost spans (thread-seconds)."""
    by_id = {s.sid: s for s in spans}
    total = 0.0
    for s in spans:
        if s.layer != layer:
            continue
        parent = by_id.get(s.parent)
        if parent is None or parent.layer != layer:
            total += s.duration
    return total


def repeat_share(calls) -> float:
    """Share of tone integrations whose (x0, s) already occurred.

    `calls` holds one (x0 array, s) pair per kernel-means call. Over the
    calls, every tone after the first with a given key is a repeat.
    """
    total = 0
    seen = set()
    for x0, s in calls:
        x0 = np.atleast_1d(x0)
        total += x0.size
        seen.update((v, s) for v in x0.tolist())
    return 1.0 - len(seen) / total if total else 0.0


def narrow_share(calls) -> float:
    """Share of tone integrations on the seed's adaptive route (1/s < ADAPTIVE_RATIO)."""
    total = narrow = 0
    for x0, s in calls:
        n = np.atleast_1d(x0).size
        total += n
        if 1.0 / s < ADAPTIVE_RATIO:
            narrow += n
    return narrow / total if total else 0.0


LAYERS = ("sensor", "expectations", "bcrb", "mc", "asymptotics", "config", "svg", "cli", "bench")
SUBCOMMANDS = ("sweep", "validate", "select", "asymptotics")


def layer_metrics(spans: list[Span], pass_s: float) -> dict[str, float]:
    """Per-layer numbers for one traced pass of wall time `pass_s`.

    Job spans are the top-level spans: `cli.<subcommand>` for CLI jobs and
    `bench.<job>` for library calls the benchmark makes itself.
    """
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def self_of(*names):
        return sum(selfs[s.sid] for s in spans if s.name in names)

    m: dict[str, float] = {}
    sensor = [s for s in spans if s.layer == "sensor"]
    m["sensor.calls"] = len(sensor)
    m["sensor.points"] = sum(s.attrs["points"] for s in sensor)

    km = named("expectations.kernel_means")
    calls = [detuning_stats(s.attrs["sensor"], s.attrs["f"], s.attrs["prior"]) for s in km]
    m["expectations.calls"] = len(km)
    m["expectations.tones"] = sum(x0.size for x0, _ in calls)
    m["expectations.repeat_share"] = repeat_share(calls)
    m["expectations.narrow_share"] = narrow_share(calls)

    m["bcrb.closed_form.calls"] = len(named("bcrb.closed_form"))
    m["bcrb.closed_form.self_s"] = self_of("bcrb.closed_form")
    m["bcrb.select.self_s"] = self_of("bcrb.select")
    m["bcrb.blocks.self_s"] = self_of("bcrb.blocks")
    m["bcrb.dense.self_s"] = self_of("bcrb.dense")

    draws = named("mc.draw")
    blocks = named("mc.blocks")
    chunks_per_block = defaultdict(int)
    for d in draws:
        chunks_per_block[d.parent] += 1
    m["mc.samples"] = sum(d.attrs["samples"] for d in draws)
    m["mc.draw_s"] = sum(d.duration for d in draws)
    m["mc.blocks.self_s"] = self_of("mc.blocks")
    m["mc.bootstrap_s"] = self_of("mc.bound")
    m["mc.chunks"] = sum(chunks_per_block[b.sid] for b in blocks)
    # largest single call: the chunk store of one mc_blocks call is live at once
    m["mc.chunk_mb"] = max((chunks_per_block[b.sid] * b.attrs["tones"] * CHUNK_DOUBLES_PER_TONE * 8
                            for b in blocks), default=0) / 1e6
    posterior = named("mc.posterior")
    m["mc.posterior.trials"] = sum(s.attrs["trials"] for s in posterior)
    m["mc.posterior.busy_s"] = sum(s.duration for s in posterior)

    for layer in ("sensor", "expectations", "bcrb", "mc", "asymptotics", "config", "svg"):
        m[f"{layer}.busy_s"] = busy_time(spans, layer)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[s.sid] for s in spans if s.layer == layer)

    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.wall_s"] = sum(s.duration for s in named(f"cli.{sub}"))
    m["cli.csv_bytes"] = sum(s.attrs.get("csv_bytes", 0) for s in spans if s.layer == "cli")
    sweep_ids = {s.sid for s in named("cli.sweep")}
    sweep_wall = m["cli.sweep.wall_s"]
    closed_in_sweep = sum(s.duration for s in named("bcrb.closed_form") if s.parent in sweep_ids)
    m["cli.sweep.concurrency"] = closed_in_sweep / sweep_wall if sweep_wall else 0.0

    top = [s for s in spans if s.parent is None]
    m["trace.pass_s"] = pass_s
    m["trace.unaccounted_s"] = pass_s - sum(s.duration for s in top)
    m["trace.self_sum_s"] = sum(selfs.values())
    return m
