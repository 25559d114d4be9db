"""The per-operation timer and the traced run's layer wrappers.

An untraced run wraps nothing but its operations, through ``OpTimer``.  A
traced run also installs ``Tracer``, which wraps each function of ``LAYERS``
in every germlift module namespace that bound it by name, so that calls made
through an imported alias are seen too.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

# (home module, attribute); "Class.method" wraps a method on its class.
# LiftCertificate is wrapped at __post_init__, the re-expansion of its identity.
LAYERS = (
    ("manifest", "load_manifest"),
    ("exprio", "parse_poly"),
    ("suite", "run_task"),
    ("lifting", "is_liftable"),
    ("lifting", "LiftCertificate.__post_init__"),
    ("lifting", "lift_from_unfolding"),
    ("germs", "wf_apply"),
    ("germs", "tf_generators"),
    ("groebner", "compute_gb"),
    ("groebner", "express"),
    ("groebner", "module_intersect"),
    ("groebner", "prune_module"),
    ("groebner", "syzygy_module"),
    ("groebner", "eliminate"),
    ("derlog", "discriminant"),
    ("derlog", "derlog_tangent"),
    ("derlog", "squarefree_part"),
    ("modules", "ModuleElement.scale"),
    ("modules", "ModuleElement.__add__"),
    ("poly", "Polynomial.__mul__"),
    ("poly", "Polynomial.substitute"),
    ("poly", "exact_divide"),
)

# Arithmetic runs tens of thousands of times per pass: it is counted and
# timed, and its time is taken from its caller's self time, but it leaves
# no span.
NO_SPAN = {"modules", "poly"}

# groebner functions whose returned bases or modules are sized
SIZED = {"compute_gb", "module_intersect", "prune_module", "syzygy_module",
         "eliminate"}


def layer_name(module: str, attr: str) -> str:
    if attr == "LiftCertificate.__post_init__":
        return "lifting.LiftCertificate"
    return f"{module}.{attr}"


LAYER_NAMES = tuple(layer_name(m, a) for m, a in LAYERS)


# The machine's speed changes by up to a fifth within seconds, as other
# guests load the cores it shares.  So a fixed probe samples the speed every
# PROBE_INTERVAL_S while a pass runs; its time is taken out of every timing,
# and every time is reported scaled to a machine on which the probe takes
# PROBE_REF_S.
PROBE_REF_S = 0.0025
PROBE_INTERVAL_S = 0.05


def probe():
    """Fixed work like the kernel's: Fraction arithmetic, tuple-keyed dicts."""
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
    d = {}
    for i in range(1250):
        key = (i % 97, i % 89)
        d[key] = d.get(key, 0) + i
    return s


class Probe:
    """Runs ``probe`` on a timer signal and keeps its times."""

    def __init__(self):
        self.samples: list[float] = []
        self.wall = 0.0  # time spent probing, to take out of timings
        self.cpu = 0.0

    def _sample(self, *_):
        w0, c0 = time.perf_counter(), time.process_time()
        probe()
        w = time.perf_counter() - w0
        self.samples.append(w)
        self.wall += w
        self.cpu += time.process_time() - c0

    @contextmanager
    def sampling(self):
        """Sample from entry to exit, once more at each end."""
        self.samples = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def speed(self) -> float:
        """Scale from this machine's clock to the reference machine's."""
        return PROBE_REF_S / statistics.median(self.samples)


class OpTimer:
    """Latency of every operation of a pass, probe time taken out;
    failures are counted, not timed."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.op_id = 0
        self.current = 0  # id of the running operation, 0 between operations
        self.begin_pass()

    def begin_pass(self):
        self.latencies: list[float] = []
        self.failed = 0

    def run(self, fn, *args):
        self.op_id += 1
        self.current = self.op_id
        p0 = self.probe.wall
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.failed += 1
            raise
        finally:
            self.current = 0
        self.latencies.append(time.perf_counter() - t0 - (self.probe.wall - p0))
        return result

    @contextmanager
    def wrapping(self, module, attr: str):
        """Time every call of ``module.attr`` as one operation."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            return self.run(lambda: original(*args, **kwargs))

        setattr(module, attr, timed)
        try:
            yield
        finally:
            setattr(module, attr, original)


def _max_bits(polys) -> int:
    bits = 0
    for p in polys:
        for c in p.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    """Spans and per-layer counters of the traced passes."""

    def __init__(self, timer: OpTimer):
        self.timer = timer
        self.spans: list[tuple] = []  # (id, parent id, op id, name, start, seconds)
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 1
        self._restore: list[tuple] = []
        self.begin_pass()

    def begin_pass(self):
        self.calls = {n: 0 for n in LAYER_NAMES}
        self.self_s = {n: 0.0 for n in LAYER_NAMES}
        self.builds = 0
        self.basis_elements = 0
        self.max_coeff_bits = 0

    def counts(self) -> dict:
        """Counters that must repeat exactly from pass to pass."""
        return {"calls": dict(self.calls), "builds": self.builds,
                "basis_elements": self.basis_elements,
                "max_coeff_bits": self.max_coeff_bits}

    def _sized(self, attr, result):
        if attr == "compute_gb":
            elements = result.elements
        else:
            elements = result.generators
        polys = [p for g in elements for p in g.entries]
        self.basis_elements += len(elements)
        self.max_coeff_bits = max(self.max_coeff_bits, _max_bits(polys))

    def _wrap(self, module: str, attr: str, fn):
        name = layer_name(module, attr)
        span = module not in NO_SPAN
        short = attr.rsplit(".", 1)[-1]
        sized = module == "groebner" and short in SIZED
        stack = self._stack
        probe = self.timer.probe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            build = short == "compute_gb" and args[0]._gb is None
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            p0 = probe.wall
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0 - (probe.wall - p0)
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if span:
                    self.spans.append((sid, parent, self.timer.current, name, t0, dur))
            if sized and (build or short != "compute_gb"):
                self.builds += build
                self._sized(short, result)
            return result

        return traced

    def install(self):
        mods = {n: m for n, m in sys.modules.items()
                if n == "germlift" or n.startswith("germlift.")}
        for module, attr in LAYERS:
            home = mods[f"germlift.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(module, attr, original))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(module, attr, original)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, path):
        """All spans of the run, one JSON object per line, gzip-compressed."""
        keys = ("id", "parent", "op", "name", "start", "seconds")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")

