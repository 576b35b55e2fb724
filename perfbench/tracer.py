"""Per-layer spans and counters, hooked onto the package from outside.

``install`` wraps the public entry points of each module in place.  A
function is replaced at every name a caller looks it up by: the defining
module, every module that bound it with ``from ... import``, and module-level
dicts such as the CLI's command table.  Methods are wrapped on their class,
so calls through ``self`` are seen too.  Each call records a span (name,
parent, start, end) in memory; ``Recorder.summary`` folds them into
inclusive time, self time and call counts per layer, and ``write_spans``
writes them out once the run ends.
"""

import functools
import sys
import time
import weakref
from array import array
from fractions import Fraction


class Recorder:
    """The spans and counters of one traced process, in flat arrays."""

    def __init__(self):
        self.names = []  # distinct span names; spans store an index
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 if no enclosing span has the same name
        self._stack = []
        self._open = {}  # name index -> open spans of that name
        self.counters = {}
        self.missing = []  # hooks whose target no longer exists

    def begin(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        depth = self._open.get(nid, 0)
        self._open[nid] = depth + 1
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(0 if depth else 1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._open[self.name_id[i]] -= 1

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def peak(self, name, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    def summary(self):
        """{name: {"s", "self_s", "calls"}} plus the total of all self times."""
        n = len(self.start)
        cover = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                cover[p] += self.end[i] - self.start[i]
        out = {}
        total_self = 0.0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            agg = out.setdefault(
                self.names[self.name_id[i]], {"s": 0.0, "self_s": 0.0, "calls": 0}
            )
            agg["calls"] += 1
            agg["self_s"] += dur - cover[i]
            total_self += dur - cover[i]
            if self.outer[i]:
                agg["s"] += dur
        return out, total_self

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )


def _wrap(rec, name, fn, after=None, before=None):
    """``name`` is a span name, or a function of the call's arguments."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(rec, args, kwargs)
        i = rec.begin(name if isinstance(name, str) else name(args, kwargs))
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.finish(i)
        if after is not None:
            out = after(rec, args, kwargs, out)
        return out

    return wrapper


def span_cost(n=20000):
    """Seconds a wrapper adds to one call, measured on a no-op function."""
    def noop():
        return None

    wrapped = _wrap(Recorder(), "noop", noop)
    elapsed = []
    for fn in (noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed.append(time.perf_counter() - t0)
    return max(elapsed[1] - elapsed[0], 0.0) / n


def _patch_function(rec, modules, owner, attr, name, **hooks):
    orig = getattr(owner, attr, None)
    if orig is None:
        rec.missing.append(f"{owner.__name__}.{attr}")
        return
    wrapped = _wrap(rec, name, orig, **hooks)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is orig:
                        value[dkey] = wrapped


def _patch_method(rec, cls, attr, name, eager=False, **hooks):
    """Wrap a method on its class; ``eager`` runs a generator to its end
    inside the span, so the caller's work between items stays outside it."""
    orig = cls.__dict__.get(attr)
    if orig is None:
        rec.missing.append(f"{cls.__name__}.{attr}")
        return
    if eager:
        gen = orig

        @functools.wraps(gen)
        def orig(*args, **kwargs):
            return list(gen(*args, **kwargs))

    setattr(cls, attr, _wrap(rec, name, orig, **hooks))


# -- counter hooks ------------------------------------------------------------

def _after_ball(rec, args, kwargs, out):
    rec.count("groups.ball.elems", len(out))
    return out


def _after_convolve(rec, args, kwargs, out):
    rec.count("walks.convolve_powers.support", sum(len(d.numerators) for d in out))
    return out


def _after_sphere(rec, args, kwargs, out):
    rec.count("automaton.enumerate_sphere.elems", len(out))
    return iter(out)


def _cli_rc(sub):
    def after(rec, args, kwargs, out):
        rec.peak(f"cli.{sub}.rc", out)
        return out

    return after


def _kernel_span(args, kwargs):
    """Name a first_return_kernel call by its engine, as the package picks it."""
    r = args[2] if len(args) > 2 else kwargs["r"]
    exact = args[5] if len(args) > 5 else kwargs.get("exact")
    if exact is None:
        exact = isinstance(r, (int, Fraction))
    return "parabolic.kernel_exact" if exact else "parabolic.kernel_float"


def _repeat_tracker(kind):
    """Count calls whose cache key this evaluator has already seen.

    The key mirrors GreenEvaluator's value cache: the displacement x^-1 y,
    r, and the method (``auto`` resolved as the evaluator resolves it).
    """
    seen = weakref.WeakKeyDictionary()

    def before(rec, args, kwargs):
        ev, x, y = args[:3]
        r = args[3] if len(args) > 3 else kwargs["r"]
        method = args[4] if len(args) > 4 else kwargs.get("method")
        group = ev.group
        gamma = group.multiply(group.invert(x), y)
        if kind == "G" and method in (None, "auto"):
            multi = ev.single_syllable_support and len(gamma) > 1
            method = "factored" if multi else "series"
        key = (kind, gamma, r, method)
        keys = seen.setdefault(ev, set())
        rec.count("green.lookups")
        if key in keys:
            rec.count("green.repeats")
        else:
            keys.add(key)

    return before


def install(rec):
    """Wrap the package's layer entry points; returns the recorder."""
    from freewalk import (
        audit, automaton, cli, config, green, groups, parabolic, thermo, walks
    )

    mods = [m for k, m in sys.modules.items()
            if m is not None and (k == "freewalk" or k.startswith("freewalk."))]

    def fn(owner, attr, name, **hooks):
        _patch_function(rec, mods, owner, attr, name, **hooks)

    _patch_method(rec, groups.FreeProduct, "ball", "groups.ball", after=_after_ball)
    fn(walks, "convolve_powers", "walks.convolve_powers", after=_after_convolve)
    fn(walks, "is_radial", "walks.is_radial")
    _patch_method(rec, walks.RadialChain, "return_log_probs", "walks.radial")
    _patch_method(rec, walks.RadialChain, "float_masses", "walks.radial")
    fn(green, "sphere_sizes", "green.sphere_sizes")
    _patch_method(rec, green.GreenEvaluator, "__init__", "green.evaluator")
    _patch_method(rec, green.GreenEvaluator, "green", "green.green",
                  before=_repeat_tracker("G"))
    _patch_method(rec, green.GreenEvaluator, "first_passage", "green.first_passage",
                  before=_repeat_tracker("F"))
    _patch_method(rec, green.GreenEvaluator, "i_sums", "green.i_sums")
    fn(parabolic, "first_return_kernel", _kernel_span)
    fn(parabolic, "kernel_spectral_radius", "parabolic.spectral_radius")
    fn(parabolic, "induced_green", "parabolic.induced_green")
    fn(parabolic, "degeneracy_test", "parabolic.degeneracy")
    fn(thermo, "build_transfer", "thermo.build_transfer")
    fn(thermo, "pressure", "thermo.pressure")
    fn(thermo, "sphere_identity_check", "thermo.sphere_identity")
    _patch_method(rec, automaton.Automaton, "enumerate_sphere",
                  "automaton.enumerate_sphere", eager=True, after=_after_sphere)
    fn(audit, "ancona_audit", "audit.ancona")
    fn(audit, "llt_fit", "audit.llt_fit")
    fn(audit, "ratio_report", "audit.ratio_report")
    fn(config, "load_config", "config.load")
    for sub in CLI_SUBCOMMANDS:
        fn(cli, f"cmd_{sub}", f"cli.{sub}", after=_cli_rc(sub))
    return rec


CLI_SUBCOMMANDS = (
    "walk", "green", "isums", "degeneracy", "pressure", "ancona", "llt", "report"
)
