"""In-memory span tracer for the vclab benchmark.

Wraps public vclab functions at every name a vclab module looks them up by,
so a call made through `dichotomy.forward_batch` or `cli.load_class_spec` is
seen just like one made through the defining module. Each call records a
span (name, start, end, parent) and bumps work counters; spans stay in memory
and are reduced to per-layer metrics at the end of a pass. Self time is a
span's duration minus the durations of its direct children. No layer queues
work, so there is no waiting time to record.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter
from time import perf_counter

import numpy as np


def _arg(sig, args, kwargs, name):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _gp_subsets(k: int, d: int) -> int:
    """Determinants a passing general-position check evaluates."""
    return math.comb(k, d + 1) if k >= d + 1 else 0


# (module, function) -> hook(counts, args, kwargs, result, sig) run after a
# successful call, for counters that need arguments or results
def _forward_batch(c, a, kw, res, sig):
    W = _arg(sig, a, kw, "W")
    X = _arg(sig, a, kw, "X")
    c["hypotheses.forward_batch.evals"] += np.shape(W)[0] * np.shape(X)[0]


def _in_general_position(c, a, kw, res, sig):
    k, d = np.shape(_arg(sig, a, kw, "points"))
    c["pointsets.in_general_position.subsets"] += _gp_subsets(k, d)


def _is_realizable(c, a, kw, res, sig):
    c["linsep.is_realizable.true"] += bool(res)


def _sampled_trace_set(c, a, kw, res, sig):
    c["dichotomy.weight_draws"] += _arg(sig, a, kw, "budget")
    c["dichotomy.distinct_traces"] += len(res)


def _enumerate_support_traces(c, a, kw, res, sig):
    c["ucheck.trace_rows"] += res[0].shape[0]


def _run_uc_experiment(c, a, kw, res, sig):
    c["ucheck.trials"] += _arg(sig, a, kw, "trials")


TRACED = {
    ("hypotheses", "load_class_spec"): None,
    ("hypotheses", "forward_batch"): _forward_batch,
    ("pointsets", "random_general_position"): None,
    ("pointsets", "in_general_position"): _in_general_position,
    ("linsep", "max_margin"): None,
    ("linsep", "is_realizable"): _is_realizable,
    ("linsep", "enumerate_ltf_traces"): None,
    ("dichotomy", "sampled_trace_set"): _sampled_trace_set,
    ("dichotomy", "is_shattered"): None,
    ("dichotomy", "growth_samples"): None,
    ("dichotomy", "vc_dim_bruteforce"): None,
    ("bounds", "bound_report"): None,
    ("bounds", "k_elementary"): None,
    ("ucheck", "load_distribution"): None,
    ("ucheck", "enumerate_support_traces"): _enumerate_support_traces,
    ("ucheck", "run_uc_experiment"): _run_uc_experiment,
}

# lookups the call graph depends on; checked explicitly after installation
REQUIRED_SITES = (
    ("vclab.dichotomy", "forward_batch"),
    ("vclab.dichotomy", "random_general_position"),
    ("vclab.dichotomy", "sampled_trace_set"),
    ("vclab.ucheck", "sampled_trace_set"),
    ("vclab.cli", "load_class_spec"),
    ("vclab.linsep", "max_margin"),
    ("vclab.linsep", "is_realizable"),
    ("vclab.pointsets", "in_general_position"),
    ("vclab.bounds", "k_elementary"),
)

LAYERS = ("cli", "hypotheses", "pointsets", "linsep", "dichotomy", "bounds", "ucheck")


class Tracer:
    """Records spans and counters while installed; `uninstall` restores every
    patched name."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.wrappers: dict = {}  # id(original) -> (original, wrapper)
        self.patched: list[tuple] = []  # (module, attribute, original)

    def span(self, name, fn, hook=None):
        """Wrap `fn` so each call records a span named `name`."""
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append([name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1])
            tracer.counts[name + ".calls"] += 1
            tracer.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                tracer.counts[name + ".raised." + type(e).__name__] += 1
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[idx][1] = start
                tracer.spans[idx][2] = end
            if hook is not None:
                hook(tracer.counts, args, kwargs, result, sig)
            return result

        return wrapper

    def install(self):
        """Patch every vclab module global that holds a traced function."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "vclab" or name.startswith("vclab.")}
        if not self.wrappers:
            for (mod_name, fn_name), hook in TRACED.items():
                original = getattr(modules["vclab." + mod_name], fn_name)
                wrapper = self.span(f"{mod_name}.{fn_name}", original, hook)
                self.wrappers[id(original)] = (original, wrapper)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if self._original(value):
                    setattr(mod, attr, self.wrappers[id(value)][1])
                    self.patched.append((mod, attr, value))

    def _original(self, value) -> bool:
        entry = self.wrappers.get(id(value))
        return entry is not None and entry[0] is value

    def uninstall(self):
        for mod, attr, original in reversed(self.patched):
            setattr(mod, attr, original)
        self.patched.clear()

    def install_errors(self) -> list[str]:
        """Names a vclab module still resolves to an unwrapped original."""
        errors = []
        for name, mod in sys.modules.items():
            if name != "vclab" and not name.startswith("vclab."):
                continue
            for attr, value in vars(mod).items():
                if self._original(value):
                    errors.append(f"{name}.{attr} is not wrapped")
        wrapped = {id(w) for _, w in self.wrappers.values()}
        for mod_name, attr in REQUIRED_SITES:
            if id(getattr(sys.modules[mod_name], attr)) not in wrapped:
                errors.append(f"{mod_name}.{attr} is not wrapped")
        return sorted(set(errors))

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # ----------------------------------------------------------------------
    # Reduction of one pass to per-layer metrics
    # ----------------------------------------------------------------------

    def totals(self):
        """Per span name: (total duration, total self time), plus the time and
        call count of entries into each layer (spans whose parent is in
        another layer)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        dur, self_s = Counter(), Counter()
        layer_s, layer_calls = Counter(), Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur[name] += end - start
            self_s[name] += end - start - child[i]
            layer = name.split(".")[0]
            if parent < 0 or self.spans[parent][0].split(".")[0] != layer:
                layer_s[layer] += end - start
                layer_calls[layer] += 1
        return dur, self_s, layer_s, layer_calls

    def layer_self_times(self) -> dict:
        _, self_s, _, _ = self.totals()
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self_s.items():
            out[name.split(".")[0]] += s
        return out

    def metrics(self) -> dict:
        """The per-layer metrics of the spans and counters recorded so far."""
        c = self.counts
        dur, self_s, layer_s, layer_calls = self.totals()

        def ratio(a, b):
            return a / b if b else 0.0

        lp = c["linsep.max_margin.calls"]
        draws = c["dichotomy.weight_draws"]
        return {
            "cli.calls": c["cli.main.calls"],
            "cli.self_s": self_s["cli.main"],
            "cli.nonzero_exits": c["cli.nonzero_exits"],
            "hypotheses.load_class_spec_s": dur["hypotheses.load_class_spec"],
            "hypotheses.forward_batch.calls": c["hypotheses.forward_batch.calls"],
            "hypotheses.forward_batch.evals": c["hypotheses.forward_batch.evals"],
            "hypotheses.forward_batch.s": dur["hypotheses.forward_batch"],
            "pointsets.random_general_position.calls":
                c["pointsets.random_general_position.calls"],
            "pointsets.random_general_position.self_s":
                self_s["pointsets.random_general_position"],
            "pointsets.in_general_position.calls": c["pointsets.in_general_position.calls"],
            "pointsets.in_general_position.subsets":
                c["pointsets.in_general_position.subsets"],
            "pointsets.in_general_position.s": dur["pointsets.in_general_position"],
            "pointsets.gp_checks_per_set": ratio(
                c["pointsets.in_general_position.calls"],
                c["pointsets.random_general_position.calls"]),
            "linsep.lp_solves": lp,
            "linsep.max_margin.s": dur["linsep.max_margin"],
            "linsep.realizable_ratio": ratio(
                c["linsep.is_realizable.true"], c["linsep.is_realizable.calls"]),
            "linsep.indeterminate":
                c["linsep.is_realizable.raised.IndeterminateLabelingError"],
            "linsep.enumerate_ltf_traces.calls": c["linsep.enumerate_ltf_traces.calls"],
            "linsep.enumerate_ltf_traces.self_s": self_s["linsep.enumerate_ltf_traces"],
            "dichotomy.sampled_trace_set.calls": c["dichotomy.sampled_trace_set.calls"],
            "dichotomy.sampled_trace_set.self_s": self_s["dichotomy.sampled_trace_set"],
            "dichotomy.weight_draws": draws,
            "dichotomy.distinct_traces": c["dichotomy.distinct_traces"],
            "dichotomy.trace_yield": ratio(c["dichotomy.distinct_traces"], draws),
            "dichotomy.is_shattered.calls": c["dichotomy.is_shattered.calls"],
            "dichotomy.is_shattered.self_s": self_s["dichotomy.is_shattered"],
            "dichotomy.growth_samples.self_s": self_s["dichotomy.growth_samples"],
            "dichotomy.vc_dim_bruteforce.self_s": self_s["dichotomy.vc_dim_bruteforce"],
            "bounds.calls": layer_calls["bounds"],
            "bounds.s": layer_s["bounds"],
            "ucheck.load_distribution_s": dur["ucheck.load_distribution"],
            "ucheck.enumerate_support_traces.self_s": self_s["ucheck.enumerate_support_traces"],
            "ucheck.trace_rows": c["ucheck.trace_rows"],
            "ucheck.trials": c["ucheck.trials"],
            "ucheck.run_uc_experiment.self_s": self_s["ucheck.run_uc_experiment"],
            "ucheck.trials_per_s": ratio(
                c["ucheck.trials"], self_s["ucheck.run_uc_experiment"]),
        }
