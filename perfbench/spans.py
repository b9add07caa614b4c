"""Outside-in tracing of the skewstone layer modules.

Every public function defined in a layer module is replaced, by ``setattr``
on the module, with a wrapper that records a span.  The modules call each
other (and themselves) through module globals, so calls from inside the
package, including calls within one module, pass through the wrappers.
Spans are kept in memory; self time is a span's duration minus the time
covered by its child spans.
"""

import functools
import inspect
from time import perf_counter

LAYERS = ("cli", "textio", "balg", "bset", "skew", "etale", "duality")

# Functions whose per-layer metrics are reported by name.
NAMED = (
    "textio.parse", "textio.print_stanza",
    "balg.validate_balg",
    "bset.validate_presheaf", "bset.generate_boolean_set", "bset.validate_boolean_set",
    "bset.to_skew", "bset.from_skew", "bset.sheaf_condition",
    "skew.validate_skew", "skew.gamma_classes",
    "etale.dual_bset", "etale.all_sections",
    "duality.bset_ultrafilters", "duality.bset_double_dual",
    "duality.etale_double_dual", "duality.check_topology",
)
COUNTED = ("balg.validate_balg", "skew.validate_skew", "duality.bset_ultrafilters")
REJECTING = ("balg", "bset", "skew")

# Work sizes recorded with a span: characters parsed (the documents are
# ASCII, so bytes), elements validated.
_SIZE = {
    "textio.parse": lambda args: len(args[0]),
    "balg.validate_balg": lambda args: len(args[0]),
}


class Tracer:
    """Wraps the layer modules of a ``skewstone`` import while installed."""

    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.structure_error = package.errors.StructureError
        self.spans = []          # (function key, duration, child time, size)
        self.rejects = dict.fromkeys(REJECTING, 0)
        self._stack = []
        self._originals = []

    def install(self):
        for layer, mod in self.modules.items():
            for name, fn in list(vars(mod).items()):
                # a generator's body runs when it is consumed, outside any
                # span placed around the call, so generators stay unwrapped
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or inspect.isgeneratorfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._originals.append((mod, name, fn))
                setattr(mod, name, self._wrap(f"{layer}.{name}", layer, fn))

    def uninstall(self):
        for mod, name, fn in self._originals:
            setattr(mod, name, fn)
        self._originals = []

    def _wrap(self, key, layer, fn):
        stack, spans = self._stack, self.spans
        size = _SIZE.get(key)
        structure_error = self.structure_error

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except structure_error as e:
                if layer in self.rejects and not hasattr(e, "_perfbench_layer"):
                    e._perfbench_layer = layer
                    self.rejects[layer] += 1
                raise
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                spans.append((key, dur, child, size(args) if size else 0))

        return span

    def _totals(self):
        """Self time, calls and work size per function key."""
        self_s, calls, sizes = {}, {}, {}
        for key, dur, child, n in self.spans:
            self_s[key] = self_s.get(key, 0.0) + dur - child
            calls[key] = calls.get(key, 0) + 1
            sizes[key] = sizes.get(key, 0) + n
        return self_s, calls, sizes

    def metrics(self, total_untraced, total_traced):
        """Per-layer metrics over the recorded spans."""
        self_s, calls, sizes = self._totals()
        out = {}
        for layer in LAYERS:
            keys = [k for k in self_s if k.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = (sum((self_s[k] for k in keys), 0.0), "s")
            out[f"{layer}.calls"] = (sum(calls[k] for k in keys), "count")
        for key in NAMED:
            out[f"{key}.self_s"] = (self_s.get(key, 0.0), "s")
        for key in COUNTED:
            out[f"{key}.calls"] = (calls.get(key, 0), "count")
        parse_s = self_s.get("textio.parse", 0.0)
        out["textio.parse.mb_per_s"] = (
            sizes.get("textio.parse", 0) / 1e6 / parse_s if parse_s else 0.0, "MB/s")
        out["balg.validate_balg.elems"] = (sizes.get("balg.validate_balg", 0), "count")
        for layer in REJECTING:
            out[f"{layer}.rejects"] = (self.rejects[layer], "count")
        out["trace.overhead_frac"] = (total_traced / total_untraced - 1, "1")
        return out

    def top_functions(self, n=15):
        """The n functions with the most self time, for the run log."""
        self_s, calls, _ = self._totals()
        return sorted(((k, round(s, 4), calls[k]) for k, s in self_s.items()),
                      key=lambda r: -r[1])[:n]
