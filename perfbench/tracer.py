"""Run one core3 CLI command with timing/counting wrappers installed.

Usage (from the root of a core3 checkout, with ``src`` on PYTHONPATH):

    python perfbench/tracer.py TRACE_OUT.json compute A3 6

Every public function of each ``core3`` module is wrapped, and the wrapper
is installed in every ``core3`` namespace that holds a reference to the
original (``identities`` binds ``pair_count`` by ``from .arith import``,
``cli`` reaches it as ``arith.pair_count``).  ``SpfSieve.__init__`` is
wrapped as the sieve-build span.  The command then runs through
``core3.cli.main(argv)``; stdout is left untouched, so it must be
byte-identical to ``python -m core3 ...``.

Spans (id, name, start, end, parent id) are kept in memory, up to
SPAN_CAP of them, and written with the per-name aggregates to TRACE_OUT
when the command ends.  Aggregates cover every call, kept or not: calls,
inclusive seconds, self seconds (inclusive minus the time covered by
child spans), parent->child call counts, and a few result counters.
The time a wrapper spends after its call (closing the span, running a
result hook) is taken out of the parent's self time and summed as
``bookkeeping_s``.
"""

import bisect
import importlib
import json
import sys
import time
import types

MODULES = ("arith", "series", "lambert", "partitions", "identities", "cli")
SPAN_CAP = 20000


class Tracer:
    def __init__(self):
        self.stack = []          # frames: [span id, name, start, child seconds]
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.stats = {}          # name -> [calls, inclusive s, self s]
        self.edges = {}          # "parent>child" -> calls
        self.counters = {}
        self.sieve_limit = 0     # limit of the most recently built SpfSieve
        self.bookkeeping_s = 0.0  # closing spans and running result hooks

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, hook=None):
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            frame = [span_id, name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, end)
            if hook is not None:
                hook(self, args, kwargs, result)
            # the bookkeeping after the call leaves the parent's self time
            spent = clock() - end
            self.bookkeeping_s += spent
            if stack:
                stack[-1][3] += spent
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, end):
        span_id, name, start, child = frame
        duration = end - start
        agg = self.stats.get(name)
        if agg is None:
            agg = self.stats[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
            edge = f"{parent[1]}>{name}"
            self.edges[edge] = self.edges.get(edge, 0) + 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end,
                               None if parent is None else parent[0]))
        else:
            self.dropped += 1

    def report(self, exit_code, cache_info):
        return {"exit": exit_code, "stats": self.stats, "edges": self.edges,
                "counters": self.counters, "sieve_limit": self.sieve_limit,
                "cache_info": cache_info, "dropped_spans": self.dropped,
                "bookkeeping_s": self.bookkeeping_s,
                "spans": self.spans}


# --- result hooks: counts measured where the work happens -------------------

def _factorize_hook(tracer, args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    sieve = args[1] if len(args) > 1 else kwargs.get("sieve")
    limit = sieve.limit if sieve is not None else tracer.sieve_limit
    tracer.count("factorize_sieve" if n <= max(limit, 1) else "factorize_trial")


def _is_t_core_hook(tracer, args, kwargs, result):
    if result:
        tracer.count("t_core_hits")


def _mul_hook(tracer, args, kwargs, result):
    """Coefficient products the sparse Cauchy product performs."""
    a, b = args[0], args[1]
    order = len(a.coeffs)
    ta = [i for i, c in enumerate(a.coeffs) if c]
    tb = [j for j, c in enumerate(b.coeffs) if c]
    if len(ta) > len(tb):
        ta, tb = tb, ta
    tracer.count("mul_term_products",
                 sum(bisect.bisect_left(tb, order - i) for i in ta))


def _checked_hook(name):
    def hook(tracer, args, kwargs, result):
        reports = result if isinstance(result, list) else [result]
        tracer.count(f"checked:{name}", sum(r.checked for r in reports))
    return hook


def _sieve_built(tracer, args, kwargs, result):
    tracer.sieve_limit = args[0].limit


def install(tracer):
    """Wrap every public core3 function in every namespace that binds it."""
    modules = {name: importlib.import_module(f"core3.{name}") for name in MODULES}
    hooks = {"arith.factorize": _factorize_hook,
             "partitions.is_t_core": _is_t_core_hook,
             "series.mul": _mul_hook}
    wrappers = {}
    for mod_name, module in modules.items():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            is_function = isinstance(value, types.FunctionType) or hasattr(value, "cache_info")
            if not is_function or getattr(value, "__module__", None) != module.__name__:
                continue
            name = f"{mod_name}.{attr}"
            hook = hooks.get(name)
            if hook is None and mod_name == "identities" and (
                    attr.startswith("check_") or attr == "cross_validate"):
                hook = _checked_hook(attr.removeprefix("check_"))
            wrappers[id(value)] = (value, tracer.wrap(name, value, hook))
    namespaces = [m for key, m in sys.modules.items()
                  if key == "core3" or key.startswith("core3.")]
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(namespace, attr, entry[1])
    sieve_cls = getattr(modules["arith"], "SpfSieve", None)
    if sieve_cls is not None:
        sieve_cls.__init__ = tracer.wrap("arith.SpfSieve", sieve_cls.__init__, _sieve_built)
    return modules, [entry[0] for entry in wrappers.values()]


def main(argv):
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    modules, originals = install(tracer)
    code = 1
    try:
        code = modules["cli"].main(cli_argv)
    finally:
        sys.stdout.flush()
        cache_info = {f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}": fn.cache_info()._asdict()
                      for fn in originals if hasattr(fn, "cache_info")}
        with open(out_path, "w") as fh:
            json.dump(tracer.report(code, cache_info), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
