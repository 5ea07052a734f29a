"""Timers around the public functions of every ``marketpanel`` module.

The benchmark's traced run wraps each public module-level function from
outside the program: it replaces the module attribute and every name another
``marketpanel`` module imported from it (``cli.build_dataset``,
``models.hausman_test``, the package's re-exports). Each call records a span
(name, start, end, parent) in memory, and per-name call counts and self time,
which is the span's duration minus the time of the wrapped calls inside it.
"""

import functools
import importlib
import inspect
import json
import pkgutil
import time


def _is_public_function(module, name, obj):
    return (inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_"))


class Tracer:
    """Installs timing wrappers on a package and collects what they record."""

    def __init__(self, package):
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        self.spans = []     # (name, start, end, parent span index or -1)
        self.calls = {}     # "module.function" -> calls since reset()
        self.self_s = {}    # "module.function" -> self seconds since reset()
        self._stack = []    # [span index, seconds spent in wrapped children]
        self._replaced = []  # (module, attribute, original)

    def layer_functions(self):
        """layer name -> names of its wrapped functions."""
        prefix = self.modules[0].__name__ + "."
        return {m.__name__[len(prefix):]: [n for n, o in vars(m).items()
                                           if _is_public_function(m, n, o)]
                for m in self.modules[1:]}

    def install(self):
        wrappers = {}
        prefix = self.modules[0].__name__ + "."
        for module in self.modules[1:]:
            layer = module.__name__[len(prefix):]
            for name, obj in vars(module).items():
                if _is_public_function(module, name, obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for module in self.modules:
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._replaced.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, original in reversed(self._replaced):
            setattr(module, name, original)
        self._replaced.clear()

    def reset(self):
        self.calls, self.self_s = {}, {}

    def write(self, path, extra):
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {"names": names,
                   "spans_columns": ["name", "start_s", "end_s", "parent"],
                   "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                   **extra}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))

    def _wrap(self, qualname, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [len(spans), 0.0]
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (qualname, start, end, parent)
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                self.calls[qualname] = self.calls.get(qualname, 0) + 1
                self.self_s[qualname] = self.self_s.get(qualname, 0.0) + elapsed - frame[1]

        return timed
