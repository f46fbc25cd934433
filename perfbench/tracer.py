"""Traced `wittforge` CLI process.

    python perfbench/tracer.py SPANS_JSON <wittforge arguments...>

Runs one CLI command exactly as `python -m wittforge.cli` would, after
wrapping the public functions and arithmetic methods of every layer module
(`enveloping`, `lie`, `modules`, `cover`, `linalg`, `scalars`) in timing
wrappers. Every binding of a wrapped function is replaced, so a name
imported into another module (`act` in `wittforge.cover`) and a class alias
(`PolyScalar.__rmul__ = __mul__`) go through the same wrapper. The
command's own code under `cli` is the root span `cli.main`.

Spans are aggregated per call path: one node per distinct chain of wrapped
calls, holding its call count, total time, time in child spans and the
number of calls that raised. The nodes stay in memory and are written to
SPANS_JSON, each with its parent, when the process exits. Nothing under
`src/` is changed.
"""

from __future__ import annotations

import atexit
import functools
import inspect
import json
import sys
import time

LAYERS = ("enveloping", "lie", "modules", "cover", "linalg", "scalars")
ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__neg__", "__truediv__", "__rtruediv__", "__pow__"}


class Node:
    __slots__ = ("key", "parent", "kids", "calls", "total", "child", "failed")

    def __init__(self, key, parent):
        self.key = key
        self.parent = parent
        self.kids = {}
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.failed = 0


class Tracer:
    def __init__(self):
        self.root = Node("cli.main", None)
        self.cur = [self.root]

    def wrap(self, fn, key):
        cur = self.cur
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = cur[0]
            node = parent.kids.get(key)
            if node is None:
                node = parent.kids[key] = Node(key, parent)
            cur[0] = node
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                node.failed += 1
                raise
            finally:
                dt = clock() - t0
                node.calls += 1
                node.total += dt
                parent.child += dt
                cur[0] = parent
        return traced

    def install(self):
        """Wrap each layer's public functions and its classes' public and
        arithmetic methods, then rebind every module-level alias."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"wittforge.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        public = not attr.startswith("_") or attr in ARITHMETIC
                        if not (inspect.isfunction(fn) and public):
                            continue
                        if fn not in wrapped:
                            wrapped[fn] = self.wrap(
                                fn, f"{layer}.{name}.{fn.__name__}")
                        setattr(obj, attr, wrapped[fn])
        for modname, mod in list(sys.modules.items()):
            if modname == "wittforge" or modname.startswith("wittforge."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, name, wrapped[obj])

    def spans(self) -> list:
        """The call-path nodes as rows [id, parent_id, key, calls, total_s,
        child_s, failed], parents before children."""
        rows, todo, ids = [], [self.root], {}
        while todo:
            node = todo.pop()
            ids[id(node)] = len(rows)
            rows.append([len(rows),
                         ids[id(node.parent)] if node.parent else None,
                         node.key, node.calls, node.total, node.child,
                         node.failed])
            todo.extend(node.kids.values())
        return rows


def main(argv: list) -> None:
    out_path, args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import wittforge.cli as cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()

    def dump():
        with open(out_path, "w") as f:
            json.dump({"import_s": import_s, "spans": tracer.spans()}, f)
    atexit.register(dump)

    t1 = time.perf_counter()
    try:
        cli.main.main(args=args, prog_name="wittforge")
    finally:
        tracer.root.calls = 1
        tracer.root.total = time.perf_counter() - t1


if __name__ == "__main__":
    main(sys.argv[1:])
