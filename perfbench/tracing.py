"""Spans around the public names of the gpe layers, kept in memory.

The tracer wraps every public function of the six layer modules and the
public methods of their public classes, at every place the function is
bound (`gpe.simulate`, `gpe.diagnostics.simulate`, `gpe.cli.simulate` are
one wrapper), and never a `_`-prefixed helper.  A span is
[name, parent, start, end, task, extra]; a layer's self time is its
spans' durations minus the part their child spans cover, and the
benchmark's own code between spans is the `bench` layer, so the layers'
self times add up to the traced pass wall time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import time

LAYERS = ("hermite", "controls", "operators", "dynamics", "diagnostics", "cli")
STEP_SIZES = ((1, 64), (1, 128), (1, 256), (2, 64), (3, 16))

# Extra facts read off a call's arguments or result, stored on its span.
_HOOKS = {
    # (dim, n_modes, Strang steps, records)
    "dynamics.simulate": lambda a, kw, r: (
        r.cfg.dim, r.cfg.n_modes,
        int(round(r.cfg.t_final / r.dt)) if r.cfg.integrator == "strang" else 0,
        len(r.records),
    ),
    "dynamics.picard_solve": lambda a, kw, r: r.n_iter,
    "cli.emit_records": lambda a, kw, r: os.path.getsize(a[2] if len(a) > 2 else kw["path"]),
}


class Tracer:
    def __init__(self, gpe_pkg):
        self.spans = []
        self.task = -1
        self._stack = [-1]      # span indices; -1 stands for "no parent"
        self._patches = []
        self._targets = _discover(gpe_pkg)

    # ---- wrapping

    def install(self):
        for name, fn, sites in self._targets:
            wrapped = self._wrap(name, fn)
            for owner, attr in sites:
                self._patches.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        spans, stack, clock, hook = self.spans, self._stack, time.perf_counter, _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1], 0.0, 0.0, tracer.task, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                rec[5] = hook(args, kwargs, result)
            return result

        return traced

    # ---- benchmark spans (passes, set-up)

    def open(self, name):
        """Start a benchmark span; returns its index for close()."""
        rec = [name, self._stack[-1], 0.0, 0.0, self.task, None]
        index = len(self.spans)
        self._stack.append(index)
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return index

    def close(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def write(self, path):
        """All spans as gzip CSV: id,name,parent,start_s,end_s,task,extra."""
        with gzip.open(path, "wt", encoding="ascii", newline="\n") as fh:
            fh.write("id,name,parent,start_s,end_s,task,extra\n")
            for i, (name, parent, start, end, task, extra) in enumerate(self.spans):
                extra = "" if extra is None else str(extra).replace(",", ";")
                fh.write(f"{i},{name},{parent},{start!r},{end!r},{task},{extra}\n")


def _discover(gpe_pkg):
    """(span name, function, binding sites) for every public layer name."""
    modules = {layer: importlib.import_module(f"{gpe_pkg.__name__}.{layer}") for layer in LAYERS}
    owners = [gpe_pkg] + list(modules.values())
    targets, names = [], set()
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                sites = [(o, a) for o in owners for a, v in vars(o).items() if v is obj]
                targets.append((f"{layer}.{attr}", obj, sites))
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and (meth == "__call__" or not meth.startswith("_")):
                        targets.append((f"{layer}.{meth}", fn, [(obj, meth)]))
    for name, _, _ in targets:
        if name in names:
            raise RuntimeError(f"two traced names map to span {name}")
        names.add(name)
    return targets


def summarize(spans, roots):
    """Per-name and per-layer totals over the spans under the given roots.

    Returns {"names": {name: {"calls", "busy_s", "self_s"}},
             "layers": {layer: {"calls", "self_s"}}, "wall_s", "steps": ...}.
    calls are exact counts; busy_s (time inside the outermost call of that
    name) and self_s are timed.
    """
    n = len(spans)
    child = [0.0] * n
    root_of = [-1] * n
    for i, s in enumerate(spans):
        parent = s[1]
        root_of[i] = i if parent < 0 else root_of[parent]
        if parent >= 0:
            child[parent] += s[3] - s[2]
    roots = set(roots)
    names, layers = {}, {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS + ("bench",)}
    steps = {size: [0, 0.0] for size in STEP_SIZES}
    extra = {"dynamics.steps": 0, "dynamics.records": 0, "dynamics.picard_iters": 0,
             "cli.emit_records.bytes": 0}
    wall = 0.0
    for i, (name, parent, start, end, task, ext) in enumerate(spans):
        if root_of[i] not in roots:
            continue
        dur = end - start
        self_t = dur - child[i]
        if parent < 0:     # a pass or set-up span: the benchmark's own time
            wall += dur
            layers["bench"]["self_s"] += self_t
            continue
        outermost = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outermost = False
                break
            p = spans[p][1]
        rec = names.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += self_t
        if outermost:
            rec["busy_s"] += dur
        layer = name.split(".", 1)[0]
        layers[layer]["calls"] += 1
        layers[layer]["self_s"] += self_t
        if name == "dynamics.simulate" and ext is not None:
            dim, n_modes, n_steps, n_rec = ext
            extra["dynamics.steps"] += n_steps
            extra["dynamics.records"] += n_rec
            if (dim, n_modes) in steps and n_steps:
                steps[(dim, n_modes)][0] += n_steps
                steps[(dim, n_modes)][1] += self_t
        elif name == "dynamics.picard_solve" and ext is not None:
            extra["dynamics.picard_iters"] += ext
        elif name == "cli.emit_records" and ext is not None:
            extra["cli.emit_records.bytes"] += ext
    return {"names": names, "layers": layers, "wall_s": wall, "steps": steps, "extra": extra}
