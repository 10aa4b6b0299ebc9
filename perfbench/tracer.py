"""Traced in-process run of whitevec CLI commands.

    PYTHONPATH=src python3 tracer.py SPEC_JSON

SPEC_JSON names a spans file, a list of CLI argument vectors and a
number of start-up probes. The tracer wraps a timing span around every
public function and public method of every whitevec module, by
replacing module and class attributes (no program file is edited), then
runs each argument vector through ``whitevec.cli.run``. Spans are kept
in memory and written as JSON lines at the end; one JSON object with
the in-process wall time of each command goes to stdout.
"""

import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import sys
import time
import traceback

import numpy as np

MODULES = ("cli", "evaluation", "fileio", "linalg", "retrieval", "streaming", "whitening")

# Floating-point work per call, for the layers whose throughput is reported.
FLOPS = {
    "whitening.apply_batch": lambda args, out: 2 * out.shape[0] * args[0].input_dim * out.shape[1],
    "retrieval.top_k": lambda args, out: 2 * args[0].size * args[0].dim,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent, start, end, rows, dim, bytes, flops]
        self.stack = []

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, 0.0, 0.0, 0, 0, 0, 0])
        self.stack.append(sid)
        self.spans[sid][2] = time.perf_counter()
        return sid

    def _close(self, sid, args, out):
        self.spans[sid][3] = time.perf_counter()
        self.stack.pop()
        span = self.spans[sid]
        span[4:7] = _shape(args, out)
        if span[0] in FLOPS and out is not None:
            span[7] = FLOPS[span[0]](args, out)

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            # One span per yielded item, so a layer is charged only for the
            # time spent inside it, not for what its caller does between items.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    sid = self._open(name)
                    item = None
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid, (), item)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self._close(sid, args, out)

        return wrapper

    def install(self, package) -> None:
        """Replace each public function, everywhere the package refers to it."""
        mods = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        wrapped = {}
        for mod in mods[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self.wrap(f"{short}.{attr}.{meth}", fn))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and callable(obj):
                    setattr(mod, attr, wrapped[id(obj)])

    def dump(self, path) -> None:
        keys = ("name", "parent", "start", "end", "rows", "dim", "bytes", "flops")
        with open(path, "w", encoding="utf-8") as f:
            for sid, span in enumerate(self.spans):
                f.write(json.dumps({"id": sid, **dict(zip(keys, span))}) + "\n")


def _shape(args, out) -> tuple[int, int, int]:
    """(rows, dim, bytes) of the call: a file argument's size, else its largest array."""
    if args and isinstance(args[0], (str, os.PathLike)) and os.path.isfile(args[0]):
        size = os.path.getsize(args[0])
    else:
        size = 0
    best = None
    for obj in (*args, out):
        for arr in (obj, getattr(obj, "vectors", None), getattr(obj, "left", None)):
            if isinstance(arr, np.ndarray) and (best is None or arr.nbytes > best.nbytes):
                best = arr
    if best is None:
        return 0, 0, size
    rows, dim = (1, best.shape[0]) if best.ndim == 1 else best.shape[:2]
    return rows, dim, size or best.nbytes


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    import whitevec
    from whitevec import cli

    tracer = Tracer()
    tracer.install(whitevec)
    probes = []
    for _ in range(spec["probes"]):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            cli.run(["--help"])
        probes.append(time.perf_counter() - start)
    walls, codes = [], []
    for argv in spec["commands"]:
        start = time.perf_counter()
        try:
            codes.append(cli.run(argv))
        except Exception:  # an escaped error fails this command, not the run
            traceback.print_exc()
            codes.append(1)
        walls.append(time.perf_counter() - start)
    tracer.dump(spec["spans"])
    print(json.dumps({"probe_s": probes, "wall_s": walls, "exit": codes}))


if __name__ == "__main__":
    main()
