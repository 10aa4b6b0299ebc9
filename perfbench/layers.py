"""Per-layer metrics computed from the spans of a traced run.

A span's time is its end minus its start; a layer's self time is that
minus the time of the spans it directly caused. Times are per cycle
(totals divided by the number of traced cycles); rates are total work
over total time. A layer that did no work on a workload reports 0.
"""

import statistics
from collections import defaultdict


class Spans:
    def __init__(self, spans: list[dict], cycles: int):
        self.cycles = cycles
        self.by_name = defaultdict(list)
        child_time = defaultdict(float)
        for s in spans:
            s["dur"] = s["end"] - s["start"]
            self.by_name[s["name"]].append(s)
            if s["parent"] >= 0:
                child_time[(s["cycle"], s["parent"])] += s["dur"]
        for s in spans:
            s["self"] = s["dur"] - child_time[(s["cycle"], s["id"])]

    def total(self, name: str) -> float:
        return sum(s["dur"] for s in self.by_name[name]) / self.cycles

    def self_time(self, name: str) -> float:
        return sum(s["self"] for s in self.by_name[name]) / self.cycles

    def rate(self, name: str, field: str, scale: float) -> float:
        spans = self.by_name[name]
        busy = sum(s["dur"] for s in spans)
        work = len(spans) if field == "calls" else sum(s[field] for s in spans)
        return work * scale / busy if busy > 0 else 0.0

    def percentile_ms(self, name: str, q: int) -> float:
        durs = [s["dur"] for s in self.by_name[name]]
        if len(durs) < 2:
            return 1e3 * sum(durs)
        return 1e3 * statistics.quantiles(durs, n=100, method="inclusive")[q - 1]


def _time(name):
    return "s", "lower", lambda sp: sp.total(name)


def _self(name):
    return "s", "lower", lambda sp: sp.self_time(name)


# (metric, unit, better, value from Spans). cli.startup_s is added by the caller.
PER_LAYER = [
    ("linalg.sym_eig.s", *_time("linalg.sym_eig")),
    ("whitening.compute_mean.s", *_time("whitening.compute_mean")),
    ("whitening.compute_covariance.s", *_time("whitening.compute_covariance")),
    ("whitening.fit.self_s", *_self("whitening.fit")),
    ("whitening.apply_batch.s", *_time("whitening.apply_batch")),
    ("whitening.apply_batch.gflops", "GFLOP/s", "higher",
     lambda sp: sp.rate("whitening.apply_batch", "flops", 1e-9)),
    ("whitening.truncate.s", *_time("whitening.truncate")),
    ("streaming.update.s", *_time("streaming.MomentState.update")),
    ("streaming.update.rows_per_s", "rows/s", "higher",
     lambda sp: sp.rate("streaming.MomentState.update", "calls", 1.0)),
    ("streaming.finalize.s", *_time("streaming.finalize")),
    ("evaluation.evaluate.self_s", *_self("evaluation.evaluate")),
    ("evaluation.spearman.s", *_time("evaluation.spearman")),
    ("evaluation.sweep_k.self_s", *_self("evaluation.sweep_k")),
    ("evaluation.fit_corpus.s", *_time("evaluation.fit_corpus")),
    ("retrieval.build_index.s", *_time("retrieval.build_index")),
    ("retrieval.top_k.s", *_time("retrieval.top_k")),
    ("retrieval.top_k.p50_ms", "ms", "lower", lambda sp: sp.percentile_ms("retrieval.top_k", 50)),
    ("retrieval.top_k.p99_ms", "ms", "lower", lambda sp: sp.percentile_ms("retrieval.top_k", 99)),
    ("retrieval.top_k.gflops", "GFLOP/s", "higher",
     lambda sp: sp.rate("retrieval.top_k", "flops", 1e-9)),
    ("fileio.read_emb1.s", *_time("fileio.read_emb1")),
    ("fileio.read_emb1.mb_per_s", "MB/s", "higher",
     lambda sp: sp.rate("fileio.read_emb1", "bytes", 1e-6)),
    ("fileio.iter_emb1.s", *_time("fileio.iter_emb1")),
    ("fileio.write_emb1.s", *_time("fileio.write_emb1")),
    ("fileio.save_transform.s", *_time("fileio.save_transform")),
    ("fileio.load_transform.s", *_time("fileio.load_transform")),
    ("fileio.read_gold.s", *_time("fileio.read_gold")),
] + [
    (f"cli.{cmd}.self_s", *_self(f"cli.cmd_{cmd}"))
    for cmd in ("fit", "transform", "search", "stats", "eval", "sweep")
]

STARTUP = ("cli.startup_s", "s", "lower")


def metric_names() -> list[tuple[str, str, str]]:
    return [(name, unit, better) for name, unit, better, _ in PER_LAYER] + [STARTUP]


def per_layer(spans: list[dict], cycles: int, startup_s: float) -> dict:
    sp = Spans(spans, cycles)
    out = {name: {"value": fn(sp), "unit": unit} for name, unit, _, fn in PER_LAYER}
    out[STARTUP[0]] = {"value": startup_s, "unit": STARTUP[1]}
    return out


def coverage(spans: list[dict], cycles: int) -> dict:
    """Per command: (span time, self time) per cycle; the rest is covered by child spans."""
    sp = Spans(spans, cycles)
    return {
        name.split("cmd_", 1)[1]: (sp.total(name), sp.self_time(name))
        for name in sp.by_name
        if name.startswith("cli.cmd_")
    }
