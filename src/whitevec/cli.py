"""Command-line interface.

Subcommands: fit, transform, eval, sweep, stats, search, bench.
Exit codes: 0 success, 2 usage error, 1 runtime error. Data goes to
stdout (or --out); diagnostics go to stderr, prefixed with the error code.
"""

import argparse
import dataclasses
import json
import sys
from itertools import chain

import numpy as np

from . import evaluation, fileio, linalg, retrieval, streaming, whitening
from .errors import DimensionMismatch, NonFinite, WhitevecError
from .whitening import FULL


def _flag(kind, check):
    """An argparse ``type``: the text as ``kind``, then the library's ``check`` of it.

    Text that does not parse as ``kind`` goes to ``check`` as it is, so
    the check's message names it; the check's WhitevecError becomes a
    usage error (exit 2), raised before any file is read.
    """

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = text
        try:
            return check(value)
        except WhitevecError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return parse


_k_flag = _flag(int, whitening.require_k)


def _ks_arg(value: str):
    ks = [_k_flag(tok.strip()) for tok in value.split(",") if tok.strip()]
    if not ks:
        raise argparse.ArgumentTypeError(f"expected at least one k, got {value!r}")
    return ks


def _emit(texts, out_path) -> None:
    """The one text writer: the strs ``texts``, to ``out_path`` atomically or to stdout."""
    if out_path:
        fileio.write_atomic(out_path, (text.encode("utf-8") for text in texts))
    else:
        sys.stdout.writelines(texts)


def _emb1_blocks(path, t: whitening.WhiteningTransform | None, dim: int | None):
    """(blocks, count, width) of an EMB1 file, its blocks whitened by ``t`` if given.

    The header's width is checked against ``t.input_dim``, or else against
    ``dim`` unless it is None, before any block is read, so a file of the
    wrong width fails even when it has no rows.
    """
    header = fileio.read_emb1_header(path)
    expected = dim if t is None else t.input_dim
    if expected not in (None, header.dim):
        raise DimensionMismatch(f"{path} has dim {header.dim}, expected {expected}")
    blocks = fileio.iter_emb1(path)
    if t is None:
        return blocks, header.count, header.dim
    return (whitening.apply_batch(t, b) for b in blocks), header.count, t.output_dim


def cmd_fit(args) -> int:
    moments = streaming.fold(fileio.iter_emb1(args.input))
    t = whitening.fit_from_moments(moments, k=args.k, eps=args.eps)
    fileio.save_transform(args.out, t)
    print(
        f"fitted on {t.fit_count} vectors: {t.input_dim} -> {t.output_dim} dims",
        file=sys.stderr,
    )
    return 0


def cmd_transform(args) -> int:
    t = fileio.load_transform(args.transform)
    fileio.write_emb1_blocks(args.out, *_emb1_blocks(args.input, t, None), dtype=args.dtype)
    return 0


def _pair_inputs(args) -> tuple[int, np.ndarray]:
    """(dim, gold) of --left/--right/--gold, checked against each other.

    Only the EMB1 headers and the gold file are read, so a mismatch
    fails before any payload is.
    """
    left = fileio.read_emb1_header(args.left)
    right = fileio.read_emb1_header(args.right)
    gold = fileio.read_gold(args.gold)
    if (left.count, left.dim) != (right.count, right.dim) or left.count != gold.shape[0]:
        raise DimensionMismatch(
            f"inconsistent shapes: left ({left.count}, {left.dim}), "
            f"right ({right.count}, {right.dim}), gold ({gold.shape[0]},)"
        )
    return left.dim, gold


def _fit_moments(args, dim: int) -> streaming.MomentState:
    """--fit target (default) folds left then right; --fit FILE streams that file."""
    if args.fit == "target":
        return streaming.fold(chain(fileio.iter_emb1(args.left), fileio.iter_emb1(args.right)))
    blocks, _, _ = _emb1_blocks(args.fit, None, dim)
    return streaming.fold(blocks)


def cmd_eval(args) -> int:
    dim, gold = _pair_inputs(args)
    transform = None
    if args.k is not None:
        transform = whitening.fit_from_moments(_fit_moments(args, dim), k=args.k)
    (report,) = evaluation.evaluate_blocks(
        fileio.iter_emb1(args.left), fileio.iter_emb1(args.right), gold, [transform]
    )
    if args.report == "json":
        doc = {
            "dataset": args.dataset,
            "n_pairs": report.n_pairs,
            "skipped": report.skipped,
            "k": report.dim_used,
            "spearman_rho_x100": round(report.rho_x100, 5),
        }
        line = json.dumps(doc, sort_keys=True) + "\n"
    else:
        line = (f"{args.dataset}\t{report.n_pairs}\t{report.skipped}\t"
                f"{report.dim_used}\t{report.rho_x100:.5f}\n")
    _emit([line], args.out)
    return 0


def cmd_sweep(args) -> int:
    dim, gold = _pair_inputs(args)
    transforms = evaluation.sweep_transforms(_fit_moments(args, dim), args.ks)
    reports = evaluation.evaluate_blocks(
        fileio.iter_emb1(args.left), fileio.iter_emb1(args.right), gold, transforms
    )
    done = {t.output_dim for t in transforms}
    for k in args.ks:
        if k != FULL and k not in done:
            print(f"RankDeficient: skipping k={k} (above numerical rank)", file=sys.stderr)
    rows = [f"{t.output_dim}\t{r.spearman_rho:.6f}\n" for t, r in zip(transforms, reports)]
    _emit(["k\trho\n", *rows], args.out)
    return 0


def cmd_stats(args) -> int:
    state = streaming.MomentState()
    for block in fileio.iter_emb1(args.input):
        for row in block:
            state.update(row)
    mean, cov = streaming.finalize(state)
    eig = linalg.sym_eig(cov)
    top = eig.eigenvalues[:10]
    with np.errstate(over="ignore"):
        mean_norm = np.sqrt(np.vecdot(mean, mean))
        trace = np.trace(cov)
    if not (np.isfinite(mean_norm) and np.isfinite(trace)):
        raise NonFinite("the mean's norm or the covariance trace overflows float64")
    _emit([
        f"n\t{state.count}\n",
        f"mean_norm\t{mean_norm:.12g}\n",
        f"trace\t{trace:.12g}\n",
        "top_eigenvalues\t" + " ".join(f"{v:.12g}" for v in top) + "\n",
    ], args.out)
    return 0


def _search_inputs(args):
    """(index blocks, count, dim, query blocks, query count) of --index and --query,
    whitened by --transform if given.

    Both headers are checked here; no block of either file is read yet.
    """
    t = fileio.load_transform(args.transform) if args.transform else None
    blocks, count, dim = _emb1_blocks(args.index, t, None)
    queries, m, _ = _emb1_blocks(args.query, t, dim)
    return blocks, count, dim, queries, m


def cmd_search(args) -> int:
    ids, scores = retrieval.search_blocks(*_search_inputs(args), args.top)
    rows = (
        "".join(
            f"{row}\t{rank}\t{vec_id}\t{score:.6f}\n"
            for rank, (vec_id, score) in enumerate(zip(ids[row].tolist(), scores[row].tolist()), 1)
        )
        for row in range(ids.shape[0])
    )
    _emit(rows, args.out)
    return 0


def cmd_bench(args) -> int:
    blocks, count, dim, queries, _ = _search_inputs(args)
    # float32 blocks stay float32: top_k upcasts them exactly.
    queries = np.concatenate([np.empty((0, dim), dtype=np.float32), *queries])
    index = retrieval.build_index_blocks(blocks, count, dim)
    report = retrieval.benchmark(index, queries, args.top, repetitions=args.reps)
    _emit([json.dumps(dataclasses.asdict(report), sort_keys=True) + "\n"], args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whitevec",
        description="Whitening post-processing, STS evaluation, and "
        "retrieval benchmarking for dense embedding files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a whitening transform from an EMB1 file")
    p.add_argument("--input", required=True, help="EMB1 embedding file to fit on")
    p.add_argument("--k", type=_k_flag, required=True, help="output dim or 'full'")
    p.add_argument("--eps", type=_flag(float, whitening.require_eps), default=None,
                   help="rank tolerance override")
    p.add_argument("--out", required=True, help="destination transform JSON")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("transform", help="apply a saved transform to an EMB1 file")
    p.add_argument("--input", required=True)
    p.add_argument("--transform", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dtype", choices=fileio.DTYPE_CODES, default="float64")
    p.set_defaults(func=cmd_transform)

    def add_eval_inputs(p):
        p.add_argument("--left", required=True, help="EMB1 file, left sentences")
        p.add_argument("--right", required=True, help="EMB1 file, right sentences")
        p.add_argument("--gold", required=True, help="gold scores, one per line")
        p.add_argument(
            "--fit",
            default="target",
            help="'target' = fit on the evaluation pairs; or an EMB1 file path",
        )
        p.add_argument("--out", default=None)

    p = sub.add_parser("eval", help="Spearman correlation of cosine vs gold")
    add_eval_inputs(p)
    p.add_argument(
        "--k",
        type=_k_flag,
        default=None,
        help="whitening output dim or 'full'; omit to evaluate raw embeddings",
    )
    p.add_argument("--report", choices=["json", "tsv"], default="json")
    p.add_argument("--dataset", default="dataset", help="name used in the report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="evaluate across output dimensionalities")
    add_eval_inputs(p)
    p.add_argument(
        "--ks", type=_ks_arg, required=True, help="comma-separated ks, e.g. 16,64,full"
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stats", help="streaming moment summary of an EMB1 file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stats)

    def add_search_inputs(p):
        p.add_argument("--index", required=True, help="EMB1 file to search over")
        p.add_argument("--transform", default=None, help="optional transform JSON")
        p.add_argument("--query", required=True, help="EMB1 file of queries")
        p.add_argument("--top", type=_flag(int, retrieval.require_k_results), default=10)
        p.add_argument("--out", default=None)

    p = sub.add_parser("search", help="exact top-k cosine search")
    add_search_inputs(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bench", help="throughput benchmark for exact search")
    add_search_inputs(p)
    p.add_argument("--reps", type=_flag(int, retrieval.require_repetitions), default=5)
    p.set_defaults(func=cmd_bench)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WhitevecError as e:
        print(f"{e.code}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"IOError: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"MemoryError: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
