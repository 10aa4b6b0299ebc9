"""whitevec: whitening post-processing for dense embeddings, semantic
similarity evaluation, and brute-force retrieval benchmarking."""

from .errors import (
    BadMagic,
    DegenerateInput,
    DimensionMismatch,
    EmptyInput,
    InvalidParameter,
    NoConvergence,
    NonFinite,
    ParseError,
    RankDeficient,
    SchemaMismatch,
    TruncatedPayload,
    UnsupportedVersion,
    WhitevecError,
    ZeroVector,
)
from .evaluation import (
    EvalReport,
    PairedDataset,
    cosine_similarity,
    evaluate,
    evaluate_blocks,
    spearman,
    sweep_k,
    sweep_transforms,
)
from .fileio import (
    load_transform,
    read_emb1,
    read_gold,
    save_transform,
    write_emb1,
    write_emb1_blocks,
)
from .linalg import EigenDecomposition, sym_eig
from .retrieval import (
    BenchReport,
    CosineIndex,
    benchmark,
    build_index,
    build_index_blocks,
    search_blocks,
    top_k,
    top_k_batch,
)
from .streaming import MomentState, finalize, merge
from .whitening import (
    WhiteningTransform,
    apply,
    apply_batch,
    fit,
    fit_from_moments,
    truncate,
)

__version__ = "0.1.0"
