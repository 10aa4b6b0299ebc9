"""Differential fuzzing of the moments commands, ``stats`` and ``fit``, through ``cli.run``.

Small EMB1 inputs, N in [1, 40] and d in [1, 6], float32 and float64,
scaled from 1e-300 to 1e307, with duplicate, zero and rank-deficient
rows. Each file is written straight from numpy, so the float32 cast may
leave 0 or Inf in it. Every command must exit 0 or exit 1 with one typed
``Code: message`` line on stderr; no traceback may escape, and no
warning (pyproject.toml makes every warning an error).
On exit 0, ``stats`` must report N exactly and numpy's trace of the
biased covariance to 1e-10 relative, and ``fit`` numpy's mean.
"""

import contextlib
import io
import json
import re
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whitevec import errors
from whitevec.cli import run

HEADER = struct.Struct("<4sIQIB11s")  # magic, version, count, dim, dtype code, reserved
CODES = {"float32": 0, "float64": 1}
ERROR_CODES = {cls.code for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.WhitevecError)}
# Round-off below float64's smallest normal is absolute, about 2**-1075 an
# operation; beyond it the trace is checked to 1e-10 relative.
SUBNORMAL_ULP = 2.0**-1074


@st.composite
def moment_rows(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    d = draw(st.integers(min_value=1, max_value=6))
    rank = draw(st.integers(min_value=0, max_value=d))
    exponent = draw(st.one_of(st.integers(min_value=-300, max_value=307),
                              st.integers(min_value=-20, max_value=20),  # within float32 too
                              st.sampled_from([-300, -160, -45, 38, 150, 154, 300, 307])))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    for i in draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=4)):
        x[i] = 0.0
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4)):
        x[i] = x[j]
    with np.errstate(over="ignore"):
        x = (x * 10.0**exponent).astype(draw(st.sampled_from(list(CODES))))
    return x


def write_emb1(path, x: np.ndarray) -> None:
    header = HEADER.pack(b"EMB1", 1, x.shape[0], x.shape[1], CODES[x.dtype.name], b"\x00" * 11)
    path.write_bytes(header + x.astype(x.dtype.newbyteorder("<")).tobytes())


def run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def check_exit(code: int, err: str, out) -> bool:
    """True on success; on failure, one typed error line and no output file."""
    if code == 0:
        assert out.exists()
        return True
    assert code == 1
    line = re.fullmatch(r"(\w+): [^\n]+\n", err)
    assert line and line.group(1) in ERROR_CODES, err
    assert not out.exists()
    return False


def assert_close(value: float, oracle: float, terms: int) -> None:
    assert abs(value - oracle) <= 1e-10 * abs(oracle) + 8 * terms * SUBNORMAL_ULP, (value, oracle)


@settings(max_examples=120, deadline=None)
@given(x=moment_rows())
@example(x=np.random.default_rng(0).standard_normal((7, 4)) * 1e154)
@example(x=np.full((3, 2), 1e-300))
@example(x=np.zeros((1, 1), dtype=np.float32))
def test_moments_commands_match_numpy_or_fail_typed(tmp_path_factory, x):
    work = tmp_path_factory.mktemp("moments")
    path = work / "x.emb1"
    write_emb1(path, x)
    rows = x.astype(np.float64)
    finite = bool(np.all(np.isfinite(rows)))
    n, d = rows.shape
    with np.errstate(over="ignore", invalid="ignore"):  # the oracles may overflow where whitevec fails
        mean, trace = rows.mean(axis=0), float(np.sum(rows.var(axis=0)))

    stats = work / "stats.tsv"
    code, err = run_cli(["stats", "--input", str(path), "--out", str(stats)])
    if check_exit(code, err, stats):
        assert finite
        fields = dict(line.split("\t", 1) for line in stats.read_text().splitlines())
        assert fields["n"] == str(n)
        assert_close(float(fields["trace"]), trace, n * d)
    elif not finite:
        assert err.startswith("NonFinite: ")

    fit = work / "w.json"
    code, err = run_cli(["fit", "--input", str(path), "--k", "full", "--out", str(fit)])
    if check_exit(code, err, fit):
        assert finite and n >= 2
        doc = json.loads(fit.read_text())
        assert doc["input_dim"] == d and 1 <= doc["output_dim"] <= d
        for value, oracle in zip(doc["mean"], mean):
            assert_close(value, oracle, n)
    elif not finite:
        assert err.startswith("NonFinite: ")
    elif n < 2:
        assert err.startswith("EmptyInput: ")
