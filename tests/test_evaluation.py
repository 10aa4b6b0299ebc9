import numpy as np
import pytest
import scipy.stats

from whitevec import errors, evaluation, streaming, whitening
from whitevec.evaluation import PairedDataset, cosine_similarity, spearman


def spearman_oracle(pred, gold):
    """Independent route: scipy average ranks + explicit Pearson."""
    rp = scipy.stats.rankdata(pred, method="average")
    rg = scipy.stats.rankdata(gold, method="average")
    return np.corrcoef(rp, rg)[0, 1]


class TestCosine:
    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_scaling_invariance(self):
        assert cosine_similarity(np.array([1.0, 1.0]), np.array([2.0, 2.0])) == pytest.approx(1.0, abs=1e-15)

    def test_hand_value(self):
        assert cosine_similarity(np.array([1.0, 2.0]), np.array([2.0, 1.0])) == pytest.approx(0.8, abs=1e-15)

    def test_positive_scale_invariance_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(6)
            y = rng.standard_normal(6)
            a, b = rng.uniform(0.1, 10, size=2)
            assert cosine_similarity(a * x, b * y) == pytest.approx(
                cosine_similarity(x, y), abs=1e-12
            )

    def test_zero_vector(self):
        with pytest.raises(errors.ZeroVector):
            cosine_similarity(np.zeros(3), np.ones(3))

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            cosine_similarity(np.ones(2), np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_values_or_norms_rejected(self, bad):
        with pytest.raises(errors.NonFinite):
            cosine_similarity(np.array([1.0, bad]), np.ones(2))

    def test_matches_pair_cosines_bit_exact(self):
        rng = np.random.default_rng(1)
        left = rng.standard_normal((25, 9))
        right = rng.standard_normal((25, 9))
        cosines, _ = evaluation._pair_cosines(left, right)
        for i in range(25):
            assert cosine_similarity(left[i], right[i]) == cosines[i]


class TestSpearman:
    def test_monotone_agreement(self):
        assert spearman(np.array([1.0, 2, 3, 4]), np.array([10.0, 20, 30, 40])) == 1.0

    def test_reversal(self):
        assert spearman(np.array([1.0, 2, 3, 4]), np.array([4.0, 3, 2, 1])) == -1.0

    def test_hand_value(self):
        rho = spearman(np.array([1.0, 2, 3, 4]), np.array([2.0, 1, 4, 3]))
        assert rho == pytest.approx(0.6, abs=1e-15)

    def test_self_correlation(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        assert spearman(x, x) == pytest.approx(1.0, abs=1e-15)

    def test_constant_rejected(self):
        with pytest.raises(errors.DegenerateInput):
            spearman(np.ones(5), np.arange(5.0))
        with pytest.raises(errors.DegenerateInput):
            spearman(np.arange(5.0), np.ones(5))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        assert spearman(np.exp(x), y) == spearman(x, y)
        assert spearman(x, y**3) == spearman(x, y)

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = rng.integers(5, 60)
            pred = rng.integers(0, 8, size=n).astype(np.float64)
            gold = np.round(rng.uniform(0, 5, size=n) * 4) / 4
            if np.all(pred == pred[0]) or np.all(gold == gold[0]):
                continue
            assert spearman(pred, gold) == pytest.approx(
                spearman_oracle(pred, gold), abs=1e-12
            )

    @pytest.mark.parametrize("n", [2, 3, 17, 1000, 40000])
    @pytest.mark.parametrize("levels", [1, 2, 7, None])
    def test_average_ranks_match_loop_bit_exact(self, n, levels):
        def loop_ranks(values):
            order = np.argsort(values, kind="stable")
            sorted_vals = values[order]
            ranks = np.empty(values.shape[0])
            i = 0
            while i < n:
                j = i
                while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
                    j += 1
                ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
                i = j + 1
            return ranks

        rng = np.random.default_rng(n)
        if levels is None:
            values = rng.standard_normal(n)
        else:
            values = rng.integers(0, levels, size=n) * 0.2
        assert np.array_equal(evaluation._average_ranks(values), loop_ranks(values))


PAIRS = np.eye(3), np.ones((3, 3))


@pytest.mark.parametrize(
    "call",
    [lambda: spearman([1, 2, "a"], [1.0, 2.0, 3.0]),
     lambda: spearman([1.0, 2.0, 3.0], np.array([1.0, 2.0, 3.0j])),
     lambda: cosine_similarity(np.array([1.0, 1.0j]), np.array([1.0, 0.0])),
     lambda: evaluation.evaluate_blocks([PAIRS[0]], [PAIRS[1]], ["1", "2", "3"], [None]),
     lambda: PairedDataset(*PAIRS, gold=np.array([b"1", b"2", b"3"]))],
    ids=["spearman-string", "spearman-complex", "cosine-complex", "evaluate_blocks-gold",
         "PairedDataset-gold"],
)
def test_vectors_that_are_not_real_refused(call):
    with pytest.raises(errors.InvalidParameter, match="real numbers"):
        call()


class TestEvaluate:
    def make_dataset(self, rng, n=60, d=8):
        left = rng.standard_normal((n, d))
        right = rng.standard_normal((n, d))
        gold = np.array([cosine_similarity(l, r) for l, r in zip(left, right)])
        return PairedDataset(left=left, right=right, gold=gold)

    def test_gold_equals_cosine_gives_one(self):
        data = self.make_dataset(np.random.default_rng(4))
        report = evaluation.evaluate(data)
        assert report.spearman_rho == pytest.approx(1.0, abs=1e-15)
        assert report.skipped == 0
        assert report.n_pairs == 60

    def test_transform_equals_pretransformed_inputs(self):
        rng = np.random.default_rng(5)
        data = self.make_dataset(rng)
        t = whitening.fit_from_moments(evaluation.fit_corpus(data), k=4)
        direct = evaluation.evaluate(data, t)
        pre = PairedDataset(
            left=whitening.apply_batch(t, data.left),
            right=whitening.apply_batch(t, data.right),
            gold=data.gold,
        )
        assert evaluation.evaluate(pre).spearman_rho == direct.spearman_rho
        assert direct.dim_used == 4

    def test_transform_dim_mismatch(self):
        rng = np.random.default_rng(6)
        data = self.make_dataset(rng, d=8)
        t = whitening.fit(rng.standard_normal((50, 5)), k=2)
        with pytest.raises(errors.DimensionMismatch):
            evaluation.evaluate(data, t)

    def test_zero_pairs_skipped_not_scored(self):
        rng = np.random.default_rng(7)
        left = rng.standard_normal((10, 3))
        right = rng.standard_normal((10, 3))
        left[4] = 0.0
        gold = np.arange(10.0)
        report = evaluation.evaluate(PairedDataset(left=left, right=right, gold=gold))
        assert report.skipped == 1
        assert report.n_pairs == 10

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(errors.DimensionMismatch):
            PairedDataset(
                left=np.ones((3, 2)), right=np.ones((4, 2)), gold=np.ones(3)
            )

    @pytest.mark.parametrize("gold", [np.float64(1.0), np.ones((3, 1)), np.ones(4)])
    def test_gold_must_be_one_score_per_pair(self, gold):
        with pytest.raises(errors.DimensionMismatch):
            PairedDataset(left=np.ones((3, 2)), right=np.ones((3, 2)), gold=gold)

    @pytest.mark.parametrize("field", ["left", "right", "gold"])
    def test_nan_raises_where_it_is_read(self, field):
        rng = np.random.default_rng(12)
        fields = {"left": rng.standard_normal((20, 3)), "right": rng.standard_normal((20, 3)),
                  "gold": np.arange(20.0)}
        fields[field][4] = np.nan
        data = PairedDataset(**fields)  # shapes only: values are checked where they are read
        with pytest.raises(errors.NonFinite):
            evaluation.evaluate(data)
        with pytest.raises(errors.NonFinite):
            evaluation.sweep_k(data, [2])


class TestSweep:
    def make_anisotropic(self, rng, n=300, latent=2, d=6):
        z_l = rng.standard_normal((n, latent))
        z_r = rng.standard_normal((n, latent))
        gold = np.einsum("ij,ij->i", z_l, z_r) / (
            np.linalg.norm(z_l, axis=1) * np.linalg.norm(z_r, axis=1)
        )
        mix = rng.standard_normal((latent, d)) * 10
        noise_l = rng.standard_normal((n, d)) * 0.01
        noise_r = rng.standard_normal((n, d)) * 0.01
        offset = rng.standard_normal(d) * 5
        return PairedDataset(
            left=z_l @ mix + offset + noise_l,
            right=z_r @ mix + offset + noise_r,
            gold=gold,
        )

    def test_full_matches_evaluate(self):
        rng = np.random.default_rng(8)
        data = self.make_anisotropic(rng)
        results = evaluation.sweep_k(data, ["full"])
        t = whitening.fit_from_moments(evaluation.fit_corpus(data), k="full")
        assert results[0][0] == t.output_dim
        assert results[0][1] == evaluation.evaluate(data, t).spearman_rho

    def test_matches_separate_fit(self):
        rng = np.random.default_rng(9)
        data = self.make_anisotropic(rng)
        results = dict(evaluation.sweep_k(data, [2, 4]))
        for k in (2, 4):
            t = whitening.fit_from_moments(evaluation.fit_corpus(data), k=k)
            assert results[k] == evaluation.evaluate(data, t).spearman_rho

    def test_signal_concentrated_in_top_dims(self):
        rng = np.random.default_rng(10)
        data = self.make_anisotropic(rng, latent=2, d=6)
        results = dict(evaluation.sweep_k(data, [2, "full"]))
        full_k = max(results)
        assert results[2] >= results[full_k] - 0.01

    def test_fit_corpus_blocks_match_stacked_pairs(self):
        """Both sides folded in blocks give the moments and rho of one 2N x d stack."""
        rng = np.random.default_rng(12)
        n = streaming.BLOCK_ROWS + 100
        data = self.make_anisotropic(rng, n=n)
        stacked = np.vstack([data.left, data.right])
        state = evaluation.fit_corpus(data)
        mean, cov = streaming.finalize(state)
        assert state.count == 2 * n
        assert np.max(np.abs(mean - stacked.mean(axis=0))) <= 1e-10
        assert np.max(np.abs(cov - np.cov(stacked, rowvar=False, bias=True))) <= 1e-10
        rho = dict(evaluation.sweep_k(data, [2]))[2]
        ref = evaluation.evaluate(data, whitening.fit(stacked, k=2)).spearman_rho
        assert abs(rho - ref) <= 1e-9

    def test_blocked_scoring_equals_whole_arrays(self):
        rng = np.random.default_rng(13)
        data = self.make_anisotropic(rng, n=2 * streaming.BLOCK_ROWS + 3)
        t = whitening.fit_from_moments(evaluation.fit_corpus(data), k=2)
        pre = PairedDataset(
            left=whitening.apply_batch(t, data.left),
            right=whitening.apply_batch(t, data.right),
            gold=data.gold,
        )
        cosines, valid = evaluation._pair_cosines(pre.left, pre.right)
        expected = spearman(cosines[valid], data.gold[valid])
        assert evaluation.evaluate(data, t).spearman_rho == expected

    def test_fit_data_must_be_moments(self):
        rng = np.random.default_rng(14)
        data = self.make_anisotropic(rng)
        with pytest.raises(errors.InvalidParameter):
            evaluation.sweep_k(data, [2], fit_data=np.vstack([data.left, data.right]))

    @pytest.mark.parametrize("bad", ["abc", 2.5, True, np.array([1, 2]), np.array(["full"])])
    def test_non_integer_k_rejected_before_fitting(self, bad):
        rng = np.random.default_rng(15)
        data = self.make_anisotropic(rng)
        with pytest.raises(errors.InvalidParameter):
            evaluation.sweep_k(data, [bad])
        # Empty moments would fail the fit with EmptyInput; ks are checked first.
        with pytest.raises(errors.InvalidParameter):
            evaluation.sweep_k(data, [2, bad], fit_data=streaming.MomentState())

    @pytest.mark.parametrize("ks", [[0], [-2, 3], [3, "full", 0]], ids=str)
    def test_k_below_one_rejected_before_fitting(self, ks):
        """A k below 1 is DimensionMismatch, as in ``fit`` and ``truncate``, not silently dropped."""
        data = self.make_anisotropic(np.random.default_rng(16), d=4)
        with pytest.raises(errors.DimensionMismatch, match="k must be >= 1"):
            evaluation.sweep_k(data, ks)
        with pytest.raises(errors.DimensionMismatch, match="k must be >= 1"):
            evaluation.sweep_transforms(streaming.MomentState(), ks)

    def test_above_rank_skipped(self):
        rng = np.random.default_rng(11)
        data = self.make_anisotropic(rng, d=4)
        results = evaluation.sweep_k(data, [2, 99])
        assert [k for k, _ in results] == [2]


class TestEvaluateBlocks:
    def make(self, rng, n=50, d=5):
        left = rng.standard_normal((n, d)) + 2.0
        right = left + rng.standard_normal((n, d))
        return left, right, rng.uniform(0, 5, n)

    def test_many_transforms_in_one_pass_equal_separate_evaluations(self):
        rng = np.random.default_rng(20)
        left, right, gold = self.make(rng)
        data = PairedDataset(left=left, right=right, gold=gold)
        transforms = [None, *evaluation.sweep_transforms(evaluation.fit_corpus(data), [1, 3, "full"])]
        splits = [0, 7, 7, 30, 50]  # uneven blocks, one of them empty
        lefts = (left[a:b] for a, b in zip(splits, splits[1:]))
        rights = (right[a:b] for a, b in zip(splits, splits[1:]))
        reports = evaluation.evaluate_blocks(lefts, rights, gold, transforms)
        assert reports == [evaluation.evaluate(data, t) for t in transforms]
        assert [r.dim_used for r in reports] == [5, 1, 3, 5]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gold_checked_before_any_block(self, bad):
        rng = np.random.default_rng(26)
        left, right, gold = self.make(rng)
        left[3] = 0.0  # a skipped pair still has its gold checked
        gold[3] = bad

        def unread():
            raise AssertionError("a block was read before gold was checked")
            yield

        with pytest.raises(errors.NonFinite):
            evaluation.evaluate_blocks([left], [right], gold, [None])
        with pytest.raises(errors.NonFinite):
            evaluation.evaluate_blocks(unread(), unread(), gold, [None])

    @pytest.mark.parametrize("shape", [(), (50, 1)], ids=["0-D", "column"])
    def test_gold_must_be_a_vector(self, shape):
        rng = np.random.default_rng(27)
        left, right, _ = self.make(rng)
        with pytest.raises(errors.DimensionMismatch, match="gold"):
            evaluation.evaluate_blocks([left], [right], rng.uniform(0, 5, shape), [None])

    @pytest.mark.parametrize("rows", [[20, 29], [20, 31], []])
    def test_pair_count_must_match_gold(self, rows):
        rng = np.random.default_rng(21)
        left, right, gold = self.make(rng)
        with pytest.raises(errors.DimensionMismatch, match="50"):
            lefts, rights = [left[:m] for m in rows], [right[:m] for m in rows]
            evaluation.evaluate_blocks(lefts, rights, gold, [None])

    def test_blocks_checked(self):
        rng = np.random.default_rng(22)
        left, right, gold = self.make(rng, n=4)
        t = whitening.fit(rng.standard_normal((20, 3)), k=2)
        bad = {
            errors.DimensionMismatch: [
                ([left[:2], left[2:, :4]], [right[:2], right[2:, :4]], [None]),
                ([left], [right[:, :4]], [None]),
                ([left], [right], [t]),
            ],
            errors.NonFinite: [
                ([left], [np.where(right > 2.5, np.nan, right)], [None]),
                ([np.where(left > 2.5, np.inf, left)], [right], [None]),
            ],
        }
        for error, cases in bad.items():
            for lefts, rights, transforms in cases:
                with pytest.raises(error):
                    evaluation.evaluate_blocks(lefts, rights, gold, transforms)

    def test_sides_must_split_alike(self):
        rng = np.random.default_rng(25)
        left, right, gold = self.make(rng, n=5)
        unpaired, miscounted = "block pair has shapes", "rows"
        bad = [
            ([left[:3], left[3:]], [right], gold, unpaired),  # [3, 2] against [5]
            ([left, left[5:]], [right], gold, unpaired),  # an extra empty block on one side
            ([right], [left, left[5:]], gold, unpaired),
            ([left], [right], gold[:4], miscounted),  # a count that does not match gold
            ([left[:4]], [right[:4]], gold, miscounted),
        ]
        for lefts, rights, scores, message in bad:
            with pytest.raises(errors.DimensionMismatch, match=message):
                evaluation.evaluate_blocks(lefts, rights, scores, [None])

    def test_empty_dataset_still_checks_transform_width(self):
        t = whitening.fit(np.random.default_rng(23).standard_normal((20, 3)), k=2)
        empty = PairedDataset(left=np.empty((0, 5)), right=np.empty((0, 5)), gold=np.empty(0))
        with pytest.raises(errors.DimensionMismatch):
            evaluation.evaluate(empty, t)
        with pytest.raises(errors.DegenerateInput):
            evaluation.evaluate(empty)

    def test_sweep_transforms_skip_above_rank_and_keep_order(self):
        rng = np.random.default_rng(24)
        left, right, gold = self.make(rng)
        state = evaluation.fit_corpus(PairedDataset(left=left, right=right, gold=gold))
        ts = evaluation.sweep_transforms(state, ["full", 2, 99, 2])
        assert [t.output_dim for t in ts] == [5, 2, 2]
        full = whitening.fit_from_moments(state, k="full")
        assert np.array_equal(ts[1].matrix, whitening.truncate(full, 2).matrix)
