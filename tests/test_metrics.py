"""Metric scores vs scalar oracles, plus the differentiable loss nodes."""

import csv
import math

import numpy as np
import pytest

from tsal import autodiff as ad
from tsal import metrics
from tsal.errors import (
    DegenerateMapError,
    FormatError,
    GraphError,
    PreconditionError,
    ShapeMismatchError,
)
from tsal.cli import main
from tsal.gaze import (
    FixationTable,
    Normalization,
    write_fixations_csv,
    write_map_tsal,
)

import oracles


def fixes(*points):
    """Fixations at (x, y) points, all of one image and observer."""
    x, y = zip(*points) if points else ((), ())
    n = len(points)
    return FixationTable(("img",) * n, ("obs",) * n, range(n), x, y)


def random_map(rng, w, h):
    return rng.uniform(0.01, 1.0, size=(h, w))


class TestCC:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(70)
        m = random_map(rng, 6, 4)
        assert metrics.cc(m, m) == pytest.approx(1.0)

    def test_reflection_is_minus_one(self):
        rng = np.random.default_rng(71)
        m = rng.uniform(0.1, 0.9, size=(4, 4))
        assert metrics.cc(m, 1.0 - m) == pytest.approx(-1.0)

    def test_small_case_matches_formula(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert metrics.cc(a, b) == pytest.approx(
            oracles.cc_oracle(a, b))

    def test_symmetric(self):
        rng = np.random.default_rng(72)
        a, b = random_map(rng, 5, 5), random_map(rng, 5, 5)
        assert metrics.cc(a, b) == pytest.approx(metrics.cc(b, a))

    def test_affine_invariance(self):
        rng = np.random.default_rng(73)
        a, b = random_map(rng, 5, 5), random_map(rng, 5, 5)
        scaled = 3.0 * a + 0.5
        assert metrics.cc(scaled, b) == pytest.approx(metrics.cc(a, b))

    def test_constant_map_rejected(self):
        flat = np.full((3, 3), 0.5)
        other = np.arange(9, dtype=float).reshape(3, 3)
        with pytest.raises(DegenerateMapError):
            metrics.cc(flat, other)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            metrics.cc(np.ones((2, 2)), np.ones((2, 3)))


class TestKL:
    def test_identity_near_zero(self):
        rng = np.random.default_rng(74)
        m = random_map(rng, 6, 6)
        assert metrics.kl(m, m) < 1e-6

    def test_delta_vs_uniform_closed_form(self):
        g = np.array([[0.0, 0.0], [0.0, 1.0]])
        p = np.full((2, 2), 0.25)
        eps = 1e-7
        want = math.log(1.0 / (0.25 + eps) + eps)
        assert metrics.kl(p, g) == pytest.approx(want, abs=1e-12)

    def test_never_meaningfully_negative(self):
        rng = np.random.default_rng(75)
        for _ in range(50):
            w, h = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            p, g = random_map(rng, w, h), random_map(rng, w, h)
            assert metrics.kl(p, g) >= -1e-7 * w * h

    def test_asymmetric_in_general(self):
        rng = np.random.default_rng(76)
        p, g = random_map(rng, 5, 5), random_map(rng, 5, 5)
        assert metrics.kl(p, g) != pytest.approx(metrics.kl(g, p), abs=1e-9)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(77)
        p, g = random_map(rng, 7, 3), random_map(rng, 7, 3)
        assert metrics.kl(p, g) == pytest.approx(
            oracles.kl_oracle(p, g), abs=1e-12)

    def test_all_zero_rejected(self):
        zero = np.zeros((2, 2))
        one = np.ones((2, 2))
        with pytest.raises(DegenerateMapError):
            metrics.kl(zero, one)


def pixels(m, table):
    """Pixel indices (rows, cols) of a fixation table on map m, the form
    the per-fixation metrics take."""
    return metrics.fixation_pixels(table, m.shape[1], m.shape[0])


NO_PIXELS = (np.zeros(0, np.intp), np.zeros(0, np.intp))


class TestNSS:
    def test_two_level_map_gives_exactly_one(self):
        # values {0, 2} half and half: mean 1, std 1, z at the 2-pixel is 1
        m = np.array([[0.0, 2.0]])
        assert metrics.nss(m, pixels(m, fixes((1, 0)))) == \
            pytest.approx(1.0)

    def test_fixation_at_minimum_is_negative(self):
        m = np.array([[0.0, 1.0], [1.0, 1.0]])
        assert metrics.nss(m, pixels(m, fixes((0, 0)))) < 0.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(78)
        m = random_map(rng, 8, 8)
        table = fixes((1, 2), (5, 7), (3, 3))
        mask = np.zeros((8, 8), dtype=bool)
        mask[2, 1] = mask[7, 5] = mask[3, 3] = True
        assert metrics.nss(m, pixels(m, table)) == pytest.approx(
            oracles.nss_oracle(m, mask))

    def test_affine_invariance(self):
        rng = np.random.default_rng(79)
        m = random_map(rng, 6, 6)
        table = fixes((2, 2), (4, 1))
        fixated = pixels(m, table)
        shifted = 2.5 * m + 1.0
        assert metrics.nss(shifted, fixated) == pytest.approx(
            metrics.nss(m, fixated))

    def test_constant_map_rejected(self):
        with pytest.raises(DegenerateMapError):
            metrics.nss(np.full((3, 3), 0.7), (np.array([1]), np.array([1])))

    def test_empty_fixations_rejected(self):
        with pytest.raises(PreconditionError):
            metrics.nss(np.eye(3), NO_PIXELS)


def random_case(rng):
    """A map with many tied values (every other case) or none, a
    fixation set with repeated pixels and a negative set."""
    w, h = int(rng.integers(3, 12)), int(rng.integers(3, 12))
    if rng.integers(2):
        v = rng.integers(0, int(rng.integers(1, 5)), size=(h, w)) / 4.0
    else:
        v = rng.uniform(0.0, 1.0, size=(h, w))

    def points(count):
        return fixes(*[(int(rng.integers(0, w)), int(rng.integers(0, h)))
                       for _ in range(count)])
    return v, points(int(rng.integers(1, 8))), \
        points(int(rng.integers(1, 90)))


class TestAUCJudd:
    def test_perfect_separation(self):
        m = np.full((4, 4), 0.2)
        m[1, 2] = 1.0
        assert metrics.auc_judd(m, pixels(m, fixes((2, 1)))) == \
            pytest.approx(1.0)

    def test_constant_map_is_chance(self):
        m = np.full((4, 4), 0.3)
        assert metrics.auc_judd(m, pixels(m, fixes((1, 1)))) == \
            pytest.approx(0.5)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(80)
        for _ in range(30):
            m = random_map(rng, 6, 6)
            pts = {(int(rng.integers(0, 6)), int(rng.integers(0, 6)))
                   for _ in range(4)}
            table = fixes(*sorted(pts))
            mask = np.zeros((6, 6), dtype=bool)
            for x, y in pts:
                mask[y, x] = True
            assert metrics.auc_judd(m, pixels(m, table)) == pytest.approx(
                oracles.auc_judd_oracle(m, mask))

    def test_bit_equal_to_scalar_sweep(self):
        rng = np.random.default_rng(85)
        for _ in range(300):
            m, table, _ = random_case(rng)
            rows, cols = metrics.fixation_pixels(table, m.shape[1], m.shape[0])
            mask = np.zeros(m.shape, dtype=bool)
            mask[rows, cols] = True
            if mask.all():
                continue
            pos = m[rows, cols].tolist()
            want = oracles.roc_sweep_oracle(pos, m[~mask].tolist(), pos)
            assert metrics.auc_judd(m, (rows, cols)) == want

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(81)
        m = random_map(rng, 6, 6)
        table = fixes((1, 1), (4, 2))
        fixated = pixels(m, table)
        warped = np.exp(3.0 * m)
        assert metrics.auc_judd(warped, fixated) == pytest.approx(
            metrics.auc_judd(m, fixated))

    def test_empty_fixations_rejected(self):
        with pytest.raises(PreconditionError):
            metrics.auc_judd(np.eye(3), NO_PIXELS)


class TestSAUC:
    def test_identical_value_distributions_give_half(self):
        rng = np.random.default_rng(82)
        m = random_map(rng, 6, 6)
        table = fixes((1, 1), (3, 4))
        negs = pixels(m, fixes((1, 1), (3, 4)))  # same pixels: pure ties
        assert metrics.sauc(m, pixels(m, table), negs) == pytest.approx(0.5)

    def test_perfect_separation(self):
        m = np.full((5, 5), 0.1)
        m[2, 2] = 1.0
        negs = pixels(m, fixes((0, 0), (4, 4)))
        assert metrics.sauc(m, pixels(m, fixes((2, 2))), negs) == \
            pytest.approx(1.0)

    def test_matches_rank_statistic_oracle(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            m = random_map(rng, 7, 5)
            table = fixes(*[(int(rng.integers(0, 7)), int(rng.integers(0, 5)))
                            for _ in range(3)])
            negs = fixes(*[(int(rng.integers(0, 7)), int(rng.integers(0, 5)))
                           for _ in range(5)])
            prow, pcol = metrics.fixation_pixels(table, 7, 5)
            nrow, ncol = metrics.fixation_pixels(negs, 7, 5)
            want = oracles.mann_whitney_auc(m[prow, pcol],
                                            m[nrow, ncol])
            assert metrics.sauc(m, (prow, pcol), (nrow, ncol)) == \
                pytest.approx(want)

    def test_bit_equal_to_scalar_sweep(self):
        rng = np.random.default_rng(86)
        for _ in range(300):
            m, table, negs = random_case(rng)
            fixated = pixels(m, table)
            pos = m[fixated]
            negs = pixels(m, negs)
            if negs[0].size > 10 * pos.size:  # sauc subsamples; keep all here
                negs = tuple(a[:10 * pos.size] for a in negs)
            neg = m[negs]
            want = oracles.roc_sweep_oracle(pos.tolist(), neg.tolist(),
                                            pos.tolist() + neg.tolist())
            assert metrics.sauc(m, fixated, negs) == want

    def test_subsampling_is_seeded(self):
        rng = np.random.default_rng(84)
        m = random_map(rng, 8, 8)
        table = fixes((4, 4))
        negs = pixels(m, fixes(*[(int(rng.integers(0, 8)),
                                  int(rng.integers(0, 8)))
                                 for _ in range(40)]))  # above the 10x cap
        a = metrics.sauc(m, pixels(m, table), negs, seed=7)
        b = metrics.sauc(m, pixels(m, table), negs, seed=7)
        assert a == b

    def test_empty_negatives_rejected(self):
        with pytest.raises(PreconditionError):
            metrics.sauc(np.eye(3), (np.array([1]), np.array([1])),
                         NO_PIXELS)


class TestSIM:
    def test_identity_is_one(self):
        rng = np.random.default_rng(85)
        m = random_map(rng, 5, 5)
        assert metrics.sim(m, m) == pytest.approx(1.0)

    def test_disjoint_supports_is_zero(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [0.0, 1.0]])
        assert metrics.sim(a, b) == 0.0

    def test_uniform_vs_delta_closed_form(self):
        n = 16
        uniform = np.full((4, 4), 1.0)
        delta = np.zeros((4, 4))
        delta[2, 1] = 1.0
        assert metrics.sim(uniform, delta) == pytest.approx(1.0 / n)

    def test_symmetric_and_matches_oracle(self):
        rng = np.random.default_rng(86)
        a, b = random_map(rng, 6, 3), random_map(rng, 6, 3)
        got = metrics.sim(a, b)
        assert got == pytest.approx(metrics.sim(b, a))
        assert got == pytest.approx(oracles.sim_oracle(a, b))


class TestIG:
    def test_prediction_equals_baseline_is_zero(self):
        rng = np.random.default_rng(87)
        m = random_map(rng, 5, 5)
        assert metrics.ig(m, m, pixels(m, fixes((2, 2)))) == 0.0

    def test_doubled_mass_is_about_one_bit(self):
        n = 16
        baseline = np.full((4, 4), 1.0 / n)
        pred = np.full((4, 4), (1.0 - 2.0 / n) / (n - 1))
        pred[1, 1] = 2.0 / n
        got = metrics.ig(pred, baseline, pixels(pred, fixes((1, 1))))
        assert got == pytest.approx(1.0, abs=1e-4)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(88)
        p, b = random_map(rng, 8, 8), random_map(rng, 8, 8)
        table = fixes(*[(int(rng.integers(0, 8)), int(rng.integers(0, 8)))
                        for _ in range(5)])
        rows, cols = metrics.fixation_pixels(table, 8, 8)
        mask = np.zeros((8, 8), dtype=bool)
        mask[rows, cols] = True
        # oracle averages per fixated pixel; regenerate per-fixation terms
        pn = p / p.sum()
        bn = b / b.sum()
        want = np.mean([math.log2(pn[r, c] + 1e-7) - math.log2(bn[r, c] + 1e-7)
                        for r, c in zip(rows, cols)])
        assert metrics.ig(p, b, (rows, cols)) == pytest.approx(want)

    def test_empty_fixations_rejected(self):
        rng = np.random.default_rng(89)
        m = random_map(rng, 4, 4)
        with pytest.raises(PreconditionError):
            metrics.ig(m, m, NO_PIXELS)


class TestBaselines:
    def test_mean_map(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        m = metrics.mean_map([a, b])
        assert np.allclose(m, [[0.5, 0.5], [0.0, 0.0]])

    def test_mean_map_names_an_all_zero_map_by_position(self):
        maps = [np.ones((2, 2)), np.zeros((2, 2)), np.ones((2, 2))]
        with pytest.raises(DegenerateMapError, match=r"^map at index 1 of 3 "
                           r"averaged maps is all-zero$"):
            metrics.mean_map(maps)

    def test_mean_map_takes_the_rest_before_it_refuses_a_map(self):
        def maps():
            yield np.ones((2, 2))
            yield np.zeros((2, 2))
            yield np.ones((2, 2))
            raise FormatError("m3.tsal: unreadable")
        with pytest.raises(FormatError, match="^m3.tsal: unreadable$"):
            metrics.mean_map(maps())
        with pytest.raises(DegenerateMapError, match=r"^map at index 1 of 3 "
                           r"averaged maps is all-zero$"):
            metrics.mean_map(iter([np.ones((2, 2)), np.zeros((2, 2)),
                                   np.ones((2, 2))]))

    def test_mean_map_rejects_mixed_sizes(self):
        with pytest.raises(ShapeMismatchError,
                           match="^maps disagree in size: 3x2 vs 2x2$"):
            metrics.mean_map([np.ones((2, 2)), np.ones((2, 3))])


class TestLossNodes:
    def test_cc_node_matches_metric(self):
        rng = np.random.default_rng(90)
        a, b = random_map(rng, 6, 6), random_map(rng, 6, 6)
        tape = ad.Tape()
        node = metrics.cc_loss_node(tape.constant(a),
                                    tape.constant(b))
        assert float(node.data) == pytest.approx(metrics.cc(a, b))

    def test_kl_node_matches_metric(self):
        rng = np.random.default_rng(91)
        a, b = random_map(rng, 6, 6), random_map(rng, 6, 6)
        tape = ad.Tape()
        node = metrics.kl_loss_node(tape.constant(a),
                                    tape.constant(b))
        assert float(node.data) == pytest.approx(metrics.kl(a, b), abs=1e-12)

    def test_kl_gradient_near_zero_at_optimum(self):
        rng = np.random.default_rng(92)
        g = rng.uniform(0.1, 1.0, size=(5, 5))
        tape = ad.Tape()
        pred = tape.param(g.copy(), "pred")
        loss = metrics.kl_loss_node(pred, tape.constant(g))
        grads = ad.backward(tape, loss)
        assert np.abs(grads[pred.node_id]).max() < 1e-5

    def test_cc_gradient_shift_invariant(self):
        rng = np.random.default_rng(93)
        p = rng.uniform(0.1, 1.0, size=(4, 4))
        g = rng.uniform(0.1, 1.0, size=(4, 4))

        def grad_at(offset):
            tape = ad.Tape()
            pred = tape.param(p + offset, "pred")
            loss = metrics.cc_loss_node(pred, tape.constant(g))
            return ad.backward(tape, loss)[pred.node_id]
        assert np.allclose(grad_at(0.0), grad_at(0.37), atol=1e-10)

    @pytest.mark.parametrize("which", ["cc", "kl"])
    def test_gradients_match_finite_differences(self, which):
        rng = np.random.default_rng(94)
        g = rng.uniform(0.1, 1.0, size=(4, 4))
        p0 = rng.uniform(0.1, 1.0, size=(4, 4))
        builder = metrics.cc_loss_node if which == "cc" else metrics.kl_loss_node

        def f(params):
            tape = ad.Tape()
            pred = tape.param(params["p"], "p")
            return float(builder(pred, tape.constant(g)).data)

        tape = ad.Tape()
        pred = tape.param(p0, "p")
        loss = builder(pred, tape.constant(g))
        analytic = ad.backward(tape, loss)[pred.node_id]
        numeric = oracles.central_diff_grads(f, {"p": p0})["p"]
        assert oracles.rel_err(analytic, numeric).max() < 1e-4

    @pytest.mark.parametrize("which", ["cc", "kl"])
    def test_stack_matches_per_map_calls(self, which):
        rng = np.random.default_rng(95)
        p = rng.uniform(0.1, 1.0, size=(3, 4, 5))
        g = rng.uniform(0.1, 1.0, size=(3, 4, 5))
        builder = metrics.cc_loss_node if which == "cc" else metrics.kl_loss_node
        tape = ad.Tape()
        stack = builder(tape.constant(p), tape.constant(g))
        assert stack.shape == (3,)
        for k in range(3):
            one = builder(tape.constant(p[k]), tape.constant(g[k]))
            assert stack.data[k] == pytest.approx(float(one.data), rel=1e-12)

    @pytest.mark.parametrize("which", ["cc", "kl"])
    def test_stack_gradients_match_finite_differences(self, which):
        rng = np.random.default_rng(96)
        g = rng.uniform(0.1, 1.0, size=(3, 4, 4))
        p0 = rng.uniform(0.1, 1.0, size=(3, 4, 4))
        w = rng.normal(size=3)
        builder = metrics.cc_loss_node if which == "cc" else metrics.kl_loss_node

        def build(tape, pred):
            per_map = builder(pred, tape.constant(g))
            return ad.reduce_sum(ad.mul(per_map, tape.constant(w)))

        def f(params):
            tape = ad.Tape()
            return float(build(tape, tape.param(params["p"], "p")).data)

        tape = ad.Tape()
        pred = tape.param(p0, "p")
        analytic = ad.backward(tape, build(tape, pred))[pred.node_id]
        numeric = oracles.central_diff_grads(f, {"p": p0})["p"]
        assert oracles.rel_err(analytic, numeric).max() < 1e-4

    @pytest.mark.parametrize("which", ["cc", "kl", "both"])
    @pytest.mark.parametrize("shape", [(20, 64, 64), (9, 7)],
                             ids=["readme_stack", "map"])
    def test_single_node_matches_composite_oracle(self, which, shape):
        # the readme temporal stack (batch 4 of 5 slices) and one 2-D
        # map; "both" is the training loss, where the two nodes' gradient
        # terms meet on one prediction
        rng = np.random.default_rng(97)
        p0 = rng.uniform(0.01, 1.0, size=shape)
        g0 = rng.uniform(0.0, 1.0, size=shape)
        w = rng.normal(size=shape[:-2])
        results = []
        for cc, kl in ((metrics.cc_loss_node, metrics.kl_loss_node),
                       (oracles.cc_loss_composite,
                        oracles.kl_loss_composite)):
            tape = ad.Tape()
            pred, gt = tape.param(p0, "p"), tape.constant(g0)
            before = len(tape.nodes)
            terms = []
            if which != "cc":
                terms.append(ad.mul(tape.constant(1.3), kl(pred, gt)))
            if which != "kl":
                terms.append(ad.mul(tape.constant(-0.7), cc(pred, gt)))
            nodes = len(tape.nodes) - before - 2 * len(terms)
            per_map = terms[0] if len(terms) == 1 else ad.add(*terms)
            loss = ad.reduce_sum(ad.mul(per_map, tape.constant(w)))
            grad = ad.backward(tape, loss)[pred.node_id]
            results.append((nodes, per_map.data.tobytes(), grad.tobytes()))
        (nodes, *got), (_, *want) = results
        assert nodes == (2 if which == "both" else 1)
        assert got == want

    @pytest.mark.parametrize("which", ["cc", "kl"])
    def test_live_gt_rejected(self, which):
        # the node gives gt no gradient, where the composite oracle
        # would give it one
        loss_node = {"cc": metrics.cc_loss_node, "kl": metrics.kl_loss_node}
        rng = np.random.default_rng(98)
        tape = ad.Tape()
        pred = tape.param(rng.uniform(0.1, 1.0, size=(4, 4)), "p")
        gt = ad.mul(tape.param(rng.uniform(0.1, 1.0, size=(4, 4)), "g"),
                    tape.constant(2.0))
        with pytest.raises(GraphError, match="gt must not depend"):
            loss_node[which](pred, gt)

    def test_degenerate_inputs_rejected(self):
        tape = ad.Tape()
        flat = tape.constant(np.full((3, 3), 0.5))
        varied = tape.constant(np.eye(3) + 0.1)
        with pytest.raises(DegenerateMapError):
            metrics.cc_loss_node(flat, varied)
        zero = tape.constant(np.zeros((3, 3)))
        with pytest.raises(DegenerateMapError):
            metrics.kl_loss_node(zero, varied)
        # one bad map in a stack is enough
        with pytest.raises(DegenerateMapError):
            metrics.cc_loss_node(tape.constant(np.stack([varied.data, flat.data])),
                                 tape.constant(np.stack([varied.data] * 2)))
        with pytest.raises(DegenerateMapError):
            metrics.kl_loss_node(tape.constant(np.stack([varied.data] * 2)),
                                 tape.constant(np.stack([zero.data, varied.data])))


def write_eval_tree(root, rng, n_images=3, w=8, h=6, observers=1,
                    fixations_per_view=3, ghosts=0, shuffle=False):
    """Prediction and ground-truth map directories (root/pred,
    root/gt) for images img0.., and root/fixations.csv: each observer
    sees each image ``fixations_per_view`` times, ``ghosts`` more images
    have fixations but no maps, and ``shuffle`` interleaves the rows.
    Returns the fixation table."""
    rows = []
    for i in range(n_images + ghosts):
        image_id = f"img{i}" if i < n_images else f"ghost{i}"
        for d in ("pred", "gt") if i < n_images else ():
            v = rng.uniform(0.01, 1.0, size=(h, w))
            write_map_tsal(root / d / f"{image_id}.tsal", v / v.sum(),
                           Normalization.SUM_TO_ONE)
        for o in range(observers):
            for k in range(fixations_per_view):
                rows.append((image_id, f"obs{o}", k,
                             float(rng.uniform(0, w)),
                             float(rng.uniform(0, h))))
    if shuffle:
        rows = [rows[i] for i in rng.permutation(len(rows))]
    table = FixationTable(*zip(*rows))
    write_fixations_csv(root / "fixations.csv", table)
    return table


def run_eval(root, pred="pred", *argv, gt="gt") -> int:
    return main(["eval", "--pred", str(root / pred), "--gt", str(root / gt),
                 "--fixations", str(root / "fixations.csv"),
                 "--out", str(root / "metrics.csv"), *map(str, argv)])


def read_metrics_csv(path):
    """The rows of a metric CSV, header included, as ``csv.reader`` reads
    them, with every score converted back to a float."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return [header, *([row[0], *map(float, row[1:])] for row in rows)]


def metric_rows(image_ids, rows):
    """What a metric CSV holds for per-image metric dicts: the header, a row
    per image and the mean row, in ``read_metrics_csv``'s form."""
    columns = metrics.METRIC_COLUMNS
    means = [sum(r[c] for r in rows) / len(rows) for c in columns]
    return [["image_id", *columns],
            *([i, *(r[c] for c in columns)] for i, r in zip(image_ids, rows)),
            ["mean", *means]]


class TestBatchEvaluation:
    """``tsal eval`` over map directories, and ``metrics.fixation_sets``."""

    def test_self_evaluation(self, tmp_path):
        rng = np.random.default_rng(95)
        write_eval_tree(tmp_path, rng)
        assert run_eval(tmp_path, "gt") == 0
        with open(tmp_path / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))[:-1]
        assert [row["image_id"] for row in rows] == ["img0", "img1", "img2"]
        for row in rows:
            assert float(row["cc"]) == pytest.approx(1.0)
            assert float(row["kl"]) < 1e-6
            assert float(row["sim"]) == pytest.approx(1.0, abs=1e-6)

    def test_csv_rendering(self, tmp_path):
        rng = np.random.default_rng(96)
        write_eval_tree(tmp_path, rng)
        assert run_eval(tmp_path) == 0
        lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "image_id,cc,kl,nss,auc_judd,sauc,sim,ig"
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].startswith("mean,")

    def test_mismatched_directories_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(97)
        write_eval_tree(tmp_path, rng)
        write_map_tsal(tmp_path / "pred" / "extra.tsal", np.ones((2, 2)))
        assert run_eval(tmp_path) == 2
        assert capsys.readouterr().err == (
            "tsal: PreconditionError: prediction/ground-truth directories "
            "disagree (only in pred: ['extra.tsal'], only in gt: [])\n")

    def test_ids_with_a_comma_or_a_quote_read_back(self, tmp_path):
        ids = ["a,b", 'c"d', "e"]
        rng = np.random.default_rng(102)
        maps = rng.uniform(0.01, 1.0, size=(2, 3, 6, 8))
        maps = maps.astype(np.float32).astype(np.float64)  # as stored
        for d, stack in zip(("pred", "gt"), maps):
            for image_id, m in zip(ids, stack):
                write_map_tsal(tmp_path / d / f"{image_id}.tsal", m)
        table = FixationTable(
            [i for i in ids for _ in range(3)], ["obs0"] * 9, [0, 1, 2] * 3,
            rng.uniform(0, 8, size=9), rng.uniform(0, 6, size=9))
        write_fixations_csv(tmp_path / "fixations.csv", table)
        assert run_eval(tmp_path) == 0
        with open(tmp_path / "metrics.csv", newline="") as fh:
            assert [len(row) for row in csv.reader(fh)] == [8] * 5
        # the ids in sorted order, as eval lists them
        assert sorted(ids) == ids
        baseline = metrics.mean_map(maps[1])
        want = [metrics.evaluate_pair(pred, truth, *sets, baseline)
                for pred, truth, sets in zip(
                    *maps, metrics.fixation_sets(ids, table, 8, 6))]
        assert read_metrics_csv(tmp_path / "metrics.csv") == metric_rows(
            ids, want)

    @pytest.mark.parametrize("missing", ["pred", "gt"])
    def test_missing_map_directory_is_named(self, tmp_path, capsys,
                                            missing):
        write_eval_tree(tmp_path, np.random.default_rng(103))
        dirs = {"pred": "pred", "gt": "gt", missing: "nope"}
        assert run_eval(tmp_path, dirs["pred"], gt=dirs["gt"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("tsal: PreconditionError: no .tsal files "
                                f"in {tmp_path / 'nope'}\n")
        assert not (tmp_path / "metrics.csv").exists()

    def test_missing_fixations_rejected(self):
        """``fixation_sets`` refuses before it returns, not at the first
        pair."""
        kept = FixationTable(("img0", "img2"), ("obs0",) * 2, range(2),
                             (1.0, 2.0), (1.0, 3.0))
        with pytest.raises(PreconditionError,
                           match="^no fixations for image 'img1'$"):
            metrics.fixation_sets(["img0", "img1", "img2"], kept, 8, 6)
        with pytest.raises(PreconditionError,
                           match=r"^fixation at \(2.0, 3.0\) outside 8x3 "):
            metrics.fixation_sets(["img0", "img2"], kept, 8, 3)

    def test_a_single_image_has_no_negatives(self, tmp_path, capsys):
        write_eval_tree(tmp_path, np.random.default_rng(104), n_images=1)
        assert run_eval(tmp_path) == 2
        assert capsys.readouterr().err == (
            f"tsal: PreconditionError: {tmp_path / 'fixations.csv'}: sauc "
            f"requires a non-empty negative set\n")
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pooled_negatives_match_the_per_image_loop(self, tmp_path,
                                                       seed):
        rng = np.random.default_rng(500 + seed)
        table = write_eval_tree(tmp_path, rng, n_images=12, w=10, h=7,
                                observers=3, fixations_per_view=2,
                                ghosts=2, shuffle=True)
        # observers interleave, and the negatives exceed sauc's 10x cap
        assert len(set(table.observer_id[:3])) > 1
        assert len(table) - 6 > 10 * 6
        assert run_eval(tmp_path, "pred", "--seed", seed) == 0
        want = metric_rows(*oracles.evaluate_directories_oracle(
            tmp_path / "pred", tmp_path / "gt", table, seed=seed))
        assert read_metrics_csv(tmp_path / "metrics.csv") == want

    def test_fixations_are_checked_against_the_ground_truth_first(
            self, tmp_path, capsys):
        """Before any prediction is read: a wrong-size first prediction
        loses to a fixation outside the ground truth."""
        write_eval_tree(tmp_path, np.random.default_rng(100), n_images=2)
        write_map_tsal(tmp_path / "pred" / "img0.tsal", np.ones((12, 16)))
        # (10, 9) is outside the 8x6 ground truth but inside the prediction
        fixations = tmp_path / "fixations.csv"
        write_fixations_csv(fixations, FixationTable(
            ("img0", "img1"), ("obs0",) * 2, range(2), (10.0, 2.0),
            (9.0, 3.0)))
        assert run_eval(tmp_path) == 2
        assert capsys.readouterr().err == (
            f"tsal: PreconditionError: {fixations}: fixation at (10.0, 9.0) "
            f"outside 8x6 image\n")
        assert not (tmp_path / "metrics.csv").exists()

    def test_each_fixation_is_looked_up_a_bounded_number_of_times(
            self, tmp_path, monkeypatch):
        rng = np.random.default_rng(99)
        table = write_eval_tree(tmp_path, rng, n_images=12, observers=2)
        looked_up = []
        lookup = metrics.fixation_pixels

        def counted(fixations, width, height):
            looked_up.append(len(fixations))
            return lookup(fixations, width, height)

        monkeypatch.setattr(metrics, "fixation_pixels", counted)
        assert run_eval(tmp_path) == 0
        # one lookup of every row; the metrics take its pixels
        assert looked_up == [len(table)]