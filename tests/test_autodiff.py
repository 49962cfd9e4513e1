"""Gradient engine checks: every primitive against central differences,
randomized composite programs, record discipline, and gradients of
gradients via retained records."""

from __future__ import annotations

import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from mscn import autodiff as ad
from mscn import model, objective
from mscn.meta_loop import TrainConfig
from conftest import (assert_close_grad, central_difference, meta_kink_margin,
                      rng_for, triplet_kink_margin)


def grad_of(build, values, wrt: int):
    """Analytic gradient of build(leaves)[scalar] w.r.t. leaf `wrt`."""
    with ad.Tape() as tape:
        leaves = [tape.leaf(v) for v in values]
        out = build(leaves)
        grads = ad.backward(tape, out)
    return grads[leaves[wrt]].data


def fd_of(build, values, wrt: int, h: float = 1e-6):
    def f(x):
        vals = [np.array(v, dtype=np.float64) for v in values]
        vals[wrt] = x
        return float(build([ad.Tensor(v) for v in vals]).data)

    return central_difference(f, np.array(values[wrt], dtype=np.float64), h=h)


def check_all_grads(build, values, rel=1e-5, label=""):
    for w in range(len(values)):
        assert_close_grad(grad_of(build, values, w), fd_of(build, values, w),
                          rel=rel, label=f"{label}/leaf{w}")


class TestForwardValues:
    def test_sigmoid_midpoint_and_symmetry(self):
        assert ad.sigmoid(ad.Tensor(0.0)).item() == 0.5
        x = np.linspace(-6, 6, 25)
        s = ad.sigmoid(ad.Tensor(x)).data
        np.testing.assert_allclose(s + ad.sigmoid(ad.Tensor(-x)).data, 1.0, rtol=0, atol=1e-15)
        assert np.all((s > 0) & (s < 1))

    def test_relu(self):
        x = np.array([-2.0, 0.0, 3.5])
        np.testing.assert_array_equal(ad.relu(ad.Tensor(x)).data, [0.0, 0.0, 3.5])

    def test_clamp(self):
        x = np.array([-1.0, 0.3, 2.0])
        np.testing.assert_array_equal(ad.clamp(ad.Tensor(x), 0.0, 1.0).data, [0.0, 0.3, 1.0])

    def test_l2norm_rows(self):
        x = np.array([[3.0, 4.0], [0.0, 2.0]])
        np.testing.assert_allclose(ad.l2norm(ad.Tensor(x)).data, [5.0, 2.0])

    def test_row_max_tie_takes_lowest_index(self):
        x = ad.Tensor([[1.0, 7.0, 7.0], [2.0, 2.0, 0.0]])
        vals, idx = ad.row_max(x)
        np.testing.assert_array_equal(vals.data, [7.0, 2.0])
        np.testing.assert_array_equal(idx, [1, 0])

    def test_take_rows_gathers_with_repeats(self):
        x = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(ad.take_rows(x, np.array([2, 0, 2])).data,
                                      [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])
        np.testing.assert_array_equal(ad.take_rows(np.arange(3.0), [1, 1]).data,
                                      [1.0, 1.0])

    def test_scatter_rows_adds_as_add_at(self):
        """The adjoint of a gather sums repeated rows in index order, bit for
        bit as np.add.at does, -0.0 included, at either rank; a negative
        index counts from the end."""
        rng = rng_for(12)
        idx = np.array([3, 0, 3, 1, 3, 3])
        for shape in ((6,), (6, 5), (6, 2, 3)):
            g = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
            g[1] = -0.0
            want = np.zeros((5,) + shape[1:])
            np.add.at(want, idx, g)
            for i in (idx, idx - 5):
                got = ad._scatter_rows(ad.Tensor(g), i, 5).data
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (shape, i)

    def test_matmul_shapes(self):
        rng = rng_for(11)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        np.testing.assert_allclose(ad.matmul(ad.Tensor(a), ad.Tensor(b)).data, a @ b)

    def test_forward_same_with_and_without_recording(self):
        rng = rng_for(12)
        x = rng.normal(size=(3, 3))

        def run():
            t = ad.Tensor(x)
            return ad.reduce_sum(ad.sigmoid(ad.matmul(t, ad.transpose(t)))).data

        plain = run()
        with ad.Tape() as tape:
            t = tape.leaf(x)
            recorded = ad.reduce_sum(ad.sigmoid(ad.matmul(t, ad.transpose(t)))).data
        np.testing.assert_array_equal(plain, recorded)


class TestCopies:
    """Ops allocate only their outputs, and a transposed view changes no
    product's bits."""

    def test_transpose_is_a_view(self):
        x = rng_for(13).normal(size=(4, 3))
        assert np.shares_memory(ad.transpose(ad.Tensor(x)).data, x)
        with ad.Tape() as tape:
            t = tape.leaf(x)
            assert np.shares_memory(ad.transpose(t).data, t.data)

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((64, 32), (64, 1)), ((4096, 32), (4096, 1)), ((4096, 64), (4096, 32))])
    def test_matmul_on_transposed_view_matches_a_copy_bitwise(self, a_shape, b_shape):
        rng = rng_for(14, *a_shape, *b_shape)
        a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
        got = ad.matmul(ad.transpose(ad.Tensor(a)), ad.Tensor(b)).data
        assert got.tobytes() == (a.T.copy() @ b).tobytes()

    def test_matmul_with_own_transpose_matches_a_copy_bitwise(self):
        # numpy takes a symmetric-product kernel for x @ x.T on one buffer;
        # at this shape its bits differ from the general product's
        t = rng_for(15).normal(size=(100, 64))
        got = ad.matmul(ad.Tensor(t), ad.transpose(ad.Tensor(t))).data
        assert got.tobytes() == (t @ t.T.copy()).tobytes()

    @pytest.mark.parametrize("a_shape, b_shape, view", [
        ((4096, 1), (1, 32), None), ((1, 1), (1, 5), None),
        ((4096, 1), (1, 32), "a"), ((64, 1), (1, 32), "b")])
    def test_inner_dimension_one_matches_gemm_bitwise(self, a_shape, b_shape, view):
        # an outer product is computed by broadcasting; a zero operand makes
        # -0.0 products, which the zero accumulator of gemm turns into +0.0
        rng = rng_for(17, *a_shape, *b_shape)
        a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
        a[::3], b[:, ::2] = 0.0, -0.0
        x = ad.transpose(ad.Tensor(a.T.copy())) if view == "a" else ad.Tensor(a)
        y = ad.transpose(ad.Tensor(b.T.copy())) if view == "b" else ad.Tensor(b)
        got = ad.matmul(x, y).data
        assert got.shape == (a_shape[0], b_shape[1])
        assert got.tobytes() == (a @ b).tobytes()

    @pytest.mark.parametrize("op", [ad.relu, lambda x: ad.clamp(x, -0.5, 0.5)],
                             ids=["relu", "clamp"])
    def test_unrecorded_forward_allocates_only_its_output(self, op):
        x = ad.Tensor(rng_for(16).normal(size=1_000_000))
        tracemalloc.start()
        try:
            out = op(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * out.data.nbytes


class TestShapeAndDomainErrors:
    def test_matmul_mismatch_names_op(self):
        with pytest.raises(ad.ShapeMismatchError, match="matmul"):
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3))))

    def test_broadcast_impossible(self):
        with pytest.raises(ad.ShapeMismatchError, match="add"):
            ad.add(ad.Tensor(np.zeros(3)), ad.Tensor(np.zeros(4)))

    def test_log_domain(self):
        with pytest.raises(ValueError, match="positive"):
            ad.log(ad.Tensor([1.0, 0.0]))

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ad.div(ad.Tensor(1.0), ad.Tensor([2.0, 0.0]))

    def test_clamp_rejects_nan_and_empty_interval(self):
        with pytest.raises(ValueError, match="NaN"):
            ad.clamp(ad.Tensor([np.nan]), 0.0, 1.0)
        with pytest.raises(ValueError, match="interval"):
            ad.clamp(ad.Tensor([0.5]), 1.0, 0.0)

    def test_take_rows_needs_a_1d_integer_index(self):
        x = ad.Tensor(np.zeros((3, 2)))
        for idx in (np.array([0.0, 1.0]), np.array([[0, 1]])):
            with pytest.raises(ad.ShapeMismatchError, match="take_rows"):
                ad.take_rows(x, idx)
        with pytest.raises(ad.ShapeMismatchError, match="take_rows"):
            ad.take_rows(ad.Tensor(1.0), np.array([0]))

    def test_reshape_size_mismatch(self):
        with pytest.raises(ad.ShapeMismatchError, match="reshape"):
            ad.reshape(ad.Tensor(np.zeros(5)), (2, 3))

    def test_transpose_needs_2d(self):
        with pytest.raises(ad.ShapeMismatchError, match="transpose"):
            ad.transpose(ad.Tensor(np.zeros(3)))

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    @pytest.mark.parametrize("recorded", [False, True])
    def test_binary_mismatch_names_op_and_shapes(self, op, recorded):
        a, b = np.ones((2, 3)), np.ones((4, 1, 2))
        message = rf"^{op}: shapes \(2, 3\) and \(4, 1, 2\) do not conform$"
        if not recorded:
            with pytest.raises(ad.ShapeMismatchError, match=message):
                getattr(ad, op)(ad.Tensor(a), ad.Tensor(b))
            return
        with ad.Tape() as tape:
            x = tape.leaf(a)
            before = len(tape.nodes)
            with pytest.raises(ad.ShapeMismatchError, match=message):
                getattr(ad, op)(x, ad.Tensor(b))
            assert len(tape.nodes) == before

    @pytest.mark.parametrize("shape", [(4, 2), (3, 3), (-1, 3), (2, -1), (-2, -3)])
    def test_reshape_needs_the_exact_size(self, shape):
        with pytest.raises(ad.ShapeMismatchError, match="reshape"):
            ad.reshape(ad.Tensor(np.zeros(6)), shape)

    def test_broadcast_to_rejects_what_numpy_broadcasting_does(self):
        x = ad.Tensor(np.ones((3, 1)))
        np.testing.assert_array_equal(ad.broadcast_to(x, (2, 3, 4)).data,
                                      np.ones((2, 3, 4)))
        for shape in [(3, 4, 2), (1, 3), (3,), (-1, 2)]:
            with pytest.raises(ad.ShapeMismatchError, match="broadcast_to"):
                ad.broadcast_to(x, shape)


class TestTensorWrapping:
    def test_float64_array_is_kept_without_a_copy(self):
        x = rng_for(18).normal(size=(5, 4))
        t = ad.Tensor(x)
        assert t.data is x and np.shares_memory(t.data, x)
        view = x.T
        assert ad.Tensor(view).data is view

    @pytest.mark.parametrize("value", [3, [1, 2, 3], [[1.5], [2.0]],
                                       np.arange(4), np.ones(3, dtype=np.float32),
                                       np.ones(2, dtype=bool)])
    def test_other_values_become_float64_arrays(self, value):
        t = ad.Tensor(value)
        assert type(t.data) is np.ndarray and t.data.dtype == np.float64
        np.testing.assert_array_equal(t.data, np.asarray(value, dtype=np.float64))


class TestRecordDiscipline:
    def test_backward_requires_scalar(self):
        with ad.Tape() as tape:
            x = tape.leaf(np.ones(3))
            y = ad.square(x)
            with pytest.raises(ad.RecordError, match="scalar"):
                ad.backward(tape, y)

    def test_backward_on_empty_record(self):
        tape = ad.Tape()
        with pytest.raises(ad.RecordError, match="empty"):
            ad.backward(tape, ad.Tensor(1.0))

    def test_backward_foreign_output(self):
        with ad.Tape() as tape:
            tape.leaf(1.0)
            with pytest.raises(ad.RecordError, match="not recorded"):
                ad.backward(tape, ad.Tensor(2.0))

    def test_mixing_records_rejected(self):
        with ad.Tape() as t1:
            a = t1.leaf(1.0)
            ad.square(a)
        with ad.Tape() as t2:
            b = t2.leaf(2.0)
            with pytest.raises(ad.RecordError, match="different record"):
                ad.add(a, b)

    def test_retaining_requires_retain_flag(self):
        with ad.Tape() as tape:
            x = tape.leaf(2.0)
            y = ad.square(x)
            with pytest.raises(ad.RecordError, match="retain"):
                ad.backward_retaining(tape, y)

    def test_unused_leaf_gets_zeros(self):
        with ad.Tape() as tape:
            x = tape.leaf(np.ones((2, 2)))
            z = tape.leaf(np.ones(3))
            out = ad.reduce_sum(ad.square(x))
            grads = ad.backward(tape, out)
        np.testing.assert_array_equal(grads[z].data, np.zeros(3))
        np.testing.assert_array_equal(grads[x].data, 2 * np.ones((2, 2)))

    def test_fanout_accumulates_like_split_leaves(self):
        """A leaf used twice gets the sum of both paths' contributions."""
        v = 1.7

        with ad.Tape() as tape:
            x = tape.leaf(v)
            out = ad.mul(x, x)
            g_shared = ad.backward(tape, out)[x].item()

        with ad.Tape() as tape:
            a, b = tape.leaf(v), tape.leaf(v)
            out = ad.mul(a, b)
            grads = ad.backward(tape, out)
            g_split = grads[a].item() + grads[b].item()

        assert g_shared == g_split == pytest.approx(2 * v, rel=1e-15)

    def test_gradients_are_plain_values_after_backward(self):
        with ad.Tape() as tape:
            x = tape.leaf(3.0)
            out = ad.square(x)
            g = ad.backward(tape, out)[x]
        assert g.node is None


class TestPrimitiveGradients:
    """Central-difference checks per primitive, seeded random loops."""

    def test_elementwise_binary(self):
        for trial in range(20):
            rng = rng_for(100, trial)
            shapes = [(3,), (2, 3), (1, 3), (2, 1), ()]
            sa, sb = rng.choice(len(shapes), size=2)
            a = rng.normal(size=shapes[sa])
            b = rng.normal(size=shapes[sb]) + 2.0  # keep denominators away from 0
            for op in (ad.add, ad.sub, ad.mul, ad.div):
                check_all_grads(
                    lambda ls, op=op: ad.reduce_sum(op(ls[0], ls[1])),
                    [a, b], label=op.__name__)

    def test_matmul_all_rank_pairs(self):
        """(m, k) @ (k, n) with sides of 1 to 4, so gemv shapes come up too;
        matmul takes no other rank."""
        for trial in range(10):
            rng = rng_for(101, trial)
            m, k, n = rng.integers(1, 5, size=3)
            A, B = rng.normal(size=(m, k)), rng.normal(size=(k, n))
            check_all_grads(lambda ls: ad.reduce_sum(ad.matmul(ls[0], ls[1])), [A, B], label="mm22")

    def test_smooth_unaries(self):
        for trial in range(12):
            rng = rng_for(102, trial)
            x = rng.normal(size=(3, 2))
            xp = np.abs(x) + 0.3  # log domain
            check_all_grads(lambda ls: ad.reduce_sum(ad.square(ls[0])), [x], label="square")
            check_all_grads(lambda ls: ad.reduce_sum(ad.sigmoid(ls[0])), [x], label="sigmoid")
            check_all_grads(lambda ls: ad.reduce_sum(ad.log(ls[0])), [xp], label="log")
            check_all_grads(lambda ls: ad.reduce_sum(ad.scalar_mul(-1.3, ls[0])), [x], label="scalar_mul")

    def test_kinked_unaries_away_from_kinks(self):
        for trial in range(12):
            rng = rng_for(103, trial)
            x = rng.normal(size=(4,))
            x = np.where(np.abs(x) < 0.05, 0.2, x)  # step 1e-6 never crosses 0
            check_all_grads(lambda ls: ad.reduce_sum(ad.relu(ls[0])), [x], label="relu")
            y = rng.uniform(0.1, 0.9, size=4)
            y = np.where(np.abs(y - 0.25) < 0.05, 0.4, y)
            y = np.where(np.abs(y - 0.75) < 0.05, 0.6, y)
            check_all_grads(lambda ls: ad.reduce_sum(ad.clamp(ls[0], 0.25, 0.75)), [y], label="clamp")

    def test_subgradient_conventions_at_kinks(self):
        """At the hinge point the chosen subgradient is 0; clamp rails pass none."""
        with ad.Tape() as tape:
            x = tape.leaf(np.array([0.0, -1.0, 1.0]))
            g = ad.backward(tape, ad.reduce_sum(ad.relu(x)))[x].data
        np.testing.assert_array_equal(g, [0.0, 0.0, 1.0])
        with ad.Tape() as tape:
            x = tape.leaf(np.array([0.0, 0.5, 1.0]))
            g = ad.backward(tape, ad.reduce_sum(ad.clamp(x, 0.0, 1.0)))[x].data
        np.testing.assert_array_equal(g, [0.0, 1.0, 0.0])

    def test_l2norm(self):
        for trial in range(12):
            rng = rng_for(104, trial)
            x = rng.normal(size=(3, 4))
            x[np.linalg.norm(x, axis=-1) < 0.5] += 1.0
            check_all_grads(lambda ls: ad.reduce_sum(ad.l2norm(ls[0])), [x], label="l2norm2d")
            v = rng.normal(size=5)
            if np.linalg.norm(v) < 0.5:
                v += 1.0
            check_all_grads(lambda ls: ad.l2norm(ls[0]), [v], label="l2norm1d")

    def test_row_max_gradient_routes_to_argmax(self):
        for trial in range(10):
            rng = rng_for(105, trial)
            x = rng.normal(size=(3, 4))
            # keep a clear gap so the FD step cannot flip the winner
            x[np.arange(3), rng.integers(0, 4, size=3)] += 2.0
            check_all_grads(lambda ls: ad.reduce_sum(ad.row_max(ls[0])[0]), [x], label="row_max")
            # column maxima, through a transposed view, as the triplet loss takes them
            y = rng.normal(size=(4, 3))
            y[rng.integers(0, 4, size=3), np.arange(3)] += 2.0
            check_all_grads(lambda ls: ad.reduce_sum(ad.row_max(ad.transpose(ls[0]))[0]),
                            [y], label="column max")

    def test_take_rows_and_its_scatter_adjoint(self):
        """A gather with repeated indices, and the scatter-add that is its
        gradient, each against central differences."""
        idx = np.array([3, 0, 3, 1, 3])
        for trial in range(8):
            rng = rng_for(108, trial)
            x, w = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
            check_all_grads(
                lambda ls: ad.reduce_sum(ad.mul(ad.square(ad.take_rows(ls[0], idx)), ls[1])),
                [x, w], label="take_rows")
            check_all_grads(
                lambda ls: ad.reduce_sum(ad.square(ad.take_rows(ls[0], idx))),
                [rng.normal(size=4)], label="take_rows1d")
            check_all_grads(
                lambda ls: ad.reduce_sum(ad.mul(ad.square(ad._scatter_rows(ls[0], idx, 4)),
                                                ls[1])),
                [w, x], label="scatter_rows")

    def test_reductions_and_shape_ops(self):
        for trial in range(10):
            rng = rng_for(106, trial)
            x = rng.normal(size=(2, 3, 4))
            for axis in (None, 0, 1, 2, (0, 2)):
                check_all_grads(
                    lambda ls, a=axis: ad.reduce_sum(
                        ad.square(ad.reduce_sum(ls[0], axis=a))),
                    [x], label=f"sum{axis}")
            check_all_grads(lambda ls: ad.square(ad.reduce_mean(ls[0])), [x], label="mean")
            m = rng.normal(size=(3, 2))
            check_all_grads(lambda ls: ad.reduce_sum(ad.square(ad.transpose(ls[0]))), [m], label="T")
            check_all_grads(lambda ls: ad.reduce_sum(ad.square(ad.reshape(ls[0], (6,)))), [m], label="reshape")
            check_all_grads(
                lambda ls: ad.reduce_sum(ad.square(ad.broadcast_to(ls[0], (4, 3, 2)))),
                [m], label="bcast")

    def test_lazy_broadcast_gradients(self):
        """Operands are broadcast lazily and their gradients summed back
        down: a bias add, and an all-pairs difference (n,1,d) - (1,m,d)."""
        for trial in range(8):
            rng = rng_for(107, trial)
            x, bias = rng.normal(size=(4, 3)), rng.normal(size=3)
            check_all_grads(lambda ls: ad.reduce_sum(ad.square(ad.add(ls[0], ls[1]))),
                            [x, bias], label="bias add")
            u, v = rng.normal(size=(3, 1, 2)), rng.normal(size=(1, 4, 2))
            check_all_grads(lambda ls: ad.reduce_sum(ad.square(ad.sub(ls[0], ls[1]))),
                            [u, v], label="all-pairs sub")
            check_all_grads(lambda ls: ad.reduce_sum(ad.square(ad.div(ls[0], ls[1]))),
                            [u, np.abs(v) + 0.5], label="all-pairs div")
            norms = np.abs(rng.normal(size=(4, 1))) + 0.5
            check_all_grads(lambda ls: ad.reduce_sum(ad.square(ad.div(ls[0], ls[1]))),
                            [x, norms], label="row-normalizing div")


def _build_random_program(rng: np.random.Generator):
    """Random composite over the smooth primitives.

    Returns a list of instructions; replaying them is a pure function of
    the leaf values, so the same program serves analytic and numeric runs.
    """
    shapes = [(), (3,), (2, 3), (3, 2), (2, 2)]
    program = [("leaf", shapes[rng.integers(len(shapes))])
               for _ in range(int(rng.integers(2, 5)))]

    def shape_of(i):
        kind = program[i][0]
        if kind == "leaf":
            return program[i][1]
        return program[i][3]  # builders store the result shape

    steps = int(rng.integers(5, 13))
    for _ in range(steps):
        n = len(program)
        choice = rng.integers(0, 10)
        i = int(rng.integers(n))
        si = shape_of(i)
        if choice == 0:  # broadcastable binary
            j = int(rng.integers(n))
            try:
                out = np.broadcast_shapes(si, shape_of(j))
            except ValueError:
                continue
            op = ("add", "sub", "mul")[rng.integers(3)]
            program.append((op, (i, j), {}, out))
        elif choice == 1:  # safe division
            j = int(rng.integers(n))
            try:
                out = np.broadcast_shapes(si, shape_of(j))
            except ValueError:
                continue
            program.append(("safe_div", (i, j), {}, out))
        elif choice == 2:
            program.append((("square", "sigmoid")[rng.integers(2)], (i,), {}, si))
        elif choice == 3:
            program.append(("safe_log", (i,), {}, si))
        elif choice == 4:  # matmul with a fresh compatible leaf
            if len(si) != 2:
                continue
            k = int(rng.integers(1, 4))
            program.append(("leaf", (si[1], k)))
            program.append(("matmul", (i, len(program) - 1), {}, (si[0], k)))
        elif choice == 5:  # a sum over one axis, or the mean of every entry
            if len(si) == 0:
                continue
            if rng.integers(2):
                program.append(("mean", (i,), {}, ()))
            else:
                axis = int(rng.integers(len(si)))
                program.append(("sum", (i,), {"axis": axis}, si[:axis] + si[axis + 1:]))
        elif choice == 6:
            if len(si) != 2:
                continue
            program.append(("transpose", (i,), {}, si[::-1]))
        elif choice == 7:
            size = int(np.prod(si, dtype=np.int64))
            program.append(("reshape", (i,), {"shape": (size,)}, (size,)))
        elif choice == 8:
            program.append(("safe_l2norm", (i,), {}, si[:-1] if si else None))
            if program[-1][3] is None:
                program.pop()
        elif choice == 9:  # a gather of rows, indices may repeat
            if len(si) == 0:
                continue
            idx = rng.integers(si[0], size=int(rng.integers(1, 5)))
            program.append(("take_rows", (i,), {"idx": idx}, (len(idx),) + si[1:]))
    return program


_PROGRAM_OPS = {
    "add": ad.add, "sub": ad.sub, "mul": ad.mul, "square": ad.square,
    "sigmoid": ad.sigmoid, "matmul": ad.matmul, "sum": ad.reduce_sum,
    "mean": ad.reduce_mean, "transpose": ad.transpose, "reshape": ad.reshape,
    "take_rows": ad.take_rows,
}


def _run_program(program, leaf_values, tape=None):
    vals = []
    leaves = []
    it = iter(leaf_values)
    for ins in program:
        if ins[0] == "leaf":
            v = next(it)
            t = tape.leaf(v) if tape is not None else ad.Tensor(v)
            leaves.append(t)
            vals.append(t)
            continue
        op, idxs, kw = ins[0], ins[1], ins[2]
        args = [vals[i] for i in idxs]
        if op == "safe_div":
            out = ad.div(args[0], ad.add(ad.square(args[1]), ad.Tensor(0.5)))
        elif op == "safe_log":
            out = ad.log(ad.add(ad.square(args[0]), ad.Tensor(0.3)))
        elif op == "safe_l2norm":
            out = ad.l2norm(ad.add(ad.square(args[0]), ad.Tensor(0.2)))
        else:
            out = _PROGRAM_OPS[op](*args, **kw)
        vals.append(out)
    final = vals[-1]
    size = int(np.prod(final.shape, dtype=np.int64))
    loss = ad.reduce_mean(ad.sigmoid(ad.reshape(final, (size,))))
    return loss, leaves


class TestCompositePrograms:
    def test_random_programs_match_central_differences(self):
        checked = 0
        for trial in range(60):
            rng = rng_for(200, trial)
            program = _build_random_program(rng)
            leaf_shapes = [ins[1] for ins in program if ins[0] == "leaf"]
            values = [rng.normal(size=s) for s in leaf_shapes]

            with ad.Tape() as tape:
                loss, leaves = _run_program(program, values, tape)
                grads = ad.backward(tape, loss)

            for w in range(len(values)):
                def f(x, w=w):
                    vals = [np.array(v) for v in values]
                    vals[w] = x
                    return float(_run_program(program, vals)[0].data)

                assert_close_grad(grads[leaves[w]].data,
                                  central_difference(f, values[w]),
                                  rel=1e-5, label=f"program{trial}")
                checked += 1
        assert checked > 100

    def test_same_seed_same_gradients_bitwise(self):
        def run():
            rng = rng_for(201)
            program = _build_random_program(rng)
            values = [rng.normal(size=ins[1]) for ins in program if ins[0] == "leaf"]
            with ad.Tape() as tape:
                loss, leaves = _run_program(program, values, tape)
                grads = ad.backward(tape, loss)
            return [grads[l].data.copy() for l in leaves]

        for a, b in zip(run(), run()):
            np.testing.assert_array_equal(a, b)

    def test_wrt_subsets_match_full_sweep_bitwise(self):
        for trial in range(60):
            rng = rng_for(202, trial)
            program = _build_random_program(rng)
            values = [rng.normal(size=ins[1]) for ins in program if ins[0] == "leaf"]
            with ad.Tape() as tape:
                loss, leaves = _run_program(program, values, tape)
                full = ad.backward(tape, loss)
                subsets = [[leaf] for leaf in leaves]
                subsets.append([leaves[i] for i in range(len(leaves)) if rng.integers(2)])
                for subset in subsets:
                    part = ad.backward(tape, loss, wrt=subset)
                    assert list(part) == subset
                    for leaf in subset:
                        np.testing.assert_array_equal(part[leaf].data, full[leaf].data)


class TestPrunedBackward:
    def test_meta_gradient_instances_match_full_sweep_bitwise(self):
        """The 50 toy instances of acceptance test 2: the pruned virtual
        step (wrt the main leaves) and meta sweep (wrt the correction
        leaves) give the same bits as sweeping every leaf both times."""
        cfg = TrainConfig(seed=7, batch_size=4, meta_batch_size=4, d_emb=4,
                          d_sim=2, branch_hidden=3, mscn_hidden=2, eval_ks=(1,))
        labels = np.array([1.0, 1.0, 0.0, 0.0])

        def meta_grads(main, meta, imgs, txts, mb_imgs, mb_txts, pruned):
            with ad.Tape(retain=True) as tape:
                main_l, meta_l = main.lift(tape), meta.lift(tape)
                main_leaves = [t for _, t in main_l.items()]
                meta_leaves = [t for _, t in meta_l.items()]
                loss = objective.triplet_loss(imgs, txts, main_l, meta_l,
                                              cfg.gamma, cfg.tau)
                g = ad.backward_retaining(tape, loss,
                                          wrt=main_leaves if pruned else None)
                virt = main_l.with_arrays(
                    [ad.sub(t, ad.scalar_mul(2e-3, g[t])) for t in main_leaves])
                mloss = objective.meta_loss(mb_imgs, mb_txts, labels, virt, meta_l)
                mg = ad.backward(tape, mloss, wrt=meta_leaves if pruned else None)
                return [mg[t].data for t in meta_leaves], virt

        checked = 0
        for instance in itertools.count():
            rng = rng_for(4200, instance)
            main = model.MainNetParams.init(4, 3, cfg.d_emb, cfg.d_sim, rng, hidden=3)
            meta = model.MetaNetParams.init(cfg.d_sim, rng, hidden=cfg.mscn_hidden)
            imgs, txts = rng.normal(size=(4, 4)), rng.normal(size=(4, 3))
            mb_imgs, mb_txts = rng.normal(size=(4, 4)), rng.normal(size=(4, 3))
            if triplet_kink_margin(imgs, txts, main, meta, cfg.gamma, cfg.tau) < 1e-3:
                continue
            data = (main, meta, imgs, txts, mb_imgs, mb_txts)
            pruned, virt = meta_grads(*data, pruned=True)
            virt_np = main.with_arrays([t.data for _, t in virt.items()])
            if meta_kink_margin(mb_imgs, mb_txts, virt_np, meta) < 1e-3:
                continue
            full, _ = meta_grads(*data, pruned=False)
            for a, b in zip(pruned, full):
                np.testing.assert_array_equal(a, b)
            checked += 1
            if checked == 50:
                break

    def test_virtual_update_sweeps_less_of_the_record(self):
        """Pruning skips the correction-head gradients the virtual step
        never uses, so it records fewer nodes than a full sweep."""
        rng = rng_for(203)
        main = model.MainNetParams.init(4, 3, 4, 2, rng, hidden=3)
        meta = model.MetaNetParams.init(2, rng, hidden=2)
        imgs, txts = rng.normal(size=(4, 4)), rng.normal(size=(4, 3))
        sizes = []
        for wrt_main in (True, False):
            with ad.Tape(retain=True) as tape:
                main_l, meta_l = main.lift(tape), meta.lift(tape)
                loss = objective.triplet_loss(imgs, txts, main_l, meta_l, 0.2, 2.0)
                before = len(tape.nodes)
                ad.backward_retaining(
                    tape, loss, wrt=[t for _, t in main_l.items()] if wrt_main else None)
                sizes.append(len(tape.nodes) - before)
        assert sizes[0] < sizes[1]

    def test_wrt_must_be_leaves_of_this_record(self):
        with ad.Tape() as other:
            foreign = other.leaf(1.0)
        with ad.Tape() as tape:
            x = tape.leaf(2.0)
            y = ad.square(x)
            out = ad.mul(y, x)
            with pytest.raises(ad.RecordError, match="wrt"):
                ad.backward(tape, out, wrt=[foreign])
            with pytest.raises(ad.RecordError, match="wrt"):
                ad.backward(tape, out, wrt=[y])
            with pytest.raises(ad.RecordError, match="wrt"):
                ad.backward(tape, out, wrt=[ad.Tensor(2.0)])


class TestRetainedRecords:
    def test_virtual_step_toy(self):
        """f(w, t) = t * w^2; one explicit descent step on w, differentiated
        through w.r.t. t.

        w_hat = w - a * 2tw; at w=1, t=1, a=0.1: w_hat = 0.8 and
        d(w_hat^2)/dt = 2 * 0.8 * (-0.2) = -0.32.
        """
        with ad.Tape(retain=True) as tape:
            w = tape.leaf(1.0)
            t = tape.leaf(1.0)
            f = ad.mul(t, ad.square(w))
            gw = ad.backward_retaining(tape, f)[w]
            w_hat = ad.sub(w, ad.scalar_mul(0.1, gw))
            outer = ad.square(w_hat)
            gt = ad.backward(tape, outer)[t]
        assert w_hat.item() == pytest.approx(0.8, rel=1e-15)
        assert gt.item() == pytest.approx(-0.32, rel=1e-12)

    def test_second_and_third_derivatives_of_cubic(self):
        """x^3: retained backward twice gives 6x, a plain one gives 6."""
        x0 = 1.3
        with ad.Tape(retain=True) as tape:
            x = tape.leaf(x0)
            y = ad.mul(x, ad.square(x))
            g1 = ad.backward_retaining(tape, y)[x]
            g2 = ad.backward_retaining(tape, g1)[x]
            g3 = ad.backward(tape, g2)[x]
        assert g1.item() == pytest.approx(3 * x0 ** 2, rel=1e-12)
        assert g2.item() == pytest.approx(6 * x0, rel=1e-12)
        assert g3.item() == pytest.approx(6.0, rel=1e-12)

    def test_second_order_matches_fd_of_analytic_gradient(self):
        """d/dx [dL/dx] for L = sum(sigmoid(x @ v)) against FD of the
        analytic first gradient."""
        rng = rng_for(300)
        x0 = rng.normal(size=(1, 4))
        v = rng.normal(size=(4, 1))

        with ad.Tape(retain=True) as tape:
            x = tape.leaf(x0)
            loss = ad.sigmoid(ad.matmul(x, ad.Tensor(v)))
            g = ad.backward_retaining(tape, loss)[x]
            # contract the gradient with a fixed vector to get a scalar
            probe = rng.normal(size=(4, 1))
            contracted = ad.matmul(g, ad.Tensor(probe))
            hvp = ad.backward(tape, contracted)[x].data

        def g_dot_probe(xv):
            with ad.Tape() as tape2:
                xx = tape2.leaf(xv)
                loss = ad.sigmoid(ad.matmul(xx, ad.Tensor(v)))
                gg = ad.backward(tape2, loss)[xx].data
            return (gg @ probe).item()

        assert_close_grad(hvp, central_difference(g_dot_probe, x0), rel=1e-4,
                          label="hvp")

    def test_take_rows_second_order_matches_fd(self):
        """Gradients of gradients through a gather with repeated indices:
        the first sweep records the scatter-add, the second differentiates
        it back through a gather.  Checked as a Hessian-vector product
        against FD of the analytic first gradient."""
        idx = np.array([2, 0, 2, 2, 1])
        for trial in range(6):
            rng = rng_for(301, trial)
            x0, w = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
            probe = rng.normal(size=(3, 2))

            def loss(x):
                return ad.reduce_sum(ad.mul(ad.sigmoid(ad.take_rows(x, idx)), ad.Tensor(w)))

            with ad.Tape(retain=True) as tape:
                x = tape.leaf(x0)
                g = ad.backward_retaining(tape, loss(x))[x]
                hvp = ad.backward(tape, ad.reduce_sum(ad.mul(g, ad.Tensor(probe))))[x].data

            def g_dot_probe(xv):
                with ad.Tape() as tape2:
                    xx = tape2.leaf(xv)
                    gg = ad.backward(tape2, loss(xx))[xx].data
                return float(np.sum(gg * probe))

            assert_close_grad(hvp, central_difference(g_dot_probe, x0), rel=1e-5,
                              label="take_rows hvp")

    def test_retained_record_keeps_only_what_a_vjp_reads(self):
        """Outputs that no VJP reads (here of matmul and add) are freed while
        their retained record lives; square's input, which its VJP reads,
        is kept."""
        rng = rng_for(17)
        x = ad.Tensor(rng.normal(size=(4, 8)))
        with ad.Tape(retain=True) as tape:
            w = tape.leaf(rng.normal(size=(8, 8)))
            b = tape.leaf(rng.normal(size=8))
            h = ad.matmul(x, w)
            a = ad.add(h, b)
            s = ad.add(a, b)
            loss = ad.reduce_sum(ad.square(s))
            refs = {name: weakref.ref(t.data) for name, t in
                    (("matmul", h), ("add", a), ("square input", s))}
            del h, a, s
            assert refs["matmul"]() is None
            assert refs["add"]() is None
            assert refs["square input"]() is not None
            grads = ad.backward_retaining(tape, loss, wrt=[w])
            # the record still differentiates: d/dw of sum(x @ w + 2b)^2
            want = x.data.T @ (2.0 * (x.data @ w.data + 2.0 * b.data))
            np.testing.assert_allclose(grads[w].data, want, rtol=1e-12)
