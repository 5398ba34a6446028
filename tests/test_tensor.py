import inspect
import threading
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from attndistill import tensor as T
from attndistill.tensor import ShapeMismatch, Tensor, TensorError

from oracles import (fd_gradient, max_rel_err, naive_avgpool, naive_conv2d,
                     naive_conv2d_input_grad, naive_instance_norm, naive_linear)


def t64(a, grad=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=grad)


def _away_from_kinks(x, margin=0.1):
    return np.where(np.abs(x) < margin, x + 0.3 * np.sign(x + 1e-12), x)


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_ones_kernel_counts_padding():
    x = t64(np.ones((1, 1, 3, 3)))
    w = t64(np.ones((1, 1, 3, 3)))
    y = T.conv2d(x, w).data[0, 0]
    assert y[1, 1] == 9.0
    for corner in (y[0, 0], y[0, 2], y[2, 0], y[2, 2]):
        assert corner == 4.0
    for edge in (y[0, 1], y[1, 0], y[1, 2], y[2, 1]):
        assert edge == 6.0


def test_conv2d_matches_naive_loops():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 3, 5, 5))
    w = rng.normal(size=(4, 3, 3, 3))
    got = T.conv2d(t64(x), t64(w)).data
    assert max_rel_err(got, naive_conv2d(x, w)) < 1e-6


def test_conv2d_channel_mismatch_raises():
    with pytest.raises(ShapeMismatch):
        T.conv2d(t64(np.zeros((1, 2, 4, 4))), t64(np.zeros((1, 3, 3, 3))))


def test_conv2d_rejects_non_3x3_kernel():
    with pytest.raises(ShapeMismatch):
        T.conv2d(t64(np.zeros((1, 1, 4, 4))), t64(np.zeros((1, 1, 5, 5))))


# ---------------------------------------------------------------------------
# instance_norm


def test_instance_norm_constant_plane_is_zero():
    x = t64(np.full((2, 3, 4, 4), 7.25))
    y = T.instance_norm(x, t64(np.ones(3)), t64(np.zeros(3))).data
    assert np.allclose(y, 0.0)


def test_instance_norm_two_values():
    x = t64(np.array([1.0, 3.0, 1.0, 3.0]).reshape(1, 1, 2, 2))
    y = T.instance_norm(x, t64(np.ones(1)), t64(np.zeros(1)), eps=1e-14).data
    assert np.allclose(y.ravel(), [-1.0, 1.0, -1.0, 1.0])


def test_instance_norm_zero_gamma_passes_beta():
    rng = np.random.default_rng(3)
    x = t64(rng.normal(size=(2, 2, 3, 3)))
    y = T.instance_norm(x, t64(np.zeros(2)), t64(np.full(2, 5.0))).data
    assert np.allclose(y, 5.0)


def test_instance_norm_cancels_per_channel_offset():
    # why conv2d carries no bias: a per-channel constant never reaches the output
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3, 4, 4))
    offset = np.array([1.5, -2.0, 0.25])[None, :, None, None]
    gamma, beta = t64(rng.normal(size=3)), t64(rng.normal(size=3))
    y = T.instance_norm(t64(x), gamma, beta).data
    y_offset = T.instance_norm(t64(x + offset), gamma, beta).data
    assert np.allclose(y_offset, y, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# relu


def test_relu_values():
    y = T.relu(t64([-1.0, 0.0, 2.0])).data
    assert np.array_equal(y, [0.0, 0.0, 2.0])


def test_relu_all_negative_zero_grad():
    x = t64(-np.arange(1.0, 5.0), grad=True)
    y = T.relu(x)
    assert np.all(y.data == 0.0)
    T.backward(T.sum_all(y))
    assert np.all(x.grad == 0.0)


def test_relu_passes_upstream_gradient():
    x = t64([3.0], grad=True)
    T.backward(T.scale(T.sum_all(T.relu(x)), 2.5))
    assert x.grad[0] == 2.5


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=3, max_side=5),
                  elements=st.floats(-10, 10)))
def test_relu_is_max_with_zero(a):
    assert np.array_equal(T.relu(Tensor(a)).data, np.maximum(a, 0))


# ---------------------------------------------------------------------------
# avgpool


def test_avgpool_fixed_divisor_on_ones():
    y = T.avgpool(t64(np.ones((1, 1, 4, 4)))).data[0, 0]
    assert np.isclose(y[0, 0], 4 / 9)
    assert np.isclose(y[0, 1], 6 / 9)
    assert np.isclose(y[1, 1], 1.0)


def test_avgpool_zeros():
    assert np.all(T.avgpool(t64(np.zeros((2, 3, 6, 6)))).data == 0.0)


def test_avgpool_matches_naive_loops():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 1, 6, 6))
    assert max_rel_err(T.avgpool(t64(x)).data, naive_avgpool(x)) < 1e-6


def test_avgpool_odd_size_ceil():
    y = T.avgpool(t64(np.zeros((1, 1, 5, 7))))
    assert y.data.shape == (1, 1, 3, 4)


# ---------------------------------------------------------------------------
# conv2d, avgpool and instance_norm on randomized shapes


def _check_adjoint(fwd, grad, probe, g, what):
    """<fwd(probe), g> == <probe, grad> for a linear ``fwd`` whose backward
    gave ``grad`` from upstream ``g``; ``probe`` is independent of both."""
    lhs = float(np.sum(fwd(probe) * g))
    rhs = float(np.sum(probe * grad))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0), what


def test_layer_ops_match_naive_loops_on_random_shapes():
    """Every H and W from 2 to 9 (odd sizes exercise the last row and column
    of the separable pool), up to 16 channels in and out, batches above 1.
    Each backward is checked against its forward through the adjoint
    identity at a fresh random probe."""
    rng = np.random.default_rng(2310)
    for h in range(2, 10):
        w = 11 - h
        n = int(rng.integers(2, 4))
        cin = 16 if h == 9 else int(rng.integers(1, 17))
        cout = 16 if h == 2 else int(rng.integers(1, 17))
        x = rng.normal(size=(n, cin, h, w))
        wt = rng.normal(size=(cout, cin, 3, 3))
        gamma, beta = rng.normal(size=cin), rng.normal(size=cin)
        shape = (n, cin, h, w, cout)

        xt, wtt = t64(x, grad=True), t64(wt, grad=True)
        y = T.conv2d(xt, wtt)
        assert max_rel_err(y.data, naive_conv2d(x, wt)) < 1e-6, shape
        g = rng.normal(size=y.data.shape)
        T.backward(T.sum_all(T.mul(y, t64(g))))
        _check_adjoint(lambda v: T.conv2d(t64(v), t64(wt)).data, xt.grad,
                       rng.normal(size=x.shape), g, ("conv2d dx", shape))
        _check_adjoint(lambda v: T.conv2d(t64(x), t64(v)).data, wtt.grad,
                       rng.normal(size=wt.shape), g, ("conv2d dw", shape))

        xt = t64(x, grad=True)
        y = T.avgpool(xt)
        assert max_rel_err(y.data, naive_avgpool(x)) < 1e-6, shape
        g = rng.normal(size=y.data.shape)
        T.backward(T.sum_all(T.mul(y, t64(g))))
        _check_adjoint(lambda v: T.avgpool(t64(v)).data, xt.grad,
                       rng.normal(size=x.shape), g, ("avgpool dx", shape))

        xs = 3.0 * x + 1.0  # planes with a nonzero mean and a non-unit spread
        y = T.instance_norm(t64(xs), t64(gamma), t64(beta))
        assert max_rel_err(y.data, naive_instance_norm(xs, gamma, beta)) < 1e-6, shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_grad", [False, True])
@pytest.mark.parametrize("budget", [2 * 3 * 9 * 5 * 4, 2 * 4 * 5 * 4, 1])
def test_sample_groups_match_one_group_bit_for_bit(monkeypatch, dtype, weight_grad, budget):
    """5 samples under a scratch budget that splits them unevenly: conv2d
    columns in groups of 2, 2, 1 (budget 1080); instance_norm's dX term in
    groups of 2, 2, 1 with conv2d one sample at a time (budget 160); every op
    one sample at a time (budget 1)."""
    rng = np.random.default_rng(515)
    x = rng.normal(size=(5, 3, 5, 4))
    wt = rng.normal(size=(4, 3, 3, 3))
    gamma, beta = rng.normal(size=4) + 1.5, rng.normal(size=4)
    g = rng.normal(size=(5, 4, 5, 4))

    def run():
        xt = Tensor(x.astype(dtype), requires_grad=True)
        wtt = Tensor(wt.astype(dtype), requires_grad=weight_grad)
        conv = T.conv2d(xt, wtt)
        y = T.instance_norm(conv, Tensor(gamma.astype(dtype)), Tensor(beta.astype(dtype)))
        T.backward(T.add(T.sum_all(T.mul(conv, Tensor(g.astype(dtype)))),
                         T.sum_all(T.mul(y, Tensor(g[::-1].astype(dtype))))))
        return conv.data, y.data, xt.grad, wtt.grad

    one_group = run()
    monkeypatch.setattr(T, "GROUP_BUDGET", budget)
    grouped = run()
    for a, b in zip(one_group, grouped):
        assert (a is None and b is None) or np.array_equal(a, b)
    if dtype == np.float64:
        conv, y, dx, _ = grouped
        assert max_rel_err(conv, naive_conv2d(x, wt)) < 1e-6
        assert max_rel_err(y, naive_instance_norm(conv, gamma, beta)) < 1e-6
        xt = t64(x, grad=True)
        T.backward(T.sum_all(T.mul(T.conv2d(xt, t64(wt)), t64(g))))
        assert max_rel_err(xt.grad, naive_conv2d_input_grad(g, wt)) < 1e-6


# ---------------------------------------------------------------------------
# conv_blocks: the graph-free pass through every block


def _blocks(rng, dtype, cin, widths):
    blocks = []
    for cout in widths:
        blocks.append((Tensor(rng.normal(size=(cout, cin, 3, 3)).astype(dtype)),
                       Tensor((rng.normal(size=cout) + 1.5).astype(dtype)),
                       Tensor(rng.normal(size=cout).astype(dtype))))
        cin = cout
    return blocks


def _chained_blocks(x, blocks):
    outs = []
    for w, gamma, beta in blocks:
        x = T.avgpool(T.relu(T.instance_norm(T.conv2d(x, w), gamma, beta)))
        outs.append(x)
    return outs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(5, 1, 28, 28), (1, 3, 9, 6), (4, 3, 6, 7)])
@pytest.mark.parametrize("budget", [None, 300])
def test_conv_blocks_equal_the_chained_ops_bit_for_bit(split, monkeypatch, dtype, shape,
                                                       budget):
    """28 px pools maps of 28, 14 and 7 px, as an MNIST encoder does; a batch
    of one; odd sizes. Outside a region and inside one of 2 parts, where the
    whole pass is one hand-off (2 + 3 samples of 5); budget 300 puts one
    sample per conv column group, so a part also holds several groups."""
    if budget is not None:
        monkeypatch.setattr(T, "GROUP_BUDGET", budget)
    rng = np.random.default_rng(1808)
    x = Tensor(rng.normal(size=shape).astype(dtype))
    blocks = _blocks(rng, dtype, shape[1], (4, 5, 3))
    split(1)
    chained = _chained_blocks(x, blocks)
    for workers in (1, 2):
        parts = split(workers)
        with T.parallel(x.size):
            fused = T.conv_blocks(x, blocks)
        assert len(fused) == len(chained)
        for a, b in zip(chained, fused):
            assert a.dtype == b.dtype and np.array_equal(a.data, b.data)
            assert not b.requires_grad
        n = shape[0]
        sizes = [n] if workers == 1 or n == 1 else [n // 2, n - n // 2]
        assert sorted(m for m, _ in parts) == sorted(sizes)
        assert len({t for _, t in parts} - {threading.get_ident()}) == len(sizes) - 1


def test_conv_blocks_take_each_blocks_type_as_the_chain_does(split):
    """float32 images, a float64 second block: the blocks share one scratch
    array, viewed in each block's type."""
    rng = np.random.default_rng(1809)
    x = Tensor(rng.normal(size=(5, 2, 10, 9)).astype(np.float32))
    blocks = (_blocks(rng, np.float32, 2, (4,)) + _blocks(rng, np.float64, 4, (5,))
              + _blocks(rng, np.float32, 5, (3,)))
    chained = _chained_blocks(x, blocks)
    split(2)
    with T.parallel(x.size):
        fused = T.conv_blocks(x, blocks)
    assert [f.dtype for f in fused] == [np.float32, np.float64, np.float64]
    for a, b in zip(chained, fused):
        assert a.dtype == b.dtype and np.array_equal(a.data, b.data)


@pytest.mark.parametrize("which", ["x", "w", "gamma", "beta"])
@pytest.mark.parametrize("recording", [True, False])
def test_conv_blocks_refuses_an_input_that_needs_a_gradient(which, recording):
    """The offending input is a leaf, or (recording) the output of a recorded
    op, which carries a graph node of its own."""
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(2, 1, 6, 6)))
    blocks = _blocks(rng, np.float64, 1, (2, 2))

    def needing(t):
        out = Tensor(t.data, requires_grad=True)
        if recording:
            out = T.scale(out, 1.0)
        assert out.node.op == ("scale" if recording else "leaf")
        return out

    if which == "x":
        x = needing(x)
    else:
        i = ("w", "gamma", "beta").index(which)
        blocks[1] = tuple(needing(t) if j == i else t
                          for j, t in enumerate(blocks[1]))
    with pytest.raises(TensorError, match="needs a gradient"):
        T.conv_blocks(x, blocks)


def test_conv_blocks_rejects_shapes_the_chain_rejects():
    rng = np.random.default_rng(4)
    blocks = _blocks(rng, np.float64, 2, (3, 3))
    with pytest.raises(ShapeMismatch, match="weight"):
        T.conv_blocks(Tensor(np.zeros((1, 1, 6, 6))), blocks)
    with pytest.raises(ShapeMismatch, match="cannot pool a 1x1 map"):
        T.conv_blocks(Tensor(np.zeros((1, 2, 2, 2))), blocks)
    blocks[1] = (blocks[1][0], Tensor(np.ones(2)), blocks[1][2])
    with pytest.raises(ShapeMismatch, match="affine"):
        T.conv_blocks(Tensor(np.zeros((1, 2, 6, 6))), blocks)


# ---------------------------------------------------------------------------
# linear


def test_linear_identity():
    x = np.random.default_rng(5).normal(size=(3, 4))
    y = T.linear(t64(x), t64(np.eye(4)), t64(np.zeros(4))).data
    assert np.allclose(y, x)


def test_linear_hand_case():
    y = T.linear(t64([[1.0, 2.0]]), t64([[3.0, 4.0]]), t64([5.0])).data
    assert np.allclose(y, [[16.0]])


def test_linear_matches_naive_loops():
    rng = np.random.default_rng(6)
    x, w, b = rng.normal(size=(3, 7)), rng.normal(size=(4, 7)), rng.normal(size=4)
    assert max_rel_err(T.linear(t64(x), t64(w), t64(b)).data, naive_linear(x, w, b)) < 1e-6


# ---------------------------------------------------------------------------
# softmax cross entropy


def test_softmax_ce_uniform_is_log_k():
    logits = t64(np.zeros((3, 10)))
    loss = T.softmax_cross_entropy(logits, np.array([0, 5, 9]))
    assert np.isclose(loss.item(), np.log(10.0))


def test_softmax_ce_confident_is_near_zero():
    loss = T.softmax_cross_entropy(t64([[1000.0, 0.0]]), np.array([0]))
    assert loss.item() < 1e-12


def test_softmax_ce_label_out_of_range():
    with pytest.raises(TensorError):
        T.softmax_cross_entropy(t64(np.zeros((2, 3))), np.array([0, 3]))


def test_softmax_ce_gradient_matches_fd():
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(4, 5))
    labels = np.array([0, 2, 4, 1])
    x = t64(x0, grad=True)
    T.backward(T.softmax_cross_entropy(x, labels))
    num = fd_gradient(lambda v: T.softmax_cross_entropy(t64(v), labels).item(), x0, 1e-5)
    assert max_rel_err(x.grad, num) < 1e-4


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_of_sum_is_ones():
    x = t64(np.random.default_rng(8).normal(size=(2, 3, 4)), grad=True)
    T.backward(T.sum_all(x))
    assert np.array_equal(x.grad, np.ones_like(x.data))


def test_backward_square_sum():
    x = t64([1.0, 2.0, 3.0], grad=True)
    T.backward(T.sum_all(T.mul(x, x)))
    assert np.allclose(x.grad, [2.0, 4.0, 6.0])


def test_backward_requires_scalar_root():
    x = t64(np.zeros((2, 2)), grad=True)
    with pytest.raises(TensorError):
        T.backward(T.relu(x))


def test_fanout_gradients_accumulate():
    x = t64([1.0, -2.0], grad=True)
    y = T.add(T.sum_all(T.mul(x, x)), T.scale(T.sum_all(x), 3.0))
    T.backward(y)
    assert np.allclose(x.grad, 2 * x.data + 3.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=8),
       st.floats(-3, 3), st.floats(-3, 3))
def test_backward_is_linear_in_branches(values, c1, c2):
    a = np.asarray(values, dtype=np.float64)
    x = t64(a, grad=True)
    T.backward(T.add(T.scale(T.sum_all(x), c1), T.scale(T.sum_all(x), c2)))
    assert np.allclose(x.grad, c1 + c2)


@pytest.mark.parametrize("case", ["add", "sub", "reshape", "concat_rows"])
def test_tensor_consumed_twice_gets_the_sum_in_its_own_buffer(case):
    rng = np.random.default_rng(31)
    x = t64(rng.normal(size=(2, 3)), grad=True)
    c = rng.normal(size=(2, 3))
    g = rng.normal(size=(2, 3))
    if case == "add":
        out, expect = T.add(x, x), g + g
    elif case == "sub":
        out, expect = T.sub(x, x), np.zeros((2, 3))
    elif case == "concat_rows":
        out, g = T.concat_rows([x, x]), rng.normal(size=(4, 3))
        expect = g[:2] + g[2:]
    else:
        out = T.add(T.reshape(T.reshape(x, (6,)), (2, 3)), T.mul(x, t64(c)))
        expect = g + g * c
    root = T.sum_all(T.mul(out, t64(g)))
    # backward drops each intermediate .grad once it has run, so catch every
    # node's incoming gradient as its backward is called
    inner = [node for node in T._topo_order(root.node) if node.backward is not None]
    received = {}
    for node in inner:
        def spy(grad, node=node, bwd=node.backward):
            received[id(node)] = (node, grad)
            bwd(grad)
        node.backward = spy
    T.backward(root)
    assert np.array_equal(x.grad, expect)
    assert set(received) == {id(node) for node in inner}
    grads = [*received.values(), (x.node, x.grad)]
    for i, (a, ga) in enumerate(grads):
        assert ga.shape == a.shape and ga.dtype == a.dtype
        for _, gb in grads[i + 1:]:
            assert not np.shares_memory(ga, gb)


def test_separate_graphs_sum_into_a_shared_leaf():
    x = t64([1.0, -2.0], grad=True)
    T.backward(T.sum_all(T.mul(x, x)))
    T.backward(T.scale(T.sum_all(x), 3.0))
    assert np.array_equal(x.grad, 2 * x.data + 3.0)


def test_a_graph_is_walked_once():
    x = t64([1.0, -2.0], grad=True)
    y = T.mul(x, x)
    root = T.sum_all(y)
    T.backward(root)
    with pytest.raises(TensorError, match="consumed"):
        T.backward(root)
    with pytest.raises(TensorError, match="consumed"):
        T.backward(T.sum_all(T.relu(y)))  # a new root over a walked node
    assert np.array_equal(x.grad, [2.0, -4.0])


def test_backward_frees_each_gradient_once_its_parents_have_theirs():
    """Through a chain of eight elementwise ops on a 1 MiB array, backward's
    peak stays within three arrays of that size above its start: the
    gradient being passed on, the one being formed and the leaf's, where
    keeping every intermediate gradient would take nine."""
    n = 1 << 17
    x = t64(np.random.default_rng(33).normal(size=n), grad=True)
    y = x
    for i in range(8):
        y = T.relu(y) if i % 2 else T.scale(y, 1.5)
    root = T.sum_all(y)
    del y
    tracemalloc.start()
    try:
        T.backward(root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * x.data.nbytes


def _owner(arr):
    """The array that owns the memory of ``arr``."""
    while arr.base is not None:
        arr = arr.base
    return arr


def test_a_graph_holds_no_op_output():
    """The outputs of a recorded conv2d -> instance_norm -> relu that the
    caller drops are freed while the graph lives; backward still gives the
    input gradient of the same chain run with every output kept."""
    rng = np.random.default_rng(34)
    x0 = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
    w, gamma, beta, g = (Tensor(rng.normal(size=s).astype(np.float32))
                         for s in ((4, 3, 3, 3), (4,), (4,), (2, 4, 6, 6)))

    def chain(x):
        y = T.conv2d(x, w)
        z = T.instance_norm(y, gamma, beta)
        return y, z, T.relu(z)

    x_kept = Tensor(x0, requires_grad=True)
    kept = chain(x_kept)
    T.backward(T.sum_all(T.mul(kept[2], g)))

    x = Tensor(x0, requires_grad=True)
    y, z, r = chain(x)
    outputs = [weakref.ref(_owner(t.data)) for t in (y, z)]
    del y, z
    assert [ref() is None for ref in outputs] == [True, True]
    T.backward(T.sum_all(T.mul(r, g)))
    assert np.array_equal(x.grad, x_kept.grad)


def test_broadcast_gradient_takes_the_layout_of_its_tensor():
    x = t64(np.random.default_rng(32).normal(size=(2, 3, 4, 5)), grad=True)
    T.backward(T.sum_all(T.mul(T.sum_axis(x, 1), t64(np.ones((2, 4, 5))))))
    assert x.grad.strides == x.data.strides
    assert np.array_equal(x.grad, np.ones_like(x.data))


def test_concat_rows_returns_one_part_as_it_is_and_rejects_mismatched_parts():
    x = t64(np.ones((2, 3)), grad=True)
    assert T.concat_rows([x]) is x
    for other in (t64(np.ones((2, 4))), Tensor(np.ones((2, 3), dtype=np.float32))):
        with pytest.raises(ShapeMismatch):
            T.concat_rows([x, other])


# ---------------------------------------------------------------------------
# sgd with momentum


def test_sgd_first_step():
    p = t64([0.0], grad=True)
    p.grad = np.array([1.0])
    v = t64([0.0])
    T.sgd_momentum_step(p, v, lr=1.0, momentum=0.5)
    assert p.data[0] == -1.0 and v.data[0] == 1.0 and p.grad is None


def test_sgd_second_step_momentum():
    p = t64([0.0], grad=True)
    v = t64([0.0])
    for _ in range(2):
        p.grad = np.array([1.0])
        T.sgd_momentum_step(p, v, lr=1.0, momentum=0.5)
    assert v.data[0] == 1.5 and p.data[0] == -2.5


def test_sgd_weight_decay():
    p = t64([10.0], grad=True)
    p.grad = np.array([0.0])
    T.sgd_momentum_step(p, t64([0.0]), lr=1.0, momentum=0.0, weight_decay=0.1)
    assert np.isclose(p.data[0], 9.0)


def test_sgd_missing_grad_raises():
    with pytest.raises(TensorError):
        T.sgd_momentum_step(t64([1.0], grad=True), t64([0.0]), 1.0, 0.5)


# ---------------------------------------------------------------------------
# gradient-vs-finite-difference property over every differentiable op


def _weighted(out, rng):
    w = Tensor(rng.normal(size=out.data.shape).astype(np.float64))
    return T.sum_all(T.mul(out, w))


OPS = {
    "add": (lambda t, c: T.add(t, c["other"]), (2, 3)),
    "sub": (lambda t, c: T.sub(t, c["other23"]), (2, 3)),
    "mul": (lambda t, c: T.mul(t, c["other23"]), (2, 3)),
    "scale": (lambda t, c: T.scale(t, 1.7), (2, 3)),
    "sum_axis": (lambda t, c: T.sum_axis(t, 1), (2, 3, 4)),
    "mean_axis": (lambda t, c: T.mean_axis(t, 0), (4, 3)),
    "abs_pow": (lambda t, c: T.abs_pow(t, 4.0), (2, 5)),
    "abs_pow_p1": (lambda t, c: T.abs_pow(t, 1.0), (2, 5)),
    "l2norm": (lambda t, c: T.l2_normalize_rows(t), (3, 6)),
    "reshape": (lambda t, c: T.reshape(t, (6,)), (2, 3)),
    "concat_rows": (lambda t, c: T.concat_rows([c["other"], t, c["other23"]]), (4, 3)),
    "relu": (lambda t, c: T.relu(t), (3, 4)),
    "conv2d": (lambda t, c: T.conv2d(t, c["w"]), (2, 2, 4, 4)),
    "instance_norm": (lambda t, c: T.instance_norm(t, c["gamma"], c["beta"]), (2, 2, 4, 4)),
    "avgpool": (lambda t, c: T.avgpool(t), (2, 2, 5, 5)),
    "linear": (lambda t, c: T.linear(t, c["lw"], c["lb"]), (3, 5)),
    "conv2d.w": (lambda t, c: T.conv2d(c["x4"], t), (3, 2, 3, 3)),
    "instance_norm.gamma": (lambda t, c: T.instance_norm(c["x4"], t, c["beta"]), (2,)),
    "instance_norm.beta": (lambda t, c: T.instance_norm(c["x4"], c["gamma"], t), (2,)),
    "linear.w": (lambda t, c: T.linear(c["x2"], t, c["lb"]), (4, 5)),
    "linear.b": (lambda t, c: T.linear(c["x2"], c["lw"], t), (4,)),
    "flip_w": (lambda t, c: T.flip_w(t), (1, 2, 3, 3)),
    "shift2d": (lambda t, c: T.shift2d(t, 1, -1), (1, 2, 4, 4)),
    "apply_mask": (lambda t, c: T.apply_mask(t, c["mask"]), (1, 2, 4, 4)),
}


def _constants(rng, dtype):
    def mk(shape):
        return Tensor(rng.normal(size=shape).astype(dtype))
    mask = np.ones((4, 4))
    mask[1:3, 1:3] = 0.0
    return {
        "other": mk((2, 3)), "other23": mk((2, 3)),
        "w": mk((3, 2, 3, 3)),
        "gamma": Tensor((rng.normal(size=2) + 1.5).astype(dtype)), "beta": mk((2,)),
        "lw": mk((4, 5)), "lb": mk((4,)),
        "mask": mask.astype(dtype),
        "x4": mk((2, 2, 5, 5)), "x2": mk((3, 5)),
    }


@pytest.mark.parametrize("name", sorted(OPS))
@pytest.mark.parametrize("dtype,h,tol", [(np.float64, 1e-4, 1e-6), (np.float32, 1e-3, 1e-3)])
def test_gradients_match_finite_differences(name, dtype, h, tol):
    op, shape = OPS[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    x0 = _away_from_kinks(rng.normal(size=shape))
    consts64 = _constants(np.random.default_rng(99), np.float64)
    consts = _constants(np.random.default_rng(99), dtype)
    weight = np.random.default_rng(7).normal(size=op(Tensor(x0), consts64).data.shape)

    def f64(v):
        out = op(Tensor(v.astype(np.float64)), consts64)
        return T.sum_all(T.mul(out, Tensor(weight))).item()

    x = Tensor(x0.astype(dtype), requires_grad=True)
    out = op(x, consts)
    T.backward(T.sum_all(T.mul(out, Tensor(weight.astype(dtype)))))
    num = fd_gradient(f64, x0, h)
    assert max_rel_err(x.grad, num, floor=1e-4 * max(np.abs(num).max(), 1e-12)) < tol, name


# ---------------------------------------------------------------------------
# the backward hook: an op's output exposes its node's closure as
# ``_backward``, and a wrapper assigned to it runs in its place (the
# benchmark's tracer times every op's backward this way)

HOOK_CASES = {
    **{name: case for name, case in OPS.items() if hasattr(T, name)},
    "l2_normalize_rows": OPS["l2norm"],
    "sum_all": (lambda t, c: T.sum_all(t), (2, 3)),
    "flatten2d": (lambda t, c: T.flatten2d(t), (2, 3, 4)),
    "softmax_cross_entropy": (lambda t, c: T.softmax_cross_entropy(t, np.array([0, 3, 1])),
                              (3, 4)),
}


def test_every_public_op_has_a_hook_case():
    public = {name for name, fn in vars(T).items()
              if inspect.isfunction(fn) and fn.__module__ == T.__name__
              and not name.startswith("_")}
    assert set(HOOK_CASES) == public - {"backward", "sgd_momentum_step", "conv_blocks"}


@pytest.mark.parametrize("name", sorted(HOOK_CASES))
def test_an_assigned_backward_hook_runs_the_ops_backward(name):
    op, shape = HOOK_CASES[name]
    consts = _constants(np.random.default_rng(99), np.float64)
    x0 = np.random.default_rng(5).normal(size=shape)

    def run(wrap):
        x = Tensor(x0, requires_grad=True)
        out = op(x, consts)
        assert callable(out._backward)
        calls = []
        if wrap:
            inner = out._backward

            def hook(g):
                calls.append(g.shape)
                inner(g)
            out._backward = hook
        weight = np.random.default_rng(7).normal(size=out.data.shape)
        T.backward(T.sum_all(T.mul(out, Tensor(weight))))
        return x.grad, calls, out.data.shape

    plain, none, _ = run(False)
    hooked, calls, shape_out = run(True)
    assert none == [] and calls == [shape_out]
    assert np.array_equal(hooked, plain)


@pytest.mark.parametrize("name", sorted(OPS))
def test_an_op_records_a_node_exactly_when_an_input_has_one(name):
    op, shape = OPS[name]
    consts = _constants(np.random.default_rng(99), np.float64)
    x0 = np.random.default_rng(5).normal(size=shape)
    plain = op(Tensor(x0), consts)
    graph = op(Tensor(x0, requires_grad=True), consts)
    assert plain.node is None and graph.node is not None
    assert np.array_equal(plain.data, graph.data)


# ---------------------------------------------------------------------------
# determinism


def test_ops_are_deterministic():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)

    def run():
        xt = Tensor(x, requires_grad=True)
        out = T.avgpool(T.relu(T.conv2d(xt, Tensor(w))))
        T.backward(T.sum_all(out))
        return out.data.copy(), xt.grad.copy()

    y1, g1 = run()
    y2, g2 = run()
    assert np.array_equal(y1, y2) and np.array_equal(g1, g2)


# ---------------------------------------------------------------------------
# the elementwise power


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_abs_pow_equals_the_power_operator_bit_for_bit(p, dtype):
    rng = np.random.default_rng(31)
    x0 = rng.normal(size=(3, 4, 5)).astype(dtype)
    x0[0, 0, :2] = 0.0
    g = rng.normal(size=x0.shape).astype(dtype)
    x = Tensor(x0, requires_grad=True)
    y = T.abs_pow(x, p)
    T.backward(T.sum_all(T.mul(y, Tensor(g))))
    assert np.array_equal(y.data, np.abs(x0) ** p)
    assert np.array_equal(x.grad, g * p * np.sign(x0) * np.abs(x0) ** (p - 1))
    assert np.array_equal(T.abs_pow(Tensor(x0), p).data, np.abs(x0) ** p)


def test_relu_and_abs_pow_of_a_scalar():
    x = t64(-1.5, grad=True)
    T.backward(T.add(T.relu(x), T.abs_pow(x, 2.0)))
    assert x.grad.shape == () and x.grad == -3.0
    assert T.relu(t64(2.0)).data == 2.0 and T.abs_pow(t64(-2.0), 3.0).data == 8.0
