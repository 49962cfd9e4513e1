"""Reverse-mode automatic differentiation over dense float64 arrays.

The engine is deliberately small: an explicit computation record (``Tape``)
is opened per training step, forward ops append nodes to it, and
``backward`` replays the record once in reverse.  There is no global graph
and no implicit state besides the thread-local "currently recording" slot.

Higher-order derivatives need no special machinery.  Every VJP is written
in terms of the public ops themselves, so running ``backward_retaining``
on a record opened with ``retain=True`` appends the backward pass to the
same record; the returned gradients are then ordinary recorded values and
can be differentiated again.

Ownership: a record holds its nodes, a node holds its parents and its
VJP, and nothing points back.  A VJP is handed its own output at sweep
time and never closes over it; a node refers to its record only weakly; a
tape drops its recording context on exit.  A record is therefore freed by
reference counting the moment its step lets go of it.

A record keeps only the arrays that some VJP reads.  A node holds its
output only when its own VJP reads it (leaves, ``relu``, ``sigmoid``,
``div`` and ``l2norm``), and a VJP closes over an operand only when its
gradient reads it: both for ``mul`` and ``matmul``, the divisor for
``div``, none for ``add`` and ``sub``.  Any other intermediate is freed as
soon as the forward pass no longer uses it, even while its record lives,
which is what lets two training steps run side by side in little memory.

A sweep does only the work its caller asks for.  ``backward(..., wrt=)``
marks the nodes that depend on the requested leaves and runs VJPs only
there, and each VJP is told which of its inputs need a gradient.  Binary
ops broadcast lazily, as numpy does, and sum their gradient back down to
each operand's shape inside the VJP; ``sub`` and ``div`` negate their
b-gradient after that sum, on the smaller array.

An op allocates only its output.  ``transpose`` returns a view, and
``matmul``, which takes 2-D operands only, hands numpy's BLAS call the
strided operands as they are, except where the kernel would depend on
the layout: a matrix-vector product (a result with a dimension of 1),
for which OpenBLAS runs another gemv kernel on a transposed operand, and
``x @ x.T`` on one buffer, which numpy sends to a symmetric-product
kernel.  Each kernel sums in its own order, so there the operands are
made contiguous first and the product keeps the bits of contiguous
operands.  An inner dimension of 1 makes an outer product, where each
cell is a single product: it is computed by broadcasting, plus 0.0 so
that a -0.0 product reads +0.0 as gemm's zero accumulator makes it.  The
masks of ``relu``, ``clamp`` and ``row_max`` are built at sweep time from
the output, the input and the argmax indices, so a forward pass with no
record (all of evaluation) builds none.

``take_rows`` gathers rows by index, repeats allowed; its gradient is the
adjoint scatter-add (``np.bincount``, in index order), whose own gradient
is a gather again, so gathers differentiate to any order.  The triplet
loss uses it to record only the cells its hinges read.  ``row_max`` is
no longer called by the pipeline; it stays because the benchmark's
tracer wraps it by name.

An op costs little besides its numpy call.  Shape errors are numpy's
own: a binary op, ``reshape`` and ``broadcast_to`` turn the ValueError
numpy raises into a ShapeMismatchError instead of checking first.
Reductions and domain checks call the ndarray methods, which run the
same ``add.reduce`` as the ``np.sum``/``np.any`` wrappers, and a float64
ndarray is wrapped in a Tensor as it is.  A node records at once which
of its inputs are on the record, so a full sweep reads that mask rather
than building it again.
"""

from __future__ import annotations

import math
import threading
import weakref
from typing import Callable, Iterable, Optional, Sequence

import numpy as np


class ShapeMismatchError(ValueError):
    """Operands do not conform for the requested operation."""

    def __init__(self, op: str, *shapes):
        self.op = op
        self.shapes = tuple(shapes)
        detail = " and ".join(str(tuple(s)) for s in shapes)
        super().__init__(f"{op}: shapes {detail} do not conform")


class RecordError(RuntimeError):
    """Misuse of a computation record (empty backward, foreign values, ...)."""


class _State(threading.local):
    tape: Optional["Tape"] = None


_state = _State()


def _active_tape() -> Optional["Tape"]:
    return _state.tape


class _using_tape:
    """Temporarily make `tape` (or None) the recording target."""

    def __init__(self, tape: Optional["Tape"]):
        self.tape = tape

    def __enter__(self):
        self.prev = _active_tape()
        _state.tape = self.tape
        return self

    def __exit__(self, *exc):
        _state.tape = self.prev
        return False


class Node:
    """One recorded operation: parents, a VJP and, if the VJP reads it, the
    output array (else ``data`` is None).

    ``record`` is the owning tape's weak reference, so a node never keeps
    its record alive.  The VJP is called as ``vjp(g, out, needs)``: `g` is
    the gradient of the output, `out` the output as a Tensor on this node
    (None where the node keeps no output), and `needs[i]` says whether
    input i wants a gradient.  It returns one entry per input, None where
    none was wanted.  ``tracked`` is the `needs` of a full sweep: which
    inputs are on the record at all.
    """

    __slots__ = ("record", "op", "parents", "vjp", "data", "tracked")

    def __init__(self, record, op, parents, vjp, data, tracked=()):
        self.record = record
        self.op = op
        self.parents = parents  # tuple[Node | None], aligned with the op inputs
        self.vjp = vjp  # None for leaves
        self.data = data
        self.tracked = tracked  # tuple[bool], aligned with parents


_F64 = np.dtype(np.float64)


class Tensor:
    """Dense float64 value, optionally attached to a node of some record.

    Tensors are immutable by convention: ops return fresh Tensors and the
    training loop never writes into ``.data`` of a live one.
    """

    __slots__ = ("data", "node")

    def __init__(self, data, node: Optional[Node] = None):
        # np.asarray would return a float64 ndarray as it is; skip the call
        if type(data) is not np.ndarray or data.dtype is not _F64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.node = node

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = "" if self.node is None else f" op={self.node.op}"
        return f"Tensor(shape={self.data.shape}{tag})"


class Tape:
    """Explicit computation record, opened per step and discarded after.

    Nodes are appended in execution order, which is already a topological
    order, so backward is a single reverse sweep.  ``retain=True`` allows
    ``backward_retaining`` to extend the record with the backward pass.
    """

    def __init__(self, retain: bool = False):
        self.retain = retain
        self.nodes: list[Node] = []
        self._leaves: list[Tensor] = []
        self._ref = weakref.ref(self)
        self._ctx = None

    def __enter__(self):
        self._ctx = _using_tape(self)
        self._ctx.__enter__()
        return self

    def __exit__(self, *exc):
        ctx, self._ctx = self._ctx, None
        return ctx.__exit__(*exc)

    def leaf(self, value) -> Tensor:
        """Register a differentiation root holding `value` on this record."""
        t = Tensor(value.data if isinstance(value, Tensor) else value)
        t.node = Node(self._ref, "leaf", (), None, t.data)
        self.nodes.append(t.node)
        self._leaves.append(t)
        return t


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(op: str, out_data, inputs: Sequence[Tensor], vjp: Callable,
            keep_out: bool = False) -> Tensor:
    """Wrap `out_data`, and append a node to the active record if an input
    is on it.  The node holds the output only with `keep_out`, which an op
    sets when its VJP reads `out`."""
    out = Tensor(out_data)
    tape = _state.tape
    if tape is None:
        return out
    if len(inputs) == 1:  # every op has one or two inputs
        parents = (inputs[0].node,)
        tracked = (parents[0] is not None,)
    else:
        parents = (inputs[0].node, inputs[1].node)
        tracked = (parents[0] is not None, parents[1] is not None)
    if True not in tracked:
        return out
    ref = tape._ref
    for p in parents:
        if p is not None and p.record is not ref:
            raise RecordError(
                f"{op}: input was recorded on a different record; "
                "records must not be mixed"
            )
    out.node = Node(ref, op, parents, vjp, out.data if keep_out else None,
                    tracked)
    tape.nodes.append(out.node)
    return out


# ---------------------------------------------------------------------------
# primitives


def _gemm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y of 2-D arrays, on the kernel that contiguous operands get."""
    if x.shape[1] == 1:
        # an outer product: each cell is one product added to a zero
        # accumulator, which turns a -0.0 product into +0.0
        out = x * y
        out += 0.0
        return out
    if x.shape[0] == 1 or y.shape[1] == 1 or np.may_share_memory(x, y):
        x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x @ y


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError("matmul", a.shape, b.shape)

    def vjp(g: Tensor, out, needs):
        return (matmul(g, transpose(b)) if needs[0] else None,
                matmul(transpose(a), g) if needs[1] else None)

    return _record("matmul", _gemm(a.data, b.data), (a, b), vjp)


def _unbroadcast(g: Tensor, shape) -> Tensor:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    axes = tuple(range(extra)) + tuple(
        i + extra for i, d in enumerate(shape) if d == 1 and g.shape[i + extra] != 1
    )
    out = reduce_sum(g, axis=axes) if axes else g
    return out if out.shape == shape else reshape(out, shape)


def _binary(op: str, a, b, fwd, grads, keep=(False, False),
            negate_b: bool = False, keep_out: bool = False) -> Tensor:
    """Elementwise binary op with numpy broadcasting.

    Operands are never materialized to the common shape.  `grads(g, a, b,
    out, needs)` gives the gradients at the output shape; they are summed
    back down to each operand's shape here.  The VJP holds operand i only
    if `keep[i]` (grads sees None otherwise), and the node its output only
    with `keep_out`.  With `negate_b` the b-gradient is negated after that
    sum, which is exact and touches fewer elements.
    """
    a, b = _lift(a), _lift(b)
    try:
        out = fwd(a.data, b.data)
    except ValueError:  # numpy's own broadcasting check
        raise ShapeMismatchError(op, a.shape, b.shape) from None
    a_shape, b_shape = a.shape, b.shape
    kept_a = a if keep[0] else None
    kept_b = b if keep[1] else None

    def vjp(g, out, needs):
        ga, gb = grads(g, kept_a, kept_b, out, needs)
        ga = _unbroadcast(ga, a_shape) if needs[0] else None
        if needs[1]:
            gb = _unbroadcast(gb, b_shape)
            if negate_b:
                gb = neg(gb)
        return ga, gb

    return _record(op, out, (a, b), vjp, keep_out)


def add(a, b) -> Tensor:
    return _binary("add", a, b, np.add, lambda g, a, b, out, needs: (g, g))


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, np.subtract, lambda g, *_: (g, g), negate_b=True)


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, np.multiply,
                   lambda g, a, b, out, needs: (mul(g, b) if needs[0] else None,
                                                mul(g, a) if needs[1] else None),
                   keep=(True, True))


def div(a, b) -> Tensor:
    def fwd(x, y):
        if (y == 0.0).any():
            raise ZeroDivisionError("div: zero denominator")
        return x / y

    def grads(g, a, b, out, needs):
        ga = div(g, b)
        return ga, mul(ga, out) if needs[1] else None

    return _binary("div", a, b, fwd, grads, keep=(False, True), negate_b=True,
                   keep_out=True)


def scalar_mul(c: float, x) -> Tensor:
    x = _lift(x)
    c = float(c)
    return _record("scalar_mul", c * x.data, (x,), lambda g, *_: (scalar_mul(c, g),))


def neg(x) -> Tensor:
    return scalar_mul(-1.0, x)


def square(x) -> Tensor:
    x = _lift(x)
    # 2 * (g * x) has the bits of g * (2 * x), since doubling is exact, and
    # records no (x-sized) 2x array
    return _record("square", x.data * x.data, (x,),
                   lambda g, *_: (scalar_mul(2.0, mul(g, x)),))


def relu(x) -> Tensor:
    """Hinge [x]+ with the strict-inequality subgradient (0 at exactly 0)."""
    x = _lift(x)
    return _record("relu", np.maximum(x.data, 0.0), (x,),
                   lambda g, out, needs: (mul(g, Tensor(out.data > 0.0)),),
                   keep_out=True)


def _expit(x, out=None):
    """scipy.special.expit.  Importing scipy.special takes about 0.24 s, so
    the first call does it and rebinds this name to that function."""
    global _expit
    from scipy.special import expit as _expit
    return _expit(x, out=out)


def sigmoid(x) -> Tensor:
    x = _lift(x)
    return _record("sigmoid", _expit(x.data), (x,),
                   lambda g, out, needs: (mul(g, mul(out, sub(1.0, out))),),
                   keep_out=True)


def log(x) -> Tensor:
    x = _lift(x)
    if (x.data <= 0.0).any():
        raise ValueError("log: requires strictly positive inputs")
    return _record("log", np.log(x.data), (x,), lambda g, *_: (div(g, x),))


def clamp(x, lo: float, hi: float) -> Tensor:
    """Clip into [lo, hi]; gradient passes only where lo < x < hi."""
    x = _lift(x)
    if not lo < hi:
        raise ValueError(f"clamp: empty interval [{lo}, {hi}]")
    if np.isnan(x.data).any():
        raise ValueError("clamp: NaN input")
    return _record("clamp", np.clip(x.data, lo, hi), (x,),
                   lambda g, *_: (mul(g, Tensor((x.data > lo) & (x.data < hi))),))


def l2norm(x) -> Tensor:
    """Euclidean norm over the last axis; (..., d) -> (...)."""
    x = _lift(x)
    if x.ndim == 0:
        raise ShapeMismatchError("l2norm", x.shape)

    def vjp(g, out, needs):
        ratio = div(g, out)  # (...,)
        return (mul(x, reshape(ratio, ratio.shape + (1,))),)

    return _record("l2norm", np.sqrt((x.data * x.data).sum(axis=-1)), (x,), vjp,
                   keep_out=True)


def row_max(x) -> tuple[Tensor, np.ndarray]:
    """Per-row maximum of a 2D tensor; ties resolve to the lowest index.

    Returns (values, argmax indices); the indices are plain ints, not part
    of the record.
    """
    x = _lift(x)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ShapeMismatchError("row_max", x.shape)
    idx = np.argmax(x.data, axis=1)
    rows = np.arange(x.shape[0])
    shape = x.shape

    def vjp(g, *_):
        onehot = np.zeros(shape)
        onehot[rows, idx] = 1.0
        return (mul(Tensor(onehot), reshape(g, (g.shape[0], 1))),)

    return _record("row_max", x.data[rows, idx], (x,), vjp), idx


def take_rows(x, idx) -> Tensor:
    """Rows `idx` of `x`, x[idx] along axis 0; an index may repeat.

    The indices are plain ints, not part of the record.  The gradient is
    the adjoint scatter-add, which adds each gradient row into its source
    row in index order."""
    x = _lift(x)
    idx = np.asarray(idx)
    if x.ndim == 0 or idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ShapeMismatchError("take_rows", x.shape, idx.shape)
    n = x.shape[0]
    out = x.data[idx]
    idx = idx.astype(np.intp, copy=False)  # the bins of the adjoint's bincount
    return _record("take_rows", out, (x,),
                   lambda g, *_: (_scatter_rows(g, idx, n),))


def _scatter_rows(g: Tensor, idx: np.ndarray, n: int) -> Tensor:
    """The adjoint of `take_rows`: n rows of zeros with row k of `g` added
    into row idx[k], in index order.  Its own adjoint is `take_rows`."""
    try:
        if g.ndim == 1:
            out = np.bincount(idx, g.data, n)
        else:  # one bin per cell of the n output rows
            width = math.prod(g.shape[1:])
            cells = (idx[:, None] * width + np.arange(width)).ravel()
            out = np.bincount(cells, g.data.ravel(), n * width)
            out = out.reshape((n,) + g.shape[1:])
    except ValueError:  # bincount's bins are non-negative; x[idx]'s need not be
        if idx.min() >= 0:
            raise
        return _scatter_rows(g, idx % n, n)
    return _record("scatter_rows", out, (g,),
                   lambda gg, *_: (take_rows(gg, idx),))


def _norm_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def reduce_sum(x, axis=None) -> Tensor:
    x = _lift(x)
    axes = _norm_axes(axis, x.ndim)
    in_shape = x.shape
    data = x.data.sum(axis=axes if axes else None)

    def vjp(g, *_):
        g = reshape(g, tuple(1 if i in axes else d for i, d in enumerate(in_shape)))
        return (broadcast_to(g, in_shape),)

    return _record("sum", data, (x,), vjp)


def reduce_mean(x) -> Tensor:
    """Mean of every entry of `x`."""
    x = _lift(x)
    if x.size == 0:
        raise ShapeMismatchError("mean", x.shape)
    return scalar_mul(1.0 / x.size, reduce_sum(x))


def broadcast_to(x, shape) -> Tensor:
    x = _lift(x)
    shape = tuple(shape)
    try:
        if x.ndim > len(shape):  # which assigning into `data` would allow
            raise ValueError
        data = np.empty(shape)
        data[...] = x.data
    except ValueError:  # numpy's own broadcasting check
        raise ShapeMismatchError("broadcast_to", x.shape, shape) from None
    in_shape = x.shape
    return _record("broadcast_to", data, (x,), lambda g, *_: (_unbroadcast(g, in_shape),))


def reshape(x, shape) -> Tensor:
    x = _lift(x)
    shape = tuple(map(int, shape))
    try:
        # the size test rejects a single -1, numpy any other negative size
        if x.size != math.prod(shape):
            raise ValueError
        data = x.data.reshape(shape)
    except ValueError:
        raise ShapeMismatchError("reshape", x.shape, shape) from None
    in_shape = x.shape
    return _record("reshape", data, (x,), lambda g, *_: (reshape(g, in_shape),))


def transpose(x) -> Tensor:
    x = _lift(x)
    if x.ndim != 2:
        raise ShapeMismatchError("transpose", x.shape)
    return _record("transpose", x.data.T, (x,), lambda g, *_: (transpose(g),))


# ---------------------------------------------------------------------------
# backward


def _live_needs(nodes: list[Node], roots) -> dict:
    """For each node that depends on any of `roots`, which of its inputs
    do; record order is topological."""
    live = dict.fromkeys(roots, ())
    for node in nodes:
        if node.vjp is not None:
            needs = tuple([p in live for p in node.parents])
            if True in needs:
                live[node] = needs
    return live


def _backprop(record: Tape, output: Tensor,
              wrt: Optional[Iterable[Tensor]]) -> dict[Tensor, Tensor]:
    if not record.nodes:
        raise RecordError("backward on an empty record")
    if output.node is None or output.node.record is not record._ref:
        raise RecordError("backward: output was not recorded on this record")
    if output.data.size != 1:
        raise RecordError(
            f"backward requires a scalar output, got shape {output.shape}"
        )
    # Snapshot the nodes: VJPs may append nodes (retaining mode); those
    # belong to future backward passes, not this one.
    nodes = record.nodes[:]
    if wrt is None:
        leaves, live = record._leaves, None  # every recorded node depends on a leaf
    else:
        leaves = tuple(wrt)
        for t in leaves:
            if t.node is None or t.node.record is not record._ref or t.node.vjp is not None:
                raise RecordError("backward: wrt must hold leaves of this record")
        live = _live_needs(nodes, [t.node for t in leaves])
    grads: dict[Node, Tensor] = {output.node: Tensor(np.ones_like(output.data))}
    for node in reversed(nodes):
        if node.vjp is None:
            continue
        g = grads.pop(node, None)
        if g is None:
            continue
        needs = node.tracked if live is None else live.get(node)
        if needs is None:
            continue
        out_t = None if node.data is None else Tensor(node.data, node)
        for parent, need, pg in zip(node.parents, needs, node.vjp(g, out_t, needs)):
            if not need:
                continue
            acc = grads.get(parent)
            grads[parent] = pg if acc is None else add(acc, pg)
    out: dict[Tensor, Tensor] = {}
    for leaf in leaves:
        g = grads.get(leaf.node)
        out[leaf] = Tensor(np.zeros_like(leaf.data)) if g is None else g
    return out


def backward(record: Tape, output: Tensor,
             wrt: Optional[Iterable[Tensor]] = None) -> dict[Tensor, Tensor]:
    """Gradients of a scalar `output` w.r.t. the leaves `wrt` of `record`
    (default: every leaf).

    Only nodes that depend on `wrt` are swept.  Recording is suspended for
    the sweep; returned gradients are plain values.  Leaves the output does
    not depend on map to zeros.
    """
    with _using_tape(None):
        return _backprop(record, output, wrt)


def backward_retaining(record: Tape, output: Tensor,
                       wrt: Optional[Iterable[Tensor]] = None) -> dict[Tensor, Tensor]:
    """Like `backward`, but the sweep itself is recorded onto `record`.

    The record must have been opened with ``retain=True``.  Returned
    gradients are recorded values, so a later backward pass over the same
    record differentiates through them (gradients of gradients).
    """
    if not record.retain:
        raise RecordError("backward_retaining requires a record opened with retain=True")
    with _using_tape(record):
        return _backprop(record, output, wrt)
