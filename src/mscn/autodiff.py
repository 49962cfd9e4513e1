"""Reverse-mode automatic differentiation over dense float64 arrays.

The engine is deliberately small: an explicit computation record (``Tape``)
is opened per training step, forward ops append nodes to it, and
``backward`` replays the record once in reverse.  There is no global graph
and no implicit state besides two thread-local slots: the record being
made and the plan being captured (see the end of this docstring).

Higher-order derivatives need no special machinery.  Every VJP is written
in terms of the public ops themselves, so running ``backward_retaining``
on a record opened with ``retain=True`` appends the backward pass to the
same record; the returned gradients are then ordinary recorded values and
can be differentiated again.

Ownership: a record holds its nodes, a node holds its parents and its
VJP, and nothing points back.  A VJP is handed its own output at sweep
time and never closes over it; a node refers to its record only weakly; a
tape lets go of the recording target it replaced on exit.  A record is
therefore freed by reference counting the moment its step lets go of it.

A record keeps only the arrays that some VJP reads.  A node holds its
output only when its own VJP reads it (leaves, ``relu``, ``sigmoid``,
``div`` and ``l2norm``), and a VJP closes over an operand only when its
gradient reads it: both for ``mul`` and ``matmul``, the divisor for
``div``, none for ``add`` and ``sub``.  Any other intermediate is freed as
soon as the forward pass no longer uses it, even while its record lives,
so a retained step record stays small.

A sweep has one rule, and does only the work its caller asks for.
Before any VJP runs, it marks the nodes that depend on the leaves
``wrt`` (every leaf of the record when it is None) and which of each
one's inputs do; it then walks only those nodes in reverse, and each
VJP is told which of its inputs need a gradient.  Binary
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

``take_rows`` gathers rows by index, each in [0, n) and repeats allowed;
its gradient is the adjoint scatter-add (``np.bincount``, in index
order), whose own gradient is a gather again, so gathers differentiate
to any order.  The triplet loss uses it to record only the cells its
hinges read.  ``row_max`` is no longer called by the pipeline; it
stays as the op of the tests' full-matrix reference loss, and the
benchmark's tracer wraps it by name.

An op costs little besides its numpy call.  Shape errors are numpy's
own: a binary op, ``reshape`` and ``broadcast_to`` turn the ValueError
numpy raises into a ShapeMismatchError instead of checking first.
Reductions and domain checks call the ndarray methods, which run the
same ``add.reduce`` as the ``np.sum``/``np.any`` wrappers, and a float64
ndarray is wrapped in a Tensor as it is.

Capture and replay.  Each op hands ``_record`` its kernel, the function
that computes its output, and the kernel's operand arrays, which it runs
through ``host``, as numpy work off the record (masks, indices, domain
checks, the pick block) runs.  While a ``Capture`` is active, every
``host`` call is logged as one step of a plan: the kernel and the slots of
its operands and outputs.  An operand array must be an input declared
to the capture or the output of a logged kernel; any other array raises
CaptureError rather than being baked in.  Other operands (floats,
shapes, axes) are the plan's constants.  A plan compiles its steps to one
generated straight-line Python function, as ``torch.fx`` generates code
from a captured graph, and ``Plan.run`` calls it: the same kernels on new
inputs in the same order, the checks among them, so a replay returns the
bits and raises the errors that recording the same code would.  It skips
all the rest: Tensor and Node objects, VJP closures, ``_record``,
``_live_needs``, the sweep's dict work and any loop over the steps.  A
retained record captures as any other: its recorded sweep is
ops like the forward pass, so the plan of a second-order stage holds the
kernels of both.  A plan is right only while what it baked in holds:
shapes, constants and the branches taken on them.  Its owner bounds its
life to a span over which those are fixed; ``meta_loop.train`` keeps one
plan per stage for the whole run and both network pairs, and hands each
stage what changes over a run, such as the virtual step size, as inputs.
"""

from __future__ import annotations

import functools
import math
import operator
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


class CaptureError(RecordError):
    """A captured stage read an array that its plan could not reproduce."""


class _State(threading.local):
    tape: Optional["Tape"] = None
    capture: Optional["Capture"] = None


_state = _State()


class Node:
    """One recorded operation: parents, a VJP and, if the VJP reads it, the
    output array (else ``data`` is None).

    ``record`` is the owning tape's weak reference, so a node never keeps
    its record alive.  The VJP is called as ``vjp(g, out, needs)``: `g` is
    the gradient of the output, `out` the output as a Tensor on this node
    (None where the node keeps no output), and `needs[i]` says whether
    input i wants a gradient.  It returns one entry per input, None where
    none was wanted; a sweep works out `needs` from the leaves it
    differentiates by, so a node stores none.
    """

    __slots__ = ("record", "op", "parents", "vjp", "data")

    def __init__(self, record, op, parents, vjp, data):
        self.record = record
        self.op = op
        self.parents = parents  # tuple[Node | None], aligned with the op inputs
        self.vjp = vjp  # None for leaves
        self.data = data


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
            data = host(_float64, data)
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
    While entered it is the thread's recording target; on exit the target
    it replaced is restored.
    """

    def __init__(self, retain: bool = False):
        self.retain = retain
        self.nodes: list[Node] = []
        self._leaves: list[Tensor] = []
        self._ref = weakref.ref(self)
        self._outer = None

    def __enter__(self):
        self._outer, _state.tape = _state.tape, self
        return self

    def __exit__(self, *exc):
        _state.tape, self._outer = self._outer, None
        return False

    def leaf(self, value) -> Tensor:
        """Register a differentiation root holding `value` on this record."""
        t = Tensor(value.data if isinstance(value, Tensor) else value)
        t.node = Node(self._ref, "leaf", (), None, t.data)
        self.nodes.append(t.node)
        self._leaves.append(t)
        return t


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _float64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def as_array(x) -> np.ndarray:
    """The float64 array of a Tensor or of anything np.asarray takes: a
    Tensor's data, or a float64 ndarray, as it is.  A conversion (an
    unpickled array's equal but distinct dtype makes one too) is a
    kernel, logged as `host` logs."""
    if isinstance(x, Tensor):
        return x.data
    if type(x) is not np.ndarray or x.dtype is not _F64:
        x = host(_float64, x)
    return x


def host(kernel: Callable, *args):
    """`kernel(*args)`, off the record.  While a plan is being captured the
    call is logged to it like an op's kernel, so a replay runs it too: the
    off-record arrays of a stage (masks, indices, checks) go through here."""
    out = kernel(*args)
    capture = _state.capture
    if capture is not None:
        capture.log(kernel, args, out)
    return out


def _record(op: str, kernel: Callable, args: tuple, inputs: Sequence[Tensor],
            vjp: Callable, keep_out: bool = False) -> Tensor:
    """Run the op's `kernel` on its operand arrays `args` through `host`,
    which logs the call to the plan being captured, if any, and wrap the
    output; append a node to the active record if one of the Tensors
    `inputs` is on it.  The node holds the output only with `keep_out`,
    which an op sets when its VJP reads `out`."""
    out = Tensor(host(kernel, *args))
    tape = _state.tape
    if tape is None:
        return out
    parents = tuple(x.node for x in inputs)
    if not any(parents):
        return out
    ref = tape._ref
    for p in parents:
        if p is not None and p.record is not ref:
            raise RecordError(
                f"{op}: input was recorded on a different record; "
                "records must not be mixed"
            )
    out.node = Node(ref, op, parents, vjp, out.data if keep_out else None)
    tape.nodes.append(out.node)
    return out


# ---------------------------------------------------------------------------
# primitives


def _gemm(x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """x @ y of 2-D arrays, on the kernel that contiguous operands get;
    written into the contiguous array `out` if given."""
    if x.shape[1] == 1:
        # an outer product: each cell is one product added to a zero
        # accumulator, which turns a -0.0 product into +0.0
        out = np.multiply(x, y, out=out)
        out += 0.0
        return out
    if x.shape[0] == 1 or y.shape[1] == 1 or np.may_share_memory(x, y):
        x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return np.matmul(x, y, out=out)


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError("matmul", a.shape, b.shape)

    def vjp(g: Tensor, out, needs):
        return (matmul(g, transpose(b)) if needs[0] else None,
                matmul(transpose(a), g) if needs[1] else None)

    return _record("matmul", _gemm, (a.data, b.data), (a, b), vjp)


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

    try:
        return _record(op, fwd, (a.data, b.data), (a, b), vjp, keep_out)
    except ValueError:  # numpy's own broadcasting check
        raise ShapeMismatchError(op, a_shape, b_shape) from None


def add(a, b) -> Tensor:
    return _binary("add", a, b, np.add, lambda g, a, b, out, needs: (g, g))


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, np.subtract, lambda g, *_: (g, g), negate_b=True)


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, np.multiply,
                   lambda g, a, b, out, needs: (mul(g, b) if needs[0] else None,
                                                mul(g, a) if needs[1] else None),
                   keep=(True, True))


def _divide(x, y):
    if (y == 0.0).any():
        raise ZeroDivisionError("div: zero denominator")
    return x / y


def div(a, b) -> Tensor:
    def grads(g, a, b, out, needs):
        ga = div(g, b)
        return ga, mul(ga, out) if needs[1] else None

    return _binary("div", a, b, _divide, grads, keep=(False, True),
                   negate_b=True, keep_out=True)


def scalar_mul(c: float, x) -> Tensor:
    x = _lift(x)
    c = float(c)
    return _record("scalar_mul", operator.mul, (c, x.data), (x,),
                   lambda g, *_: (scalar_mul(c, g),))


def neg(x) -> Tensor:
    return scalar_mul(-1.0, x)


def square(x) -> Tensor:
    x = _lift(x)
    # 2 * (g * x) has the bits of g * (2 * x), since doubling is exact, and
    # records no (x-sized) 2x array
    return _record("square", operator.mul, (x.data, x.data), (x,),
                   lambda g, *_: (scalar_mul(2.0, mul(g, x)),))


def relu(x) -> Tensor:
    """Hinge [x]+ with the strict-inequality subgradient (0 at exactly 0)."""
    x = _lift(x)
    return _record("relu", np.maximum, (x.data, 0.0), (x,),
                   lambda g, out, needs: (mul(g, Tensor(host(_positive, out.data))),),
                   keep_out=True)


def _positive(x) -> np.ndarray:
    return _float64(x > 0.0)


@functools.cache
def _expit_ufunc():
    """scipy's expit ufunc, loaded on the first call through `_special`,
    which skips the 0.23 s scipy.special package, so commands that take no
    sigmoid load no scipy at all."""
    from ._special import expit
    return expit


def sigmoid(x) -> Tensor:
    x = _lift(x)
    return _record("sigmoid", _expit_ufunc(), (x.data,), (x,),
                   lambda g, out, needs: (mul(g, mul(out, sub(1.0, out))),),
                   keep_out=True)


def _refuse_non_positive(x):
    if (x <= 0.0).any():
        raise ValueError("log: requires strictly positive inputs")


def log(x) -> Tensor:
    x = _lift(x)
    host(_refuse_non_positive, x.data)
    return _record("log", np.log, (x.data,), (x,), lambda g, *_: (div(g, x),))


def _refuse_nan(x):
    if np.isnan(x).any():
        raise ValueError("clamp: NaN input")


def _inside(x, lo: float, hi: float) -> np.ndarray:
    return _float64((x > lo) & (x < hi))


def clamp(x, lo: float, hi: float) -> Tensor:
    """Clip into [lo, hi]; gradient passes only where lo < x < hi."""
    x = _lift(x)
    if not lo < hi:
        raise ValueError(f"clamp: empty interval [{lo}, {hi}]")
    host(_refuse_nan, x.data)
    return _record("clamp", np.clip, (x.data, lo, hi), (x,),
                   lambda g, *_: (mul(g, Tensor(host(_inside, x.data, lo, hi))),))


def _norms(x) -> np.ndarray:
    return np.sqrt((x * x).sum(axis=-1))


def l2norm(x) -> Tensor:
    """Euclidean norm over the last axis; (..., d) -> (...)."""
    x = _lift(x)
    if x.ndim == 0:
        raise ShapeMismatchError("l2norm", x.shape)

    def vjp(g, out, needs):
        ratio = div(g, out)  # (...,)
        return (mul(x, reshape(ratio, ratio.shape + (1,))),)

    return _record("l2norm", _norms, (x.data,), (x,), vjp, keep_out=True)


def _cells_at(x, rows, idx) -> np.ndarray:
    return x[rows, idx]


def row_max(x) -> tuple[Tensor, np.ndarray]:
    """Per-row maximum of a 2D tensor; ties resolve to the lowest index.

    Returns (values, argmax indices); the indices are plain ints, not part
    of the record.  No stage of the pipeline calls it, so its indices are
    not logged: a capture that reaches it raises CaptureError.
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

    return _record("row_max", _cells_at, (x.data, rows, idx), (x,), vjp), idx


def _rows(idx, shape) -> tuple[np.ndarray, np.ndarray]:
    """`idx` as an array, checked as rows to gather from an array of
    `shape`, and as the bins of the adjoint's bincount."""
    idx = np.asarray(idx)
    if (not shape or idx.ndim != 1 or idx.dtype.kind not in "iu"
            or idx.size and not 0 <= idx.min() <= idx.max() < shape[0]):
        raise ShapeMismatchError("take_rows", shape, idx.shape)
    return idx, idx.astype(np.intp, copy=False)


def take_rows(x, idx) -> Tensor:
    """Rows `idx` of `x`, x[idx] along axis 0; an index may repeat, and
    each must lie in [0, n) for the n rows of `x`.

    The indices are plain ints, not part of the record.  The gradient is
    the adjoint scatter-add, which adds each gradient row into its source
    row in index order."""
    x = _lift(x)
    idx, bins = host(_rows, idx, x.shape)
    n = x.shape[0]
    return _record("take_rows", operator.getitem, (x.data, idx), (x,),
                   lambda g, *_: (_scatter_rows(g, bins, n),))


def _scatter(g, idx, n: int) -> np.ndarray:
    if g.ndim == 1:
        return np.bincount(idx, g, n)
    # one bin per cell of the n output rows
    width = math.prod(g.shape[1:])
    cells = (idx[:, None] * width + np.arange(width)).ravel()
    return np.bincount(cells, g.ravel(), n * width).reshape((n,) + g.shape[1:])


def _scatter_rows(g: Tensor, idx: np.ndarray, n: int) -> Tensor:
    """The adjoint of `take_rows`: n rows of zeros with row k of `g` added
    into row idx[k], in index order.  Its own adjoint is `take_rows`."""
    return _record("scatter_rows", _scatter, (g.data, idx, n), (g,),
                   lambda gg, *_: (take_rows(gg, idx),))


def _norm_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def _sum(x, axis) -> np.ndarray:
    return x.sum(axis=axis)


def reduce_sum(x, axis=None) -> Tensor:
    x = _lift(x)
    axes = _norm_axes(axis, x.ndim)
    in_shape = x.shape

    def vjp(g, *_):
        g = reshape(g, tuple(1 if i in axes else d for i, d in enumerate(in_shape)))
        return (broadcast_to(g, in_shape),)

    return _record("sum", _sum, (x.data, axes if axes else None), (x,), vjp)


def reduce_mean(x) -> Tensor:
    """Mean of every entry of `x`."""
    x = _lift(x)
    if x.size == 0:
        raise ShapeMismatchError("mean", x.shape)
    return scalar_mul(1.0 / x.size, reduce_sum(x))


def _broadcast(x, shape) -> np.ndarray:
    data = np.empty(shape)
    data[...] = x
    return data


def broadcast_to(x, shape) -> Tensor:
    x = _lift(x)
    shape = tuple(shape)
    in_shape = x.shape
    try:
        if x.ndim > len(shape):  # which assigning into `data` would allow
            raise ValueError
        return _record("broadcast_to", _broadcast, (x.data, shape), (x,),
                       lambda g, *_: (_unbroadcast(g, in_shape),))
    except ValueError:  # numpy's own broadcasting check
        raise ShapeMismatchError("broadcast_to", x.shape, shape) from None


def reshape(x, shape) -> Tensor:
    x = _lift(x)
    shape = tuple(map(int, shape))
    in_shape = x.shape
    try:
        # the size test rejects a single -1, numpy any other negative size
        if x.size != math.prod(shape):
            raise ValueError
        return _record("reshape", np.ndarray.reshape, (x.data, shape), (x,),
                       lambda g, *_: (reshape(g, in_shape),))
    except ValueError:
        raise ShapeMismatchError("reshape", x.shape, shape) from None


def transpose(x) -> Tensor:
    x = _lift(x)
    if x.ndim != 2:
        raise ShapeMismatchError("transpose", x.shape)
    return _record("transpose", np.ndarray.transpose, (x.data,), (x,),
                   lambda g, *_: (transpose(g),))


# ---------------------------------------------------------------------------
# backward


def _live_needs(nodes: list[Node], roots) -> list:
    """Each node that depends on any of `roots`, in record order (which is
    topological), with which of its inputs do."""
    reached = set(roots)
    live = []
    for node in nodes:
        needs = tuple([p in reached for p in node.parents])
        if True in needs:
            reached.add(node)
            live.append((node, needs))
    return live


def _backprop(record: Tape, output: Tensor, wrt: Optional[Iterable[Tensor]],
              target: Optional[Tape]) -> dict[Tensor, Tensor]:
    """The sweep of `backward` (`target` None) and `backward_retaining`
    (`target` the record): the VJPs run with `target` as the thread's
    recording target, and the one before it is restored on return."""
    if not record.nodes:
        raise RecordError("backward on an empty record")
    if output.node is None or output.node.record is not record._ref:
        raise RecordError("backward: output was not recorded on this record")
    if output.data.size != 1:
        raise RecordError(
            f"backward requires a scalar output, got shape {output.shape}"
        )
    if wrt is None:
        leaves = record._leaves
    else:
        leaves = tuple(wrt)
        for t in leaves:
            if t.node is None or t.node.record is not record._ref or t.node.vjp is not None:
                raise RecordError("backward: wrt must hold leaves of this record")
    # marked before any VJP runs, so the nodes a retained sweep appends
    # belong to later sweeps, not this one
    live = _live_needs(record.nodes, [t.node for t in leaves])
    outer, _state.tape = _state.tape, target
    try:
        grads = {output.node: Tensor(host(np.ones_like, output.data))}
        for node, needs in reversed(live):
            g = grads.pop(node, None)
            if g is None:
                continue
            out_t = None if node.data is None else Tensor(node.data, node)
            for parent, need, pg in zip(node.parents, needs, node.vjp(g, out_t, needs)):
                if need:
                    acc = grads.get(parent)
                    grads[parent] = pg if acc is None else add(acc, pg)
        out: dict[Tensor, Tensor] = {}
        for leaf in leaves:
            g = grads.get(leaf.node)
            out[leaf] = Tensor(host(np.zeros_like, leaf.data)) if g is None else g
        return out
    finally:
        _state.tape = outer


def backward(record: Tape, output: Tensor,
             wrt: Optional[Iterable[Tensor]] = None) -> dict[Tensor, Tensor]:
    """Gradients of a scalar `output` w.r.t. the leaves `wrt` of `record`
    (default: every leaf).

    Only nodes that depend on `wrt` are swept.  Recording is suspended for
    the sweep; returned gradients are plain values.  Leaves the output does
    not depend on map to zeros.
    """
    return _backprop(record, output, wrt, None)


def backward_retaining(record: Tape, output: Tensor,
                       wrt: Optional[Iterable[Tensor]] = None) -> dict[Tensor, Tensor]:
    """Like `backward`, but the sweep itself is recorded onto `record`.

    The record must have been opened with ``retain=True``.  Returned
    gradients are recorded values, so a later backward pass over the same
    record differentiates through them (gradients of gradients).
    """
    if not record.retain:
        raise RecordError("backward_retaining requires a record opened with retain=True")
    return _backprop(record, output, wrt, record)


# ---------------------------------------------------------------------------
# capture and replay


def _holds_array(value) -> bool:
    if isinstance(value, (np.ndarray, np.generic, Tensor)):
        return True
    return isinstance(value, (tuple, list)) and any(map(_holds_array, value))


def _kernel_name(kernel) -> str:
    return getattr(kernel, "__qualname__", None) or repr(kernel)


class Capture:
    """While active, logs every kernel the thread runs, op or `host`, as
    one step of a plan.

    `inputs` are the arrays the captured code reads that may differ from
    one run to the next, in the order `Plan.run` takes them.  Each array
    operand of a kernel must be one of them or the output of a kernel
    logged before it: any other array would be baked into the plan, so it
    raises CaptureError.  Every other operand (a float, a shape, an axis)
    is a constant of the plan.  A kernel returns an array, a numpy scalar,
    a tuple of them, or None (a check).

    Values are known by id.  A capture holds no array: each one's id is
    forgotten the moment it is freed, before the id can name another, so
    capturing a step holds no more memory than recording it."""

    def __init__(self, inputs):
        self.slots: dict[int, int] = {}  # id of a live value -> its slot
        self.n_slots = 0
        self.refs: list = []  # a weak reference to each array with a slot
        self.scalars: list = []  # numpy scalars take no weak reference
        self.consts: dict[int, object] = {}
        self.steps: list = []
        for a in inputs:
            if type(a) is not np.ndarray or id(a) in self.slots:
                raise CaptureError("plan inputs must be distinct arrays")
            self._define(a)
        self.n_inputs = self.n_slots

    def __enter__(self):
        if _state.capture is not None:
            raise CaptureError("captures do not nest")
        _state.capture = self
        return self

    def __exit__(self, *exc):
        _state.capture = None
        return False

    def _define(self, value) -> int:
        key, slot = id(value), self.n_slots
        self.slots[key] = slot
        self.n_slots += 1
        if isinstance(value, np.ndarray):
            slots = self.slots
            self.refs.append(weakref.ref(value, lambda _: slots.pop(key, None)))
        else:
            self.scalars.append(value)
        return slot

    def _operand(self, kernel, value) -> int:
        slot = self.slots.get(id(value))
        if slot is not None:
            return slot
        if _holds_array(value):
            raise CaptureError(
                f"{_kernel_name(kernel)}: an operand is neither a plan input "
                "nor the output of a logged kernel")
        slot = self.n_slots
        self.n_slots += 1
        self.consts[slot] = value
        return slot

    def _result(self, kernel, value) -> int:
        if not isinstance(value, (np.ndarray, np.generic)):
            raise CaptureError(f"{_kernel_name(kernel)} returned a "
                               f"{type(value).__name__}, which a plan cannot hold")
        return self._define(value)

    def log(self, kernel: Callable, args: tuple, out) -> None:
        operands = tuple([self._operand(kernel, a) for a in args])
        if out is None:
            target = None
        elif type(out) is tuple:
            target = tuple([self._result(kernel, v) for v in out])
        else:
            target = self._result(kernel, out)
        self.steps.append((kernel, operands, target))

    def plan(self, outputs: Sequence[np.ndarray]) -> "Plan":
        """The plan of every kernel logged so far, returning `outputs`,
        each an input or a logged output."""
        slots = []
        for a in outputs:
            slot = self.slots.get(id(a))
            if slot is None:
                raise CaptureError("a plan output must be an input or the "
                                   "output of a logged kernel")
            slots.append(slot)
        return Plan(self.steps, self.consts, self.n_inputs, slots)


class Plan:
    """A captured run of kernels, compiled to one Python function.  Each
    step is (kernel, operand slots, output slot, a tuple of them or None
    for a check); a slot holds an input, a constant or a kernel's output.

    The function takes the inputs as its arguments and calls the kernels
    in their captured order, each operand a variable ``s<slot>``,
    unpacking a tuple target (``[s5] = k3(s0)``) and calling a check
    bare.  It deletes each value, inputs included, after the last step
    that reads it, as recording drops it, and returns the outputs.
    Kernel j is bound as ``k<j>`` and each constant under its slot's name
    in the function's globals, so the source holds no value; the function
    is not among its own globals, so a plan is freed by reference
    counting.  `run` makes no Tensor, Node or record, and returns what
    the captured code returns on its inputs, bit for bit, as long as
    nothing the capture baked in (shapes, constants, branches on them)
    differs."""

    __slots__ = ("steps", "n_inputs", "_run")

    def __init__(self, steps, consts: dict, n_inputs: int, outputs):
        self.steps = tuple(steps)
        self.n_inputs = n_inputs
        last = {}  # slot -> the step after which no step reads it
        for j, (_, operands, target) in enumerate(self.steps):
            last.update(dict.fromkeys(_targets(target), j))
            last.update(dict.fromkeys(operands, j))
        dead = [[] for _ in self.steps]
        kept = {*consts, *outputs}
        for slot, j in last.items():
            if slot not in kept:
                dead[j].append(slot)
        namespace = {f"s{slot}": value for slot, value in consts.items()}
        lines = [f"def run({_locals(range(n_inputs))}):"]
        for j, (kernel, operands, target) in enumerate(self.steps):
            namespace[f"k{j}"] = kernel
            call = f"k{j}({_locals(operands)})"
            if target is None:
                lines.append(f"    {call}")
            elif type(target) is int:
                lines.append(f"    s{target} = {call}")
            else:
                lines.append(f"    [{_locals(target)}] = {call}")
            if dead[j]:
                lines.append(f"    del {_locals(dead[j])}")
        lines.append(f"    return [{_locals(outputs)}]")
        exec(compile("\n".join(lines), "<plan>", "exec"), namespace)
        self._run = namespace.pop("run")

    def __len__(self) -> int:
        return len(self.steps)

    def run(self, inputs: Sequence[np.ndarray]) -> list:
        if len(inputs) != self.n_inputs:
            raise CaptureError(f"plan takes {self.n_inputs} inputs, "
                               f"got {len(inputs)}")
        return self._run(*inputs)


def _locals(slots) -> str:
    """The names of `slots` in a plan's generated function, comma-separated."""
    return ", ".join([f"s{slot}" for slot in slots])


def _targets(target) -> tuple:
    """The output slots of a step."""
    if target is None:
        return ()
    return (target,) if type(target) is int else target
