"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the deep-learning substrate used by the
EasyTime reproduction.  It provides a :class:`Tensor` wrapping a numpy
``ndarray`` together with a dynamically built computation graph.  Calling
:meth:`Tensor.backward` on a scalar output propagates gradients to every
tensor created with ``requires_grad=True``.

The design follows the classic "define-by-run" tape approach: every
operation records a backward closure and its parent tensors; ``backward``
topologically sorts the graph and applies the closures in reverse order.
Broadcasting is supported for all elementwise operations; gradients are
summed back to the original operand shapes.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "set_default_dtype",
           "get_default_dtype"]

class _GradMode(threading.local):
    """Per-thread grad mode: one thread's ``no_grad`` never leaks into
    another's, whatever order their blocks enter and exit in."""

    enabled = True


_GRAD_MODE = _GradMode()

#: Dtype used for leaves created from python scalars / lists and for
#: non-float payloads.  Float32/float64 ndarrays keep their dtype so a
#: model cast to float32 stays float32 through the whole graph.
_DEFAULT_DTYPE = np.dtype(np.float64)

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def set_default_dtype(dtype):
    """Set the process-wide default floating dtype (float32 or float64)."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in _FLOAT_DTYPES:
        raise ValueError(f"default dtype must be float32 or float64, got {dtype}")
    _DEFAULT_DTYPE = dtype
    return dtype


def get_default_dtype():
    """Return the current default floating dtype."""
    return _DEFAULT_DTYPE


class no_grad:
    """Context manager disabling graph construction (like ``torch.no_grad``)."""

    def __enter__(self):
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        _GRAD_MODE.enabled = self._prev
        return False


def is_grad_enabled():
    """Return True when operations record the autodiff graph in this
    thread."""
    return _GRAD_MODE.enabled


def _unbroadcast(grad, shape):
    """Reduce ``grad`` so that it matches ``shape`` after broadcasting.

    Numpy broadcasting may have expanded an operand along leading axes or
    along axes of size one; the gradient of a broadcast is the sum over the
    broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(data, dtype=None):
    if isinstance(data, np.ndarray):
        if dtype is not None:
            return data.astype(dtype, copy=False)
        if data.dtype in _FLOAT_DTYPES:
            return data
        return data.astype(_DEFAULT_DTYPE)
    return np.asarray(data, dtype=dtype if dtype is not None
                      else _DEFAULT_DTYPE)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload.  Float32/float64 ndarrays keep their dtype;
        everything else is converted to the default dtype (float64 unless
        changed via :func:`set_default_dtype`), or to an explicit
        ``dtype``.
    requires_grad:
        When True, gradients are accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev",
                 "name", "_grad_owned")

    def __init__(self, data, requires_grad=False, _prev=(), name=None,
                 dtype=None):
        self.data = _as_array(data, dtype=dtype)
        self.grad = None
        enabled = _GRAD_MODE.enabled
        self.requires_grad = bool(requires_grad) and enabled
        self._backward = None
        self._prev = _prev if (enabled and _prev) else ()
        self.name = name
        self._grad_owned = False

    @classmethod
    def _raw(cls, data):
        """Wrap an ndarray with no graph bookkeeping (no_grad fast path)."""
        out = cls.__new__(cls)
        out.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        out.grad = None
        out.requires_grad = False
        out._backward = None
        out._prev = ()
        out.name = None
        out._grad_owned = False
        return out

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape, requires_grad=False, dtype=None):
        return Tensor(np.zeros(shape, dtype=dtype or _DEFAULT_DTYPE),
                      requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad=False, dtype=None):
        return Tensor(np.ones(shape, dtype=dtype or _DEFAULT_DTYPE),
                      requires_grad=requires_grad)

    @staticmethod
    def randn(*shape, rng=None, scale=1.0, requires_grad=False, dtype=None):
        rng = rng if rng is not None else np.random.default_rng()
        data = rng.standard_normal(shape) * scale
        if dtype is not None:
            data = data.astype(dtype)
        return Tensor(data, requires_grad=requires_grad)

    @staticmethod
    def ensure(value):
        """Coerce a scalar / ndarray / Tensor into a Tensor."""
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self):
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self):
        return float(self.data)

    def detach(self):
        """Return a new Tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def __len__(self):
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph bookkeeping
    # ------------------------------------------------------------------
    def _make(self, data, parents, backward):
        """Create an output tensor wired into the graph.

        Under ``no_grad`` this skips parent bookkeeping entirely — no
        ``requires_grad`` scan, no parent tuple, no backward closure — so
        inference pays only for the payload wrap.
        """
        if not _GRAD_MODE.enabled:
            return Tensor._raw(data)
        if any(p.requires_grad for p in parents):
            out = Tensor._raw(data)
            out.requires_grad = True
            out._prev = tuple(parents)
            out._backward = backward
            return out
        return Tensor._raw(data)

    def _accumulate(self, grad):
        grad = np.asarray(grad)
        if grad.dtype != self.data.dtype:
            grad = grad.astype(self.data.dtype)
        if self.grad is None:
            # Views must be materialised; whole arrays are adopted by
            # reference (not owned: a producer may hand the same buffer to
            # several parents, so it must never be mutated in place).
            if grad.base is not None:
                self.grad = grad.copy()
                self._grad_owned = True
            else:
                self.grad = grad
                self._grad_owned = False
        elif self._grad_owned:
            self.grad += grad
        else:
            self.grad = self.grad + grad
            self._grad_owned = True

    def _accumulate_indexed(self, key, grad):
        """Accumulate a gradient into a sub-slice of this tensor's grad.

        The scatter counterpart of ``__getitem__``: writes land directly in
        the (owned) gradient buffer instead of materialising a full-size
        zeros array per slice — the hot path when a tensor is sliced many
        times, e.g. per-timestep reads of a precomputed GRU projection.
        """
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
            self._grad_owned = True
        elif not self._grad_owned:
            self.grad = self.grad.copy()
            self._grad_owned = True
        key_t = key if isinstance(key, tuple) else (key,)
        if all(isinstance(k, (int, np.integer, slice)) or k is None
               or k is Ellipsis for k in key_t):
            # Basic indexing never repeats an element, so a slice-add is
            # equivalent to (and much faster than) the buffered np.add.at.
            self.grad[key] += grad
        else:
            np.add.at(self.grad, key, grad)

    def zero_grad(self):
        self.grad = None
        self._grad_owned = False

    def backward(self, grad=None):
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (and must be supplied for non-scalar
        outputs only when a non-trivial seed is wanted).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        topo, visited = [], set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = Tensor.ensure(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = Tensor.ensure(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self):
        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-Tensor.ensure(other))

    def __rsub__(self, other):
        return Tensor.ensure(other) + (-self)

    def __truediv__(self, other):
        other = Tensor.ensure(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data ** 2), other.shape))

        return self._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other):
        return Tensor.ensure(other) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1))

        return self._make(self.data ** exponent, (self,), backward)

    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * out_data)

        return self._make(out_data, (self,), backward)

    def log(self):
        def backward(g):
            if self.requires_grad:
                self._accumulate(g / self.data)

        return self._make(np.log(self.data), (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * 0.5 / np.maximum(out_data, 1e-300))

        return self._make(out_data, (self,), backward)

    def abs(self):
        def backward(g):
            if self.requires_grad:
                self._accumulate(g * np.sign(self.data))

        return self._make(np.abs(self.data), (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (1.0 - out_data ** 2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def relu(self):
        mask = self.data > 0

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * mask)

        return self._make(self.data * mask, (self,), backward)

    def clip(self, low, high):
        """Clamp values; gradient passes only through the unclipped region."""
        mask = (self.data >= low) & (self.data <= high)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * mask)

        return self._make(np.clip(self.data, low, high), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        def backward(g):
            if not self.requires_grad:
                return
            grad = np.asarray(g)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.shape))

        return self._make(self.data.sum(axis=axis, keepdims=keepdims),
                          (self,), backward)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims=False):
        centred = self - self.mean(axis=axis, keepdims=True)
        return (centred * centred).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims=False):
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g):
            if not self.requires_grad:
                return
            grad = np.asarray(g)
            expanded = out_data
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
                expanded = np.expand_dims(out_data, axis)
            mask = (self.data == expanded)
            # Split gradient equally among ties to keep gradcheck stable.
            counts = mask.sum(axis=axis if axis is not None else None,
                              keepdims=True)
            self._accumulate(np.broadcast_to(grad, self.shape) * mask / counts)

        return self._make(out_data, (self,), backward)

    def min(self, axis=None, keepdims=False):
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Linear algebra and shaping
    # ------------------------------------------------------------------
    def matmul(self, other):
        other = Tensor.ensure(other)

        def backward(g):
            if self.requires_grad:
                ga = np.matmul(g, np.swapaxes(other.data, -1, -2))
                self._accumulate(_unbroadcast(ga, self.shape))
            if other.requires_grad:
                gb = np.matmul(np.swapaxes(self.data, -1, -2), g)
                other._accumulate(_unbroadcast(gb, other.shape))

        # BLAS picks a different (row-inconsistent) partitioning for
        # column-major right operands past a size threshold, which would
        # make batched inference disagree bitwise with looped inference.
        # Normalising B to row-major keeps row b of A @ B independent of
        # the number of rows in A; the copy is tiny next to the GEMM.
        b = other.data
        if b.ndim == 2 and not b.flags.c_contiguous:
            b = np.ascontiguousarray(b)
        return self._make(np.matmul(self.data, b), (self, other), backward)

    __matmul__ = matmul

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape

        def backward(g):
            if self.requires_grad:
                self._accumulate(np.asarray(g).reshape(old_shape))

        return self._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(g):
            if self.requires_grad:
                self._accumulate(np.transpose(g, inverse))

        return self._make(np.transpose(self.data, axes), (self,), backward)

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, key):
        def backward(g):
            if self.requires_grad:
                self._accumulate_indexed(key, g)

        return self._make(self.data[key], (self,), backward)

    def pad1d(self, left, right, value=0.0):
        """Pad the last axis with a constant (used by causal convolutions)."""
        widths = [(0, 0)] * (self.ndim - 1) + [(left, right)]
        length = self.shape[-1]

        def backward(g):
            if self.requires_grad:
                sl = [slice(None)] * (self.ndim - 1) + [slice(left, left + length)]
                self._accumulate(np.asarray(g)[tuple(sl)])

        return self._make(
            np.pad(self.data, widths, constant_values=value), (self,), backward)

    @staticmethod
    def concat(tensors, axis=0):
        tensors = [Tensor.ensure(t) for t in tensors]
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(g):
            g = np.asarray(g)
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(start, stop)
                    tensor._accumulate(g[tuple(sl)])

        data = np.concatenate([t.data for t in tensors], axis=axis)
        req = _GRAD_MODE.enabled and any(t.requires_grad for t in tensors)
        out = Tensor(data, requires_grad=req,
                     _prev=tuple(tensors) if req else ())
        if req:
            out._backward = backward
        return out

    @staticmethod
    def stack(tensors, axis=0):
        expanded = []
        for t in tensors:
            t = Tensor.ensure(t)
            shape = list(t.shape)
            shape.insert(axis if axis >= 0 else t.ndim + 1 + axis, 1)
            expanded.append(t.reshape(shape))
        return Tensor.concat(expanded, axis=axis)
