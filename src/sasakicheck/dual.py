"""Forward-mode differentiation with dual numbers.

A :class:`Dual` carries a value together with a tuple of partial
derivatives with respect to the chart coordinates.  Both the value and
the gradient entries may themselves be ``Dual`` instances: nesting one
differentiation pass inside another yields exact second derivatives
without a separate engine.

Field component functions are ordinary Python closures written with
``+ - * / **`` and the generic ``exp/log/sin/cos/sqrt`` below, so the
same closure evaluates on floats and on duals, with the same value bits:
x / y is x.val / y.val at every nesting level, one division rule.
The contract is elementwise: a closure must also accept numpy arrays of
coordinates (one entry per sample point), and duals whose values and
gradient entries are such arrays, and give the stack of its per-point
results.  Floats keep the ``math`` functions, arrays use the numpy ones
with the same domain errors.  ``exp`` is the exception: numpy's ``exp``
rounds differently from libm's in a few percent of inputs, so on arrays
it applies ``math.exp`` entry by entry, and a stack of points gets the
bits (and the ``OverflowError``) each point would get alone.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Dual",
    "real_part",
    "innermost",
    "value_part",
    "grad_part",
    "seed",
    "take",
    "exp",
    "log",
    "sin",
    "cos",
    "sqrt",
]

_OPERANDS = (int, float, np.ndarray)


class Dual:
    __slots__ = ("val", "grad")
    # numpy defers to the reflected Dual operators instead of building object arrays
    __array_ufunc__ = None

    def __init__(self, val, grad):
        self.val = val
        self.grad = tuple(grad)

    def _coerce(self, other):
        if isinstance(other, Dual):
            if len(other.grad) != len(self.grad):
                raise ValueError(
                    "mixed dual gradients of lengths "
                    f"{len(self.grad)} and {len(other.grad)}"
                )
            return other
        return Dual(other, (0.0,) * len(self.grad))

    def __add__(self, other):
        if not isinstance(other, (Dual, *_OPERANDS)):
            return NotImplemented
        o = self._coerce(other)
        return Dual(self.val + o.val, tuple(a + b for a, b in zip(self.grad, o.grad)))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (Dual, *_OPERANDS)):
            return NotImplemented
        o = self._coerce(other)
        return Dual(self.val - o.val, tuple(a - b for a, b in zip(self.grad, o.grad)))

    def __rsub__(self, other):
        o = self._coerce(other)
        return Dual(o.val - self.val, tuple(a - b for a, b in zip(o.grad, self.grad)))

    def __mul__(self, other):
        if not isinstance(other, (Dual, *_OPERANDS)):
            return NotImplemented
        o = self._coerce(other)
        return Dual(
            self.val * o.val,
            tuple(a * o.val + self.val * b for a, b in zip(self.grad, o.grad)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (Dual, *_OPERANDS)):
            return NotImplemented
        o = self._coerce(other)
        if _any(innermost(o.val) == 0.0):
            raise ZeroDivisionError("division by a dual number with zero real part")
        q = self.val / o.val
        return Dual(q, tuple((a - q * b) / o.val for a, b in zip(self.grad, o.grad)))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return Dual(-self.val, tuple(-a for a in self.grad))

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("dual numbers support integer exponents only")
        return _ipow(self, n)

    def __repr__(self):
        return f"Dual({self.val!r}, {self.grad!r})"


def innermost(x):
    """``x`` with all dual layers stripped: a float or an array."""
    while isinstance(x, Dual):
        x = x.val
    return x


def _any(mask) -> bool:
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def _check_domain(x, bad, message: str) -> None:
    """ValueError with ``message`` naming the first entry of ``x`` where ``bad`` holds."""
    if _any(bad):
        raise ValueError(message.format(float(x[bad].flat[0]) if isinstance(x, np.ndarray) else x))


def _ipow(x, n):
    """x^n by repeated squaring; products commute bit for bit, so x^3 = x * (x * x)."""
    if n == 0:
        return 1.0
    if n < 0:
        return 1.0 / _ipow(x, -n)
    out = None
    while True:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if not n:
            return out
        x = x * x


def real_part(x) -> float:
    """Strip all dual layers and return the underlying float."""
    return float(innermost(x))


def value_part(x):
    """Value of ``x`` one dual level down (identity for plain numbers)."""
    return x.val if isinstance(x, Dual) else x


def grad_part(x, dim: int):
    """Gradient tuple of ``x`` (zeros for plain numbers)."""
    return x.grad if isinstance(x, Dual) else (0.0,) * dim


def seed(coords):
    """Lift coordinates to duals carrying unit derivative seeds.

    The entries of ``coords`` may themselves be duals from an enclosing
    differentiation pass; the seeds introduced here are plain floats, so
    the levels never mix.
    """
    d = len(coords)
    return [
        Dual(coords[k], tuple(1.0 if j == k else 0.0 for j in range(d)))
        for k in range(d)
    ]


def take(x, i: int):
    """``x`` at point i of a stack: each array in it replaced by its entry i."""
    if isinstance(x, Dual):
        return Dual(take(x.val, i), tuple(take(g, i) for g in x.grad))
    return float(x[i]) if isinstance(x, np.ndarray) else x


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.val)
        return Dual(e, tuple(e * g for g in x.grad))
    if isinstance(x, np.ndarray):
        return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return math.exp(x)


def log(x):
    if isinstance(x, Dual):
        r = innermost(x.val)
        _check_domain(r, r <= 0.0, "log domain error: real part {} <= 0")
        return Dual(log(x.val), tuple(g / x.val for g in x.grad))
    _check_domain(x, x <= 0.0, "log domain error: input must be > 0, got {}")
    return np.log(x) if isinstance(x, np.ndarray) else math.log(x)


def sin(x):
    if isinstance(x, Dual):
        c = cos(x.val)
        return Dual(sin(x.val), tuple(c * g for g in x.grad))
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        s = sin(x.val)
        return Dual(cos(x.val), tuple(-(s * g) for g in x.grad))
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def sqrt(x):
    if isinstance(x, Dual):
        r = innermost(x.val)
        _check_domain(r, r <= 0.0, "sqrt domain error: real part {} <= 0")
        s = sqrt(x.val)
        return Dual(s, tuple(g / (2.0 * s) for g in x.grad))
    _check_domain(x, x < 0.0, "sqrt domain error: input must be >= 0, got {}")
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)
