"""Drawn expressions against ``evaluate`` and against sympy.

A derandomized hypothesis strategy draws expression strings from the
``exprs`` grammar (``+ - * / ^int``, ``exp``, ``sin``, ``cos``,
literals, ``s``, ``t``), fully parenthesized and at most four levels
deep, and runs each on seeded points of [-1, 1]^2:

* the value of its first-order jet (``fields.jet``) and of its nested
  second-order dual pass, as ``hypersurface.frame_stack`` takes the
  embedding's, equal ``fields.evaluate`` bit for bit;
* the nested pass's Jacobian and Hessian equal sympy's derivatives of
  the same string (``^`` read as ``**``), evaluated in 40-digit
  arithmetic, within 1e-12 * max(1, |exact|);
* divided by ``s - t`` on a stack whose first point has s = t, every
  path raises a ``SasakicheckError`` naming that point.

A draw whose domain fails on the points (a zero divisor, an overflow, a
non-finite derivative) is skipped, and the sympy comparison leaves out a
point where some parenthesized part of the draw exceeds ``PART_BOUND``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sasakicheck.dual import grad_part, innermost, seed
from sasakicheck.errors import SasakicheckError
from sasakicheck.exprs import compile_expression
from sasakicheck.fields import PointStack, TensorField, evaluate, jet

sp = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

VARIABLES = ["s", "t"]
# in rounding, forward-mode derivatives of a removable singularity such as
# sin(s) / s cancel near it, so the points keep 0.25 from s = 0, t = 0 and s = +-t
_DRAWN = np.random.default_rng(2031).uniform(-1.0, 1.0, size=(64, 2))
POINTS = PointStack(_DRAWN[np.all(np.abs([*_DRAWN.T, _DRAWN @ [1, 1], _DRAWN @ [1, -1]]) >= 0.25,
                                  axis=0)][:8])
# a point where a parenthesized part exceeds this in magnitude leaves the sympy
# comparison: there rounding alone moves sin(exp(49 s^2)) by more than its tolerance
PART_BOUND = 100.0
DIAGONAL = (0.375, 0.375)
_LEAVES = st.sampled_from(["s", "t", "2", "3", "0.3", "1.5", "7"])


@st.composite
def _expressions(draw, depth=4):
    """A string nesting at most ``depth`` operations, and at least two at the top."""
    if depth == 0 or (depth < 3 and draw(st.booleans())):
        return draw(_LEAVES)
    kind = draw(st.sampled_from(["binary", "binary", "power", "call", "minus"]))
    a = draw(_expressions(depth - 1))
    if kind == "binary":
        return f"({a} {draw(st.sampled_from('+-*/'))} {draw(_expressions(depth - 1))})"
    if kind == "power":
        return f"({a})^{draw(st.sampled_from([-2, -1, 2, 3]))}"
    if kind == "call":
        return f"{draw(st.sampled_from(['exp', 'sin', 'cos']))}({a})"
    return f"-({a})"


def _field(text):
    return TensorField((0, 0), 2, compile_expression(text, VARIABLES))


def _parts(text):
    """Every parenthesized part of a drawn string, and the string itself."""
    parts, opened = [text], []
    for i, ch in enumerate(text):
        if ch == "(":
            opened.append(i)
        elif ch == ")":
            parts.append(text[opened.pop() + 1:i])
    return parts


def _within_bound(part):
    """The points where a part evaluates within ``PART_BOUND``; none where it fails."""
    try:
        return np.abs(evaluate(_field(part), POINTS)) <= PART_BOUND
    except SasakicheckError:
        return np.zeros(len(POINTS), dtype=bool)


def _nested_pass(fld, stack):
    """Values, Jacobians (P, 2) and Hessians (P, 2, 2) from one nested dual
    pass, as ``hypersurface._map_pass`` takes the embedding's."""
    count = len(stack)
    with np.errstate(all="ignore"):
        out = fld.func(seed(seed(stack.columns)))
        value = np.broadcast_to(innermost(out), (count,)).astype(float)
        jac = np.empty((count, 2))
        hess = np.empty((count, 2, 2))
        for a, g in enumerate(grad_part(out, 2)):
            jac[:, a] = innermost(g)
            for c, gg in enumerate(grad_part(g, 2)):
                hess[:, a, c] = gg
    return value, jac, hess


def _exact_derivatives(text, stack):
    s, t = sp.symbols("s t")
    f = sp.sympify(text.replace("^", "**"), locals={"s": s, "t": t})
    grads = [sp.diff(f, x) for x in (s, t)]
    hess = [[sp.diff(g, x) for x in (s, t)] for g in grads]
    fn = sp.lambdify((s, t), [grads, hess], modules="mpmath")
    with mpmath.workdps(40):
        exact = [fn(mpmath.mpf(p), mpmath.mpf(q)) for p, q in stack.coords.tolist()]
        return (np.array([[float(v) for v in g] for g, _ in exact]),
                np.array([[[float(v) for v in r] for r in h] for _, h in exact]))


@settings(max_examples=150, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=_expressions())
def test_drawn_expression_jets_match_evaluate_and_sympy(text):
    fld = _field(text)
    try:
        want = evaluate(fld, POINTS)
        first = jet(fld, POINTS)
    except SasakicheckError:
        return
    value, jac, hess = _nested_pass(fld, POINTS)
    assert first.value.tobytes() == want.tobytes(), text
    assert value.tobytes() == want.tobytes(), text
    if not (np.isfinite(jac).all() and np.isfinite(hess).all()):
        return
    kept = np.all([_within_bound(part) for part in _parts(text)], axis=0)
    exact_jac, exact_hess = _exact_derivatives(text, POINTS)
    for got, exact in ((jac, exact_jac), (hess, exact_hess)):
        assert np.all((np.abs(got - exact) <= 1e-12 * np.maximum(1.0, np.abs(exact)))[kept]), text


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(text=_expressions(3))
def test_drawn_zero_divisor_names_the_first_point_on_every_path(text):
    try:
        evaluate(_field(text), POINTS)
    except SasakicheckError:
        return
    fld = _field(f"({text}) / (s - t)")
    stack = PointStack([DIAGONAL, *POINTS.coords.tolist()])
    point = ", ".join(map(repr, DIAGONAL))
    for path in (evaluate, jet, _nested_pass):
        with pytest.raises(SasakicheckError) as err:
            path(fld, stack)
        assert point in str(err.value), (path.__name__, str(err.value))
