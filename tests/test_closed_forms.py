"""Closed forms of Ricci and Scal for every constant metric, as an oracle
that shares no code with the geometry chain.

With e₁ = tr G, e₂ = tr adj G (the sum of the principal 2×2 minors) and
e₃ = det G, the chain of ``curvature_report`` gives

    Scal = e₂²/(4e₃) − e₁,
    Ric  = −I + (e₂/(2e₃))(e₁I − G) − (e₂²/(4e₃))G⁻¹,

for real and complex symmetric G alike.  The forms are computed here in
plain (re, im) pairs of Fractions, with G⁻¹ = adj G / e₃, and compared with
the chain's output entry by entry.

Why a few sampled metrics say much (Schwartz, J. ACM 27(4), 1980; Zippel,
EUROSAM 1979).  The chain computes the connection as L/e₃ with L of degree
3 in the six entries of G, and the curvature R as a quadratic in the
connection plus a linear term, so R·e₃² has degree at most 6.  Ricci
contracts R, so Ric·e₃² has degree at most 6, and Scal pairs Ricci with G,
so Scal·e₃² has degree at most 7.  Times 4e₃², the closed forms are
−4e₃²I + 2e₂e₃(e₁I − G) − e₂² adj G (degree 6) and (e₂² − 4e₁e₃)e₃
(degree 7).  So each difference, times 4e₃², is a polynomial of degree at
most 7 in the entries.  If it is not identically zero and the entries are
drawn independently and uniformly from a set of N values, it vanishes at
the draw with probability at most 7/N.  A part of height 2 is one of 15
rationals, so a point bounds that chance only by 7/15; a part of height 32
is one of about 2⁶⁴, where 7/N is negligible.  Hypothesis does not draw
uniformly, so the bound guides its draws rather than guarantees them.
Diagonal metrics restrict the polynomial to the diagonal, and the same
bound holds for the restriction.  The argument covers code that computes
one rational function of the entries; a defect that only some inputs
trigger (a branch on a value) is not covered.
"""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzgeo import cli, curvature_report

from support import METRIC_CLASSES, NO_SHRINK, fraction_pair, metrics

Pair = tuple[Fraction, Fraction]


def _add(x: Pair, y: Pair) -> Pair:
    return x[0] + y[0], x[1] + y[1]


def _sub(x: Pair, y: Pair) -> Pair:
    return x[0] - y[0], x[1] - y[1]


def _mul(x: Pair, y: Pair) -> Pair:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _div(x: Pair, y: Pair) -> Pair:
    norm = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm


def _const(n) -> Pair:
    return Fraction(n), Fraction(0)


def closed_forms(g: list[list[Pair]]) -> tuple[list[list[Pair]], Pair]:
    """(Ric, Scal) of the metric g by the closed forms, 0-based."""
    # adj[i][j] is the cofactor of g[j][i]; g is symmetric, so of g[i][j]
    adj = [[_sub(_mul(g[(j + 1) % 3][(i + 1) % 3], g[(j + 2) % 3][(i + 2) % 3]),
                 _mul(g[(j + 1) % 3][(i + 2) % 3], g[(j + 2) % 3][(i + 1) % 3]))
            for j in range(3)] for i in range(3)]
    e1 = _add(_add(g[0][0], g[1][1]), g[2][2])
    e2 = _add(_add(adj[0][0], adj[1][1]), adj[2][2])
    e3 = _add(_add(_mul(g[0][0], adj[0][0]), _mul(g[0][1], adj[1][0])),
              _mul(g[0][2], adj[2][0]))
    half_ratio = _div(e2, _mul(_const(2), e3))       # e₂/(2e₃)
    quarter = _div(_mul(e2, e2), _mul(_const(4), e3))  # e₂²/(4e₃)
    ric = [[None] * 3 for _ in range(3)]
    for i, j in itertools.product(range(3), repeat=2):
        delta = _const(i == j)
        entry = _sub(_mul(half_ratio, _sub(_mul(e1, delta), g[i][j])),
                     _mul(quarter, _div(adj[i][j], e3)))
        ric[i][j] = _sub(entry, delta)
    return ric, _sub(quarter, e1)


@pytest.mark.parametrize("height", [2, 32])
@pytest.mark.parametrize("cls", METRIC_CLASSES)
@given(data=st.data())
@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
def test_ricci_and_scal_match_the_closed_forms(cls, height, data):
    g = data.draw(metrics(classes=(cls,), heights=(height,)), label="g")
    ric, scal = closed_forms([[fraction_pair(x) for x in row] for row in g.rows])
    rep = curvature_report(g)
    assert fraction_pair(rep.scalar.as_scalar()) == scal
    for i, j in itertools.product(range(3), repeat=2):
        assert fraction_pair(rep.ric.entry(i + 1, j + 1).as_scalar()) == ric[i][j]


def test_closed_forms_at_the_identity():
    """Acceptance criterion 1: Ric = −¼·I and Scal = −3/4 at G = I."""
    one, zero = _const(1), _const(0)
    ric, scal = closed_forms([[one if i == j else zero for j in range(3)]
                              for i in range(3)])
    assert scal == _const(Fraction(-3, 4))
    assert ric == [[_const(Fraction(-1, 4)) if i == j else zero for j in range(3)]
                   for i in range(3)]


def test_scal_is_zero_when_e2_squared_is_4_e1_e3(tmp_path, capsys):
    """diag(1, 1, 1/4): e₁ = 9/4, e₂ = 3/2, e₃ = 1/4, so e₂² = 4e₁e₃."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, "1/4"]]))
    assert cli.main(["curvature", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "scalar = 0" in lines
    assert "Ric 1 1 = 1/2" in lines
