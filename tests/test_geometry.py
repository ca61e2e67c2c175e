"""Metrics, connections, the compatibility pairing and the Levi-Civita connection."""

import importlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from cuntzgeo import (
    AlgElem,
    Connection,
    Metric,
    MetricError,
    Monomial,
    OneForm,
    SymTensorMap,
    TensorElem,
    TwoForm,
    base_connection,
    christoffel,
    compatibility_map,
    curvature,
    curvature_operator,
    derive,
    koszul_correction,
    levi_civita,
    load_metric,
    print_tensor,
    ricci,
    scalar_curvature,
    torsion,
    unitarity_residual,
    wedge,
)
from cuntzgeo.calculus import WEDGE_PAIRS, _check_indices
from cuntzgeo.scalars import GScalar, I, ONE, rational

import dense_oracle
from support import (
    NO_SHRINK,
    adjugate_inverse,
    metrics,
    random_metric,
    reference_compatibility,
    reference_curvature,
    scalar_connections,
    wide_scalar_connections,
)


def g_of(x):
    return GScalar.of(Fraction(x))


HALF = rational(1, 2)
MINUS_HALF = rational(-1, 2)


# -- Metric construction and validation ---------------------------------------

def test_identity_metric():
    g = Metric.identity()
    assert g.entry(1, 1) == g_of(1)
    assert g.entry(1, 2) == g_of(0)
    assert g.det() == g_of(1)


def test_metric_rejects_asymmetric():
    with pytest.raises(MetricError, match="symmetric"):
        Metric([[1, 2, 0], [0, 1, 0], [0, 0, 1]])


def test_metric_rejects_singular():
    with pytest.raises(MetricError, match="determinant"):
        Metric([[1, 1, 0], [1, 1, 0], [0, 0, 1]])


# (cell, the metric it gives or the MetricError text): Metric and load_metric
# read each cell by one rule
_CELLS = {
    "int": (1, Metric.identity()),
    "Fraction": (Fraction(1), Metric.identity()),
    "GScalar": (ONE, Metric.identity()),
    "string": ("1/2 + i", Metric.diagonal(GScalar(Fraction(1, 2), 1), 1, 1)),
    "float": (1.0, 'metric entry 1.0 is a float; use an exact string like "1/2"'),
    "bool": (True, "metric entry is not a scalar: True"),
    "bad string": ("po/tato", "bad metric entry 'po/tato': "),
    "non-ASCII digit": ("١", "bad metric entry '١': unexpected character"),
    "non-scalar": (None, "metric entry is not a scalar: None"),
}


@pytest.mark.parametrize("kind", list(_CELLS))
def test_metric_and_load_metric_read_entries_by_one_rule(kind):
    cell, want = _CELLS[kind]
    rows = ((cell, 0, 0), (0, 1, 0), (0, 0, 1))
    if isinstance(want, Metric):
        assert Metric(rows) == load_metric(rows) == want
        return
    texts = []
    for build in (Metric, load_metric):
        with pytest.raises(MetricError) as err:
            build(rows)
        texts.append(str(err.value))
    assert texts[0] == texts[1]
    assert texts[0].startswith(want)


def test_metric_rejects_bad_shape():
    with pytest.raises(MetricError, match="3x3"):
        Metric([[1, 0], [0, 1]])


# a GScalar is a tuple of three ints, but it is one scalar, not a metric row
_SCALAR_ROWS = [ONE, I, ONE + I]


def test_metric_rejects_scalars_as_rows():
    with pytest.raises(MetricError, match="^metric must be a 3x3 array$"):
        Metric(_SCALAR_ROWS)
    with pytest.raises(MetricError, match="^metric must be a 3x3 array$"):
        Metric(tuple(_SCALAR_ROWS))


def test_load_metric_rejects_scalars_as_rows():
    with pytest.raises(MetricError, match="^metric must be a 3x3 array$"):
        load_metric(_SCALAR_ROWS)
    with pytest.raises(MetricError, match="^metric must be a 3x3 array$"):
        load_metric([[ONE, ONE, ONE], [ONE, ONE, ONE], ONE])


def test_load_metric_from_list():
    g = load_metric([["1", "1/2", "0"], ["1/2", "1", "0"], ["0", "0", "1"]])
    assert g.entry(1, 2) == g_of(Fraction(1, 2))


def test_load_metric_from_tuples():
    rows = ((1, 0, 0), (0, 1, 0), (0, 0, "3/2"))
    g = load_metric(rows)
    assert g == load_metric([list(row) for row in rows])
    assert g.entry(3, 3) == g_of(Fraction(3, 2))
    with pytest.raises(MetricError, match="3x3"):
        load_metric(((1, 0), (0, 1)))


def test_load_metric_from_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, "3/2"]]))
    g = load_metric(path)
    assert g.entry(3, 3) == g_of(Fraction(3, 2))


def test_load_metric_rejects_floats(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("[[1.5, 0, 0], [0, 1, 0], [0, 0, 1]]")
    with pytest.raises(MetricError, match="float"):
        load_metric(path)


def test_load_metric_rejects_bools():
    with pytest.raises(MetricError):
        load_metric([[True, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_load_metric_rejects_garbage_json(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("{not json")
    with pytest.raises(MetricError, match="JSON"):
        load_metric(path)


def test_load_metric_missing_file(tmp_path):
    with pytest.raises(MetricError, match="metric file"):
        load_metric(tmp_path / "absent.json")


def test_load_metric_rejects_non_matrix():
    with pytest.raises(MetricError):
        load_metric([["1", "0"], ["0", "1"]])


def test_load_metric_rejects_bad_entry_string():
    with pytest.raises(MetricError):
        load_metric([["po/tato", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])


# -- connections ---------------------------------------------------------------

def test_base_connection_values():
    c = base_connection()
    assert c.value(1) == TensorElem.basis(3, 2)
    assert c.value(2) == TensorElem.basis(1, 3)
    assert c.value(3) == TensorElem.basis(2, 1)


def test_base_connection_is_torsion_free():
    for t in torsion(base_connection()):
        assert t.is_zero()


def test_connection_requires_rank2():
    # a connection and a symmetric tensor map share one shape check
    t = TensorElem.basis(1, 1)  # rank 2 and symmetric
    for cls in (Connection, SymTensorMap):
        with pytest.raises(ValueError, match="rank-2"):
            cls((TensorElem.basis(1), TensorElem.basis(1), TensorElem.basis(1)))
        for vals in ((1, 2, 3), (t, t), (t,) * 4, (t, t, "x"),
                     (t, t, TensorElem.basis(1))):
            with pytest.raises(ValueError, match="three rank-2 tensors"):
                cls(vals)
        assert cls((t, t, t)).value(3) is t


def test_list_forms_are_their_tuple_forms():
    # values and metric rows are stored as tuples, so a list form is the same
    # value as its tuple form and hashes like it
    t = TensorElem.basis(1, 1)
    identity = Metric.identity()
    for listed, tupled in ((Connection([t, t, t]), Connection((t, t, t))),
                           (SymTensorMap([t, t, t]), SymTensorMap((t, t, t))),
                           (Metric([list(row) for row in identity.rows]), identity)):
        assert listed == tupled
        assert hash(listed) == hash(tupled)


def test_sym_tensor_map_rejects_asymmetric():
    t = TensorElem.basis(1, 2)  # not symmetric under leg swap
    with pytest.raises(ValueError, match="symmetric"):
        SymTensorMap((t, t, t))
    # two canonical forms of one element on (1, 2) and (2, 1): symmetric
    s1, s2, s3 = (AlgElem.generator(i) for i in (1, 2, 3))
    one = s1 * s1.adjoint() + 1
    other = s1 * s1.adjoint() * 2 + s2 * s2.adjoint() + s3 * s3.adjoint()
    assert one != other and one.equals(other)
    u = TensorElem.from_entries(2, {(1, 2): one, (2, 1): other, (3, 3): s1})
    assert SymTensorMap((u, u, u)).value(1) is u
    # mirror entries that really differ
    v = TensorElem.from_entries(2, {(1, 2): one, (2, 1): one + s1})
    with pytest.raises(ValueError, match="symmetric"):
        SymTensorMap((u, u, v))


# -- one rule for indices, across the package ------------------------------------

# Every entry point that takes a letter or a 1-based index, with the checked
# argument set to i; algebra._index is the one rule behind all of them.
_INDEX_ENTRY_POINTS = {
    "AlgElem.from_terms mu": lambda i: AlgElem.from_terms({Monomial((1, i), (2,)): 1}),
    "AlgElem.from_terms nu": lambda i: AlgElem.from_terms({Monomial((), (i,)): 1}),
    "AlgElem.generator": AlgElem.generator,
    "AlgElem.tree_action": lambda i: AlgElem.generator(1).tree_action((1, i)),
    "derive": lambda i: derive(i, AlgElem.generator(1)),
    "OneForm.basis": OneForm.basis,
    "OneForm.component": lambda i: OneForm.basis(1).component(i),
    "TwoForm.basis i": lambda i: TwoForm.basis(i, 3),
    "TwoForm.basis j": lambda i: TwoForm.basis(1, i),
    "TwoForm.component i": lambda i: TwoForm.basis(1, 2).component(i, 2),
    "TwoForm.component j": lambda i: TwoForm.basis(1, 2).component(1, i),
    "calculus._check_indices": lambda i: _check_indices(2, [(1, 2), (3, i)]),
    "TensorElem.entry": lambda i: TensorElem.basis(1, 2).entry(1, i),
    "Metric.entry i": lambda i: Metric.identity().entry(i, 1),
    "Metric.entry j": lambda i: Metric.identity().entry(1, i),
    "Connection.value": lambda i: base_connection().value(i),
    "SymTensorMap.value": lambda i: koszul_correction(Metric.identity()).value(i),
}


@pytest.mark.parametrize("name", sorted(_INDEX_ENTRY_POINTS))
def test_every_index_is_an_int_in_1_to_3(name):
    """0 and -1 would wrap around a 0-based tuple, 4 would overrun it, and
    True and 1.0 equal 1: each is a ValueError from the one rule."""
    for bad in (0, -1, 4, True, 1.0):
        with pytest.raises(ValueError, match=r"outside (alphabet )?1\.\.3$"):
            _INDEX_ENTRY_POINTS[name](bad)


@pytest.mark.parametrize("bad", [
    (True, 1, 1, 1), (1, 1.0, 1, 1), (1, 1, [1], 1), [1, 1, 1, 1]])
def test_an_index_among_many_is_checked_position_by_position(bad):
    """A bad index after the 54 valid keys that ``ricci`` checks is named
    in the message: a bool or float equal to 1, an unhashable position, and
    an index that is a list, not a tuple."""
    theta = curvature_operator(curvature(levi_civita(load_metric(ROADMAP_DENSE))))
    keys = [*theta, bad]
    _check_indices(4, keys[:-1])
    match = "does not have rank" if isinstance(bad, list) else r"outside 1\.\.3$"
    with pytest.raises(ValueError, match=match) as err:
        _check_indices(4, keys)
    assert repr(bad) in str(err.value)


def test_valid_indices_keep_their_values():
    g = Metric([[2, 1, 0], [1, 3, 1], [0, 1, 5]])
    conn, kz = levi_civita(g), koszul_correction(g)
    s1, zero = AlgElem.generator(1), AlgElem.zero()
    omega, w = OneForm.of(s1, 2, 3), TwoForm.of(s1, 2, 3)
    for i in (1, 2, 3):
        assert AlgElem.generator(i).terms == ((Monomial((i,), ()), ONE),)
        assert OneForm.basis(i).c == tuple(AlgElem.scalar(int(k == i)) for k in (1, 2, 3))
        assert omega.component(i) == omega.c[i - 1]
        assert conn.value(i) == conn.vals[i - 1] and kz.value(i) == kz.vals[i - 1]
        for j in (1, 2, 3):
            assert g.entry(i, j) == g.rows[i - 1][j - 1]
            assert conn.value(i).entry(i, j) == conn.vals[i - 1].entry_map().get((i, j), zero)
    for k, (i, j) in enumerate(WEDGE_PAIRS):
        assert TwoForm.basis(i, j).c == tuple(AlgElem.scalar(int(m == k)) for m in range(3))
        assert w.component(i, j) == w.c[k] and w.component(j, i) == -w.c[k]
        with pytest.raises(ValueError, match="basis pair"):
            TwoForm.basis(j, i)
    for i in (1, 2, 3):
        with pytest.raises(ValueError, match="no basis two-form"):
            w.component(i, i)


# -- compatibility pairing ------------------------------------------------------

def test_compatibility_table_at_identity():
    pi = compatibility_map(Metric.identity(), base_connection())
    basis = {1: (2, 3), 2: (1, 3), 3: (1, 2)}
    for m, (i, j) in basis.items():
        v = pi[i - 1][j - 1]
        assert v.component(m) == AlgElem.unit()
    for i in (1, 2, 3):
        assert pi[i - 1][i - 1].is_zero()


@given(metrics(), scalar_connections, wide_scalar_connections)
@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
def test_index_arithmetic_equals_the_tensor_references(g, conn, wide):
    # compatibility, unitarity and curvature by index arithmetic on the
    # Christoffel table are structurally equal to the tensor-algebra
    # references in support.py, on random scalar connections (neither
    # symmetric nor Levi-Civita; one with complex entries over several large
    # denominators) and on the Levi-Civita connection of g
    for c in (conn, wide, levi_civita(g)):
        reference = reference_compatibility(g, c)
        assert compatibility_map(g, c) == reference
        assert unitarity_residual(g, c) == reference
        assert curvature(c) == reference_curvature(c)


# every entry nonzero and complex; and the ROADMAP's dense real metric
COMPLEX_DENSE = [["2 + 1/2i", "1/3 - i", "1/5 + 2/7i"],
                 ["1/3 - i", "1 + 1/3i", "1/4i"],
                 ["1/5 + 2/7i", "1/4i", "3 - 2i"]]
ROADMAP_DENSE = [["3", "1/2", "1/3"], ["1/2", "5/7", "2/9"], ["1/3", "2/9", "11/13"]]

_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__")


@pytest.mark.parametrize("rows", [COMPLEX_DENSE, ROADMAP_DENSE])
def test_the_index_arithmetic_is_integer_arithmetic(monkeypatch, rows):
    # the geometry chain, Ricci and Scal run on Gaussian integers and
    # divide once per output entry: no GScalar or Fraction operator is called,
    # and each output is wrapped once, not checked, merged and sorted by the
    # TensorElem constructor
    g = load_metric(rows)
    conn = levi_civita(g)
    calls, makes = [], []

    def counted(method, log):
        def wrapper(*args):
            log.append(method)
            return method(*args)
        return wrapper

    for cls in (GScalar, Fraction):
        for name in _ARITHMETIC:
            if hasattr(cls, name):
                monkeypatch.setattr(cls, name, counted(getattr(cls, name), calls))
    monkeypatch.setattr(TensorElem, "__post_init__", counted(TensorElem.__post_init__, makes))
    theta = curvature_operator(curvature(conn))
    ric = ricci(theta)
    made, wrapped = {}, {}
    for name, run in (("levi_civita", lambda: levi_civita(g)),
                      ("koszul_correction", lambda: koszul_correction(g)),
                      ("compatibility_map", lambda: compatibility_map(g, conn)),
                      ("curvature", lambda: curvature(conn)),
                      ("ricci", lambda: ricci(theta)),
                      ("scalar_curvature", lambda: scalar_curvature(g, ric))):
        calls.clear()
        makes.clear()
        run()
        made[name], wrapped[name] = len(calls), len(makes)
    assert made == dict.fromkeys(made, 0)
    assert wrapped == dict.fromkeys(wrapped, 0)


def test_each_independent_entry_takes_one_dot_product(monkeypatch):
    # R_k(a, b, c) = -R_k(a, c, b), so the curvature takes one dot product
    # per b < c; the compatibility pairing and L^j are symmetric, so each
    # takes one per i <= j.  koszul_correction: 9 for adj(G), 1 for det(G)
    # and one 4-term dot per entry of L with i <= j, 18 in all
    g = load_metric(COMPLEX_DENSE)
    conn = levi_civita(g)
    geometry = importlib.import_module("cuntzgeo.geometry")
    dot = geometry._dot
    calls = []

    def counted(xs, ys):
        calls.append(None)
        return dot(xs, ys)

    for module in (geometry, importlib.import_module("cuntzgeo.curvature")):
        monkeypatch.setattr(module, "_dot", counted)
    made = {}
    for name, run in (("curvature", lambda: curvature(conn)),
                      ("compatibility_map", lambda: compatibility_map(g, conn)),
                      ("koszul_correction", lambda: koszul_correction(g))):
        calls.clear()
        run()
        made[name] = len(calls)
    assert made == {"curvature": 27, "compatibility_map": 18, "koszul_correction": 28}


def _counted_norm(monkeypatch, log):
    """Patch scalars._norm where the geometry chain calls it, logging each
    divisor."""
    norm = importlib.import_module("cuntzgeo.scalars")._norm

    def counted(a, b, d):
        log.append(d)
        return norm(a, b, d)

    for name in ("cuntzgeo.geometry", "cuntzgeo.curvature"):
        monkeypatch.setattr(importlib.import_module(name), "_norm", counted)


def test_each_output_entry_is_reduced_once(monkeypatch):
    # one gcd per independent entry: the curvature's mirror R_k(a, c, b) is
    # the reduced R_k(a, b, c) negated, and a Christoffel symbol is a reduced
    # entry of L shifted by the base table, which needs no second gcd
    g = load_metric(COMPLEX_DENSE)
    conn = levi_civita(g)
    calls = []
    _counted_norm(monkeypatch, calls)
    made = {}
    for name, run in (("curvature", lambda: curvature(conn)),
                      ("koszul_correction", lambda: koszul_correction(g)),
                      ("levi_civita", lambda: levi_civita(g))):
        calls.clear()
        run()
        made[name] = len(calls)
    assert made == {"curvature": 27, "koszul_correction": 18, "levi_civita": 18}


@pytest.mark.parametrize("rows", [
    COMPLEX_DENSE, ROADMAP_DENSE, [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
    [["1/2", "1/3", "1/5"], ["1/3", "-2/7", "1/11"], ["1/5", "1/11", "3"]],
    [["6", "4/3i", "0"], ["4/3i", "10/9", "2"], ["0", "2", "-5/4 + i"]]])
def test_koszul_divides_by_2_abs_det_g_squared(monkeypatch, rows):
    # every entry of L is reduced from a numerator over 2 |det(G)|², for the
    # Gaussian-integer metric G = D g and D the lcm of the metric's
    # denominators: D cancels, and no entry of g⁻¹ is reduced on its own
    g = load_metric(rows)
    d = math.lcm(*(x[2] for row in g.rows for x in row))
    x, y, one = g.scale(d).det()  # det(G), a Gaussian integer
    assert one == 1
    divisors = []
    _counted_norm(monkeypatch, divisors)
    koszul_correction(g)
    assert divisors == [2 * (x * x + y * y)] * 18


@given(metrics())
@example(Metric.identity())
@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
def test_koszul_correction_is_linear_in_the_inverse(g):
    """Every entry of L is Koszul's formula with both inverses but one
    cancelled, in plain GScalar arithmetic over the adjugate inverse.

    Indices are 0-based and taken mod 3; h = g⁻¹.  The base Christoffel
    table B_j is 1 at (j+2, j+1) only, so the compatibility pairing of the
    base connection is C(k,n,b) = [b = k+1] g(k+2,n) + [b = n+1] g(n+2,k),
    and unitarity of base + L, with T = -C lowered by g, reads
    T'(j,k,n) = -(g(j+2,k) g(j+1,n) + g(k+2,j) g(k+1,n)).  Koszul's trick
    gives L^j = h Z_j h for Z_j(k,n) = (T'(j,k,n) + T'(j,n,k) - T'(k,n,j))/2.
    Each of the six terms of Z_j holds a row of g, which cancels one h, as
    sum_k h(i,k) g(a,k) = δ(i,a).  The two terms g(j+2,·) g(j+1,·) hold two
    such rows, cancel both h and leave -B_j(i,p) and -B_j(p,i).  So

        2 L^j(i,p) = -(B_j(i,p) + B_j(p,i))
                     + h(i,p+1) g(p+2,j) + h(p,i+1) g(i+2,j)
                     - h(i,p+2) g(p+1,j) - h(p,i+2) g(i+1,j).

    ``test_uniqueness.py`` is the second reference, and it shares no
    formula with this one: the unitary torsion-free connection is unique.
    """
    def base(j, a, b):
        return int((a, b) == ((j + 2) % 3, (j + 1) % 3))

    m, h = g.rows, adjugate_inverse(g)
    kz = koszul_correction(g)
    for j in range(3):
        for i in range(3):
            for p in range(3):
                i1, i2, p1, p2 = (i + 1) % 3, (i + 2) % 3, (p + 1) % 3, (p + 2) % 3
                want = (-(base(j, i, p) + base(j, p, i))
                        + h[i][p1] * m[p2][j] + h[p][i1] * m[i2][j]
                        - h[i][p2] * m[p1][j] - h[p][i2] * m[i1][j]) / 2
                assert kz.value(j + 1).entry(i + 1, p + 1).as_scalar() == want


def test_non_scalar_christoffel_symbols_are_rejected():
    s1 = AlgElem.generator(1)
    base = base_connection()
    conn = Connection((TensorElem.basis(1, 1) * s1, base.value(2), base.value(3)))
    with pytest.raises(ValueError, match="not a scalar"):
        compatibility_map(Metric.identity(), conn)
    with pytest.raises(ValueError, match="not a scalar"):
        curvature(conn)


def test_tensor_indices_outside_1_to_3_are_rejected():
    """The constructor checks every index: an entry (1, 5) would land on
    Gamma_1(2, 2) in a flat table and (True, 2) would read as (1, 2).
    It checks an index even when its coefficient is zero."""
    for index, shown in (((1, 5), r"\(1, 5\)"), ((True, 2), r"\(True, 2\)")):
        with pytest.raises(ValueError, match=rf"^index {shown} outside 1\.\.3$"):
            TensorElem(2, ((index, AlgElem.scalar(1)),))
    with pytest.raises(ValueError, match=r"^index \(1, 2, 3\) does not have rank 2$"):
        TensorElem(2, (((1, 2, 3), AlgElem.scalar(1)),))
    with pytest.raises(ValueError, match=r"^index \(1, 5\) outside 1\.\.3$"):
        TensorElem.from_entries(2, {(1, 5): 0})


_TENSOR_READERS = {
    "wedge": wedge,
    "torsion": lambda t: torsion(Connection((t, t, t))),
    "christoffel": lambda t: christoffel(Connection((t, t, t))),
    "print_tensor": print_tensor,
}


@pytest.mark.parametrize("index", [(1, 5), (True, 2)], ids=["1-5", "True-2"])
@pytest.mark.parametrize("reader", sorted(_TENSOR_READERS))
def test_no_tensor_reader_meets_an_index_outside_1_to_3(reader, index):
    """Unchecked, these readers misread such an entry without an error:
    ``wedge`` gives e12 for (True, 2) and 0 for (1, 5), ``torsion`` and
    ``christoffel`` follow it, and ``print_tensor`` prints e1(x)e5.  The
    tensor is built inside the check, so the constructor raises first."""
    with pytest.raises(ValueError, match=r"^index \(\w+, \d\) outside 1\.\.3$"):
        _TENSOR_READERS[reader](TensorElem(2, ((index, AlgElem.scalar(1)),)))


# -- the Levi-Civita connection --------------------------------------------------

def test_levi_civita_at_identity():
    conn = levi_civita(Metric.identity())
    gamma = christoffel(conn)
    expected_half = {(1, 3, 2), (2, 1, 3), (3, 2, 1)}
    expected_minus = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}
    for key, val in gamma.items():
        if key in expected_half:
            assert val == AlgElem.scalar(HALF)
        elif key in expected_minus:
            assert val == AlgElem.scalar(MINUS_HALF)
        else:
            assert val.is_zero()


def test_levi_civita_diag_1_1_2():
    conn = levi_civita(Metric.diagonal(1, 1, 2))
    gamma = christoffel(conn)
    q = Fraction(1, 4)
    assert gamma[(1, 3, 2)] == AlgElem.scalar(GScalar.of(q))
    assert gamma[(1, 2, 3)] == AlgElem.scalar(GScalar.of(-3 * q))
    assert gamma[(2, 1, 3)] == AlgElem.scalar(GScalar.of(3 * q))
    assert gamma[(2, 3, 1)] == AlgElem.scalar(GScalar.of(-q))
    assert gamma[(3, 2, 1)] == AlgElem.scalar(HALF)
    assert gamma[(3, 1, 2)] == AlgElem.scalar(MINUS_HALF)


def test_levi_civita_matches_dense_oracle_on_seeded_metrics():
    rng = random.Random(20260814)
    for _ in range(6):
        g = random_metric(rng)
        conn = levi_civita(g)
        gamma = christoffel(conn)
        rows = [[g.entry(i, j).re for j in (1, 2, 3)] for i in (1, 2, 3)]
        dense = dense_oracle.lc_gamma(rows)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    want = dense[i - 1][j - 1][k - 1]
                    got = gamma[(i, j, k)].as_scalar()
                    assert got is not None and got.im == 0
                    assert got.re == want


@pytest.mark.parametrize("seed", range(6))
def test_torsion_matches_dense_oracle_on_random_connections(seed):
    """torsion(conn)[i] on e_ab is the oracle's Gamma_i(a, b) - Gamma_i(b, a)
    + d(e_i)_ab, on connections built from random Fraction tables; the
    oracle's diagonal is 0, as a two-form has no e_aa."""
    rng = random.Random(seed)
    gamma = [[[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.6
               else Fraction(0) for _ in range(3)] for _ in range(3)] for _ in range(3)]
    conn = Connection(tuple(
        TensorElem.from_entries(2, {(a + 1, b + 1): GScalar.of(gi[a][b])
                                    for a in range(3) for b in range(3)})
        for gi in gamma))
    want = dense_oracle.torsion_residual(gamma)
    for i, t in enumerate(torsion(conn)):
        for a in range(3):
            assert want[i][a][a] == 0
            for b in set(range(3)) - {a}:
                got = t.component(a + 1, b + 1).as_scalar()
                assert got is not None and got.im == 0 and got.re == want[i][a][b]


@given(metrics())
@example(Metric.identity())
@example(Metric.identity().scale(2))
@example(Metric.diagonal(1, 1, 2))
@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
def test_levi_civita_is_torsion_free_and_unitary(g):
    # every metric class with entries up to 32 bits; with the determinant
    # identity of test_uniqueness.py this makes levi_civita(g) the unique
    # torsion-free unitary connection
    conn = levi_civita(g)
    for t in torsion(conn):
        assert t.is_zero()
    for row in unitarity_residual(g, conn):
        for v in row:
            assert v.is_zero()


def test_levi_civita_scaling_invariance():
    g = Metric.diagonal(1, 1, 2)
    a = christoffel(levi_civita(g))
    b = christoffel(levi_civita(g.scale(GScalar.of(Fraction(7, 3)))))
    assert a == b


def test_perturbed_connection_breaks_unitarity():
    # uniqueness, negatively: nudging one Christoffel symbol must show up
    # in the compatibility residual
    g = Metric.identity()
    conn = levi_civita(g)
    bump = TensorElem.from_entries(2, {(1, 1): AlgElem.scalar(rational(1, 5))})
    vals = (conn.value(1) + bump, conn.value(2), conn.value(3))
    residual = unitarity_residual(g, Connection(vals))
    assert any(not v.is_zero() for row in residual for v in row)


# -- the closed form -------------------------------------------------------------

@given(metrics())
@example(Metric.identity())
@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
def test_levi_civita_is_base_plus_koszul_in_canonical_form(g):
    # levi_civita builds base + L as one integer table and every output is
    # wrapped straight from its reduced scalars: the result is the shifted
    # base connection, structurally, and each tensor is the stored form
    # that the TensorElem constructor gives (index-sorted, no zero entry)
    conn = levi_civita(g)
    kz = koszul_correction(g)
    assert conn == base_connection().shifted(kz)
    curv = curvature(conn)
    for t in (*conn.vals, *kz.vals, *curv, ricci(curvature_operator(curv))):
        assert t == TensorElem(t.rank, t.entries)
