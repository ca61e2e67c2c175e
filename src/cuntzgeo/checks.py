"""Self-verification: recompute the canonical identity table and compare.

Each check re-derives one identity of the calculus from scratch through the
public API and compares the canonical printout against the expected value.
``info`` entries record known documentation-level discrepancies (they never
fail the run); everything else must match exactly — there are no tolerances
anywhere.
"""

from __future__ import annotations

from .algebra import _INDICES, AlgElem, _Record
from .calculus import (
    BASIS_DIFFERENTIALS,
    OneForm,
    TensorElem,
    WEDGE_PAIRS,
    _basis_differentials_from_presentations,
    d0,
    derive,
    junk_project,
    represented_product,
    tensor_product,
    wedge,
)
from .curvature import curvature_report
from .exprs import print_canonical
from .geometry import (
    Metric,
    base_connection,
    christoffel,
    compatibility_map,
    koszul_correction,
    levi_civita,
    torsion,
    unitarity_residual,
)
from .scalars import GScalar


class CheckResult(_Record):
    """One row of the identity table; ``status`` is "pass", "fail" or "info"."""

    __slots__ = ("ident", "anchor", "expected", "computed", "status")

    def __init__(self, ident: str, anchor: str, expected: str, computed: str,
                 status: str) -> None:
        super().__init__(ident, anchor, expected, computed, status)


def _check(ident: str, anchor: str, expected: str, computed) -> CheckResult:
    text = computed if isinstance(computed, str) else print_canonical(computed)
    status = "pass" if text == expected else "fail"
    return CheckResult(ident, anchor, expected, text, status)


def _tensor_table(t: TensorElem) -> str:
    """Compact deterministic text for a tensor: 'idx:coeff' joined by ', '."""
    if not t.entries:
        return "0"
    return ", ".join(
        f"{''.join(map(str, idx))}:{print_canonical(c)}" for idx, c in t.entries)


def run_checks() -> list[CheckResult]:
    out: list[CheckResult] = []
    s = tuple(AlgElem.generator(i) for i in _INDICES)

    # Cuntz relations.
    for i in _INDICES:
        out.append(_check(
            f"cuntz.isometry.{i}", f"S{i}* S{i} = 1", "1",
            s[i - 1].adjoint() * s[i - 1]))
    total = sum((s[i - 1] * s[i - 1].adjoint() for i in _INDICES), AlgElem.zero())
    out.append(_check(
        "cuntz.completeness", "S1 S1* + S2 S2* + S3 S3* = 1", "1", total))

    # Derivation table.
    table = {
        (1, 1): "0", (1, 2): "- S3", (1, 3): "S2",
        (2, 1): "- S3", (2, 2): "0", (2, 3): "S1",
        (3, 1): "S2", (3, 2): "- S1", (3, 3): "0",
    }
    for (i, j), expected in sorted(table.items()):
        out.append(_check(
            f"derivation.d{i}.S{j}", f"d{i}(S{j}) = {expected}", expected,
            derive(i, s[j - 1])))

    # Commutators, recomputed on all generators and adjoints.
    brackets = {(1, 2): (3, -1), (2, 3): (1, -1), (1, 3): (2, 1)}
    for (a, b), (k, sign) in sorted(brackets.items()):
        ok = all((derive(a, derive(b, x)) - derive(b, derive(a, x))).equals(
                     derive(k, x).scale(GScalar.of(sign)))
                 for x in (*s, *(g.adjoint() for g in s)))
        text = f"{'-' if sign < 0 else ''}d{k}"
        out.append(_check(f"derivation.bracket.{a}{b}", f"[d{a},d{b}] = {text}",
                          text, text if ok else "mismatch"))
    out.append(CheckResult(
        "derivation.bracket.note",
        "recomputed brackets differ in sign from the stated table for "
        "[d2,d3] and [d1,d3]",
        "[d2,d3] = d1, [d1,d3] = -d2 (as stated)",
        "[d2,d3] = -d1, [d1,d3] = d2 (recomputed)",
        "info"))

    # Basis one-form presentations.
    presentations = (
        ("S2* d(S3) = e1", s[1].adjoint(), s[2], "e1"),
        ("S1* d(S3) = e2", s[0].adjoint(), s[2], "e2"),
        ("S1* d(S2) = - e3", s[0].adjoint(), s[1], "- e3"),
    )
    for anchor, left, right, expected in presentations:
        out.append(_check(
            f"oneform.presentation.{expected.strip('- ')}",
            anchor, expected, left * d0(right)))

    # Junk component of a represented square.
    rep = represented_product(d0(s[0].adjoint()), d0(s[0]))
    out.append(_check(
        "junk.identity-component", "d(S1*) d(S1) has identity component 2",
        "2", rep.junk))
    out.append(_check(
        "junk.wedge-part", "d(S1*) d(S1) has zero two-form part",
        "0", junk_project(rep)))

    # Wedge on basis tensors.
    for i in _INDICES:
        for j in _INDICES:
            if i == j:
                expected = "0"
            elif (i, j) in WEDGE_PAIRS:
                expected = f"e{i}{j}"
            else:
                expected = f"- e{j}{i}"
            out.append(_check(
                f"wedge.basis.{i}{j}", f"wedge(e{i} ⊗ e{j}) = {expected}",
                expected,
                wedge(tensor_product(TensorElem.basis(i), OneForm.basis(j)))))

    # Differentials of the basis one-forms, two ways.
    recomputed = _basis_differentials_from_presentations()
    de_expected = ("e23", "- e13", "e12")
    for i in _INDICES:
        out.append(_check(
            f"oneform.differential.e{i}", f"d(e{i}) = {de_expected[i - 1]}",
            de_expected[i - 1], BASIS_DIFFERENTIALS[i - 1]))
        out.append(_check(
            f"oneform.differential.e{i}.presentation",
            f"d(e{i}) from its presentation agrees with the constant",
            de_expected[i - 1], recomputed[i - 1]))

    # The base connection is torsion-free.
    for i, t in zip(_INDICES, torsion(base_connection())):
        out.append(_check(
            f"base-connection.torsion.e{i}", f"torsion of the base at e{i} is 0",
            "0", t))

    # Compatibility of the base connection at the identity metric.
    g1 = Metric.identity()
    pairing = compatibility_map(g1, base_connection())
    compat_expected = {(1, 2): "e3", (1, 3): "e2", (2, 3): "e1"}
    for i in _INDICES:
        for j in _INDICES:
            if i == j:
                expected = "0"
            else:
                expected = compat_expected[(min(i, j), max(i, j))]
            out.append(_check(
                f"base-connection.compatibility.{i}{j}",
                f"compatibility(e{i}, e{j}) = {expected}", expected,
                pairing[i - 1][j - 1]))

    # Closed-form correction table at the identity metric.
    kz = koszul_correction(g1)
    for j in _INDICES:
        for i in _INDICES:
            for m in _INDICES:
                expected = "- 1/2" if len({i, j, m}) == 3 else "0"
                out.append(_check(
                    f"correction.closed-form.{j}{i}{m}",
                    f"L{j}({i},{m}) = {expected}", expected,
                    kz.value(j).entry(i, m)))

    # Christoffel table of the solved connection at the identity metric.
    conn = levi_civita(g1)
    gamma = christoffel(conn)
    plus = {(1, 3, 2), (2, 1, 3), (3, 2, 1)}
    minus = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}
    for key in sorted(gamma):
        expected = "1/2" if key in plus else "- 1/2" if key in minus else "0"
        out.append(_check(
            "christoffel.{}{}{}".format(*key),
            "Gamma{} = {}".format("".join(map(str, key)), expected),
            expected, gamma[key]))

    # The solved connection is torsion-free and unitary.
    for i, t in zip(_INDICES, torsion(conn)):
        out.append(_check(
            f"levi-civita.torsion.e{i}", f"torsion at e{i} is 0", "0", t))
    residual = unitarity_residual(g1, conn)
    for i in _INDICES:
        for j in _INDICES:
            out.append(_check(
                f"levi-civita.unitarity.{i}{j}",
                f"compatibility({i},{j}) - dg({i},{j}) = 0", "0",
                residual[i - 1][j - 1]))

    # Curvature, Ricci and the scalar.
    report = curvature_report(g1)
    for i in _INDICES:
        others = [k for k in _INDICES if k != i]
        expected_entries: dict[tuple[int, int, int], str] = {}
        for k in others:
            expected_entries[(k, k, i)] = "1/8"
            expected_entries[(k, i, k)] = "- 1/8"
        expected = ", ".join(
            f"{''.join(map(str, idx))}:{val}"
            for idx, val in sorted(expected_entries.items()))
        out.append(_check(
            f"curvature.R.e{i}",
            f"R(e{i}) has the eight ±1/8 entries", expected,
            _tensor_table(report.curv[i - 1])))
    for a in _INDICES:
        for b in _INDICES:
            expected = "- 1/4" if a == b else "0"
            out.append(_check(
                f"curvature.ricci.{a}{b}", f"Ric({a},{b}) = {expected}",
                expected, report.ric.entry(a, b)))
    out.append(_check(
        "curvature.scalar", "Scal = - 3/4", "- 3/4", report.scalar))

    return out
