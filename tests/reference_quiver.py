"""The moment map in the Fraction arithmetic of ``reference_linalg``, the
oracle for the package's integer-row evaluator ``quiver.moment_map_vanishes``.

Each block mu_k is built from reference matrix products and sums; nothing in
the package imports this module.
"""

from __future__ import annotations

import reference_linalg as ref
from geocrystal.quiver import QuiverRep


def moment_map(r: QuiverRep) -> list[ref.RatMat]:
    """mu_k = sum over edges into k of sign(h) B_h B_hbar, plus i_k j_k."""

    def m(x):
        return ref.RatMat(x.entries, cols=x.cols)

    out = []
    for k in r.shape.vertices:
        acc = m(r.i[k]) * m(r.j[k])
        for h in r.shape.edges_into(k):
            term = m(r.B[h]) * m(r.B[r.shape.bar(h)])
            acc = acc + term if r.shape.sign(h) == 1 else acc - term
        assert acc.shape == (r.v[k - 1], r.v[k - 1])
        out.append(acc)
    return out
