"""The dense product of labelled matrices: the oracle the tests multiply
back with.  Each entry of a product is one ``rf_dot`` of a row and a
column.  Also the residual route of a node over Q(q), the oracle the node
table is compared with: the Schur complement M_S by ``matrix_solve``, and
the node's verdict on it."""
from lsgreen.dihedral import label_sort_key
from lsgreen.errors import SingularBlock
from lsgreen.exactalg import IntPoly, PolyMatrix, matrix_solve, rf_dot


def transpose(a: PolyMatrix) -> PolyMatrix:
    return PolyMatrix(a.cols, a.rows, [list(col) for col in zip(*a.data)])


def mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a.cols != b.rows:
        raise ValueError("inner labels do not match")
    cols = list(zip(*b.data))
    return PolyMatrix(a.rows, b.cols, [[rf_dot(zip(row, col)) for col in cols]
                                       for row in a.data])


def is_symmetric(a: PolyMatrix) -> bool:
    n = len(a.rows)
    return a.rows == a.cols and all(a.data[i][j] == a.data[j][i]
                                    for i in range(n) for j in range(i + 1, n))


def complement(om: PolyMatrix, peeled) -> dict:
    """The Schur complement M_S = omega_UU - omega_US omega_SS^-1 omega_SU,
    S the labels ``peeled`` and U the others, as {(row, column): entry}
    over the labels of U."""
    labels, w = om.rows, om.data
    s = [i for i, l in enumerate(labels) if l in peeled]
    u = [i for i, l in enumerate(labels) if l not in peeled]
    z = (matrix_solve([[w[i][j] for j in s] for i in s], [[w[i][j] for j in s] for i in u])
         if s else [[] for _ in u])
    return {(labels[i], labels[j]): w[i][j] - rf_dot(zip(zi, (w[t][j] for t in s)))
            for zi, i in zip(z, u) for j in u}


def node_verdict(om: PolyMatrix, m: int, peeled, cls, a_c, M=None):
    """The residual route's outcome of the node (S, C, a_C) over omega (M
    its complement M_S, when known): "singular" when M_CC is singular,
    "pruned" when X = q^(a_C) M_aC M_CC^-1 is not in N[q] or q^(2 a_C)
    does not divide M_CC, else (the rows of X, Lambda_C, the (row, column)
    labels of the entries of M_{U,C} that are not polynomials divisible by
    q^m - 1, none when S is empty), rows of X over the labels above C and
    every block over C in label order."""
    M = complement(om, peeled) if M is None else M
    unsolved = [l for l in om.rows if l not in peeled]
    members = sorted(cls, key=label_sort_key)
    above = [l for l in unsolved if l not in cls]
    rows = []
    if above:
        qa = IntPoly.q(a_c)
        try:
            x = matrix_solve([[M[s, t] for t in members] for s in members],
                             [[M[i, t] * qa for t in members] for i in above])
        except SingularBlock:
            return "singular"
        if not all(v.is_polynomial() and min(v.num.c.values(), default=0) >= 0
                   for row in x for v in row):
            return "pruned"
        rows = [[v.as_poly() for v in row] for row in x]
    q2a = IntPoly.q(2 * a_c)
    if not all(M[s, t].is_polynomial() and q2a.divides(M[s, t].num)
               for s in members for t in members):
        return "pruned"
    lam = [[M[s, t].num // q2a for t in members] for s in members]
    gamma = IntPoly({m: 1, 0: -1})
    nonpoly = [(u, c) for u in unsolved for c in members
               if not (M[u, c].is_polynomial() and gamma.divides(M[u, c].num))] if peeled else []
    return rows, lam, nonpoly
