"""The dense product of labelled matrices: the oracle the tests multiply
back with.  Each entry of a product is one ``rf_dot`` of a row and a
column."""
from lsgreen.exactalg import PolyMatrix, rf_dot


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
