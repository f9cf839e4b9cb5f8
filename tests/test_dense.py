import numpy as np
import pytest

from tensordd.cli import SPLIT_POS
from tensordd.dense import DenseTensor, IndexLabel, IndexOrder, contract_dense

A = IndexLabel(0, 0)
B = IndexLabel(1, 0)
C = IndexLabel(2, 0)


def test_label_str():
    assert str(IndexLabel(3, 0)) == "x3"
    assert str(IndexLabel(0, 2)) == "x0.2"


def test_order_natural_and_inverse():
    labs = [IndexLabel(1, 0), IndexLabel(0, 1), IndexLabel(0, 0)]
    assert IndexOrder().sort(labs) == [IndexLabel(0, 0), IndexLabel(0, 1), IndexLabel(1, 0)]
    assert IndexOrder(inverse=True).sort(labs) == [IndexLabel(1, 0), IndexLabel(0, 0), IndexLabel(0, 1)]
    assert IndexOrder().key(A) < IndexOrder().key(B)
    # key() is one integer that sorts like (qubit, position), qubit scan
    # reversed under inverse, up to the comparison grid's output position
    labs = [IndexLabel(q, p) for q in range(4) for p in (0, 1, 7, SPLIT_POS, 2 ** 32 - 1)]
    for inverse in (False, True):
        order = IndexOrder(inverse)
        sign = -1 if inverse else 1
        keys = [order.key(l) for l in labs]
        assert all(isinstance(k, int) for k in keys)
        assert sorted(labs, key=order.key) == sorted(labs, key=lambda l: (sign * l.qubit, l.position))
        assert [order.label(k) for k in keys] == labs
        for bad in (IndexLabel(1, -1), IndexLabel(1, 2 ** 32)):
            with pytest.raises(ValueError):
                order.key(bad)


def test_tensor_validation():
    with pytest.raises(ValueError):
        DenseTensor((A, A), np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        DenseTensor((A,), np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        DenseTensor.from_flat([IndexLabel(q, 0) for q in range(27)], np.zeros(2 ** 27))


def test_constant_and_rank():
    t = DenseTensor.constant(2j)
    assert len(t.indices) == 0
    assert t.values == 2j
    assert len(DenseTensor.from_flat((A, B), [1, 2, 3, 4]).indices) == 2


def test_contract_dense_is_matrix_product():
    m1 = np.arange(4).reshape(2, 2) + 0j
    m2 = (np.arange(4) + 1).reshape(2, 2) * 1j
    f = DenseTensor((A, B), m1)
    g = DenseTensor((B, C), m2)
    out = contract_dense(f, g, {B})
    assert out.indices == (A, C)
    assert np.allclose(out.values, m1 @ m2)


def test_contract_dense_shared_label_outside_var_is_diagonal():
    f = DenseTensor.from_flat((A,), [2, 3])
    g = DenseTensor.from_flat((A,), [5, 7])
    out = contract_dense(f, g, set())
    assert out.indices == (A,)
    assert list(out.values) == [10, 21]


def test_contract_dense_absent_var_doubles():
    f = DenseTensor.constant(1)
    g = DenseTensor.constant(3)
    out = contract_dense(f, g, {A, B})
    assert out.values == 12  # 3 * 2 * 2
