"""Labels, dense tensors over Boolean indices, and the einsum kernel of dense steps."""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

MAX_RANK = 26

_LETTERS = string.ascii_letters


class IndexLabel(NamedTuple):
    """A wire segment: (qubit, left-to-right occurrence on that wire)."""

    qubit: int
    position: int

    def __str__(self):
        if self.position == 0:
            return "x%d" % self.qubit
        return "x%d.%d" % (self.qubit, self.position)


POSITION_BITS = 32


class IndexOrder:
    """Total order on labels: by qubit then position; inverse flips the qubit scan.

    key() encodes a label as one order-preserving integer level,
    (q << POSITION_BITS) + position with q the qubit, negated under inverse,
    and label() decodes a level. Positions must lie in [0, 2**POSITION_BITS).
    """

    def __init__(self, inverse=False):
        self.inverse = inverse
        self._keys = {}

    def key(self, label):
        # memoized: the diagram layer converts labels to levels at its boundary
        k = self._keys.get(label)
        if k is None:
            if not 0 <= label.position < 1 << POSITION_BITS:
                raise ValueError("position of %s outside [0, 2**%d)" % (label, POSITION_BITS))
            q = -label.qubit if self.inverse else label.qubit
            k = (q << POSITION_BITS) + label.position
            self._keys[label] = k
        return k

    def label(self, key):
        q = key >> POSITION_BITS
        return IndexLabel(-q if self.inverse else q, key - (q << POSITION_BITS))

    def sort(self, labels):
        return sorted(labels, key=self.key)


NATURAL_ORDER = IndexOrder()


@dataclass(frozen=True)
class DenseTensor:
    """Distinct labels plus a (2,)*rank complex value array in label-list order."""

    indices: tuple
    values: np.ndarray

    def __post_init__(self):
        if len(self.indices) > MAX_RANK:
            raise ValueError("rank %d exceeds the dense cap %d" % (len(self.indices), MAX_RANK))
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("repeated index label")
        if self.values.shape != (2,) * len(self.indices):
            raise ValueError("value shape %r does not match rank %d" % (self.values.shape, len(self.indices)))

    @staticmethod
    def from_flat(indices, flat):
        idx = tuple(indices)
        vals = np.asarray(flat, dtype=complex).reshape((2,) * len(idx))
        return DenseTensor(idx, vals)

    @staticmethod
    def constant(c):
        return DenseTensor((), np.asarray(complex(c)))


def contract_dense(gamma, xi, var, order=NATURAL_ORDER):
    """Sum the elementwise product over var.

    Shared labels outside var stay as one axis (the diagonal product); var
    labels absent from both operands each multiply the result by 2.
    """
    var = set(var)
    letters = {}
    for lab in itertools.chain(gamma.indices, xi.indices):
        if lab not in letters:
            letters[lab] = _LETTERS[len(letters)]
    out_labels = tuple(order.sort([l for l in letters if l not in var]))
    if len(out_labels) > MAX_RANK:
        raise ValueError("contraction result rank %d exceeds the dense cap" % len(out_labels))
    spec = "%s,%s->%s" % (
        "".join(letters[l] for l in gamma.indices),
        "".join(letters[l] for l in xi.indices),
        "".join(letters[l] for l in out_labels),
    )
    vals = np.einsum(spec, gamma.values, xi.values)
    absent = sum(1 for l in var if l not in letters)
    if absent:
        vals = vals * (1 << absent)
    return DenseTensor(out_labels, np.asarray(vals, dtype=complex))

