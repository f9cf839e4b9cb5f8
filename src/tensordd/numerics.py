"""Grid-rounded complex weights: tolerant equality that stays transitive."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceConfig:
    """eps is the canonicalization grid pitch."""

    eps: float = 1e-10

    def __post_init__(self):
        # the store's unique keys bound normalized weights by 1/(1-eps)
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")


DEFAULT_TOLERANCE = ToleranceConfig()


def canonical(w, cfg=DEFAULT_TOLERANCE):
    """Round re and im of w to the nearest multiple of cfg.eps.

    The grid makes weight equality transitive, which an eps-ball comparison
    is not; unique-table keys, comparison predicates and reported values all
    go through this grid, while in-flight arithmetic keeps full precision.
    """
    w = complex(w)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError("non-finite weight %r" % (w,))
    eps = cfg.eps
    # adding 0.0 collapses -0.0 so canonical forms compare bit-exactly
    return complex(round(w.real / eps) * eps + 0.0, round(w.imag / eps) * eps + 0.0)


def weights_equal(a, b, cfg=DEFAULT_TOLERANCE):
    """True iff a and b land on the same grid point."""
    eps = cfg.eps
    return (round(a.real / eps) == round(b.real / eps)
            and round(a.imag / eps) == round(b.imag / eps))


def is_zero(w, cfg=DEFAULT_TOLERANCE):
    """True iff both components lie within half a grid cell of zero."""
    half = 0.5 * cfg.eps
    return -half <= w.real <= half and -half <= w.imag <= half


def is_one(w, cfg=DEFAULT_TOLERANCE):
    return canonical(w, cfg) == 1


def format_weight(w):
    """Render a complex value with 6 significant digits per component."""
    w = complex(w)
    re, im = w.real, w.imag
    if im == 0:
        return "%.6g" % re
    if re == 0:
        return "%.6gi" % im
    return "%.6g%s%.6gi" % (re, "+" if im > 0 else "-", abs(im))
