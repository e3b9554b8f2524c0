"""The selective scan composed from taped ops: the oracle the one-node
``selective_scan`` is held to, bitwise, in its output and its gradients.

``mamba_discretize`` is the zero-order-hold discretization on its own,
which the closed-form tests and criterion 4 check by value.
"""

import numpy as np

from dancegen import tensor as T
from dancegen.errors import ContractError


def mamba_discretize(a, b, dt):
    """Zero-order-hold discretization of h' = a h + b x, elementwise.

    abar = exp(dt*a); bbar = dt * b * phi1(dt*a) with phi1(u) = (e^u - 1)/u,
    which is the exact matrix formula restricted to a diagonal state matrix.
    dt must be strictly positive. Plain inputs give arrays, a Tensor input
    gives taped Tensors.
    """
    at, pa = T.wrap(a)
    bt, pb = T.wrap(b)
    dtt, pd = T.wrap(dt)
    if (dtt.data <= 0).any():
        raise ContractError("discretization step dt must be strictly positive")
    u = dtt * at
    abar = T.exp(u)
    bbar = dtt * bt * T.expm1_over(u)
    if pa and pb and pd:
        return abar.data, bbar.data
    return abar, bbar


def composed_scan(x, a_diag, b_seq, c_seq, dt, initial=None):
    """``selective_scan`` as discretize, ``T.linear_recurrence`` from
    ``initial`` and the contraction with c, each a taped op of its own."""
    x, a_diag, b_seq, c_seq, dt = (T.wrap(v)[0] for v in (x, a_diag, b_seq, c_seq, dt))
    t_len, d_inner = x.shape
    n = a_diag.shape[-1]
    abar, bbar = mamba_discretize(
        a_diag.reshape((1, d_inner, n)),
        b_seq.reshape((t_len, 1, n)),
        dt.reshape((t_len, d_inner, 1)),
    )
    drive = bbar * x.reshape((t_len, d_inner, 1))
    h = T.linear_recurrence(abar, drive, initial)
    return T.reduce_sum(h * c_seq.reshape((t_len, 1, n)), axis=-1)
