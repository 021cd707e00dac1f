"""Toric-code parameter calculus and face indexing of the q^n lattice.

Qubits sit on the 2-faces of the hypercubic lattice.  A face is owned by
the hypercube at its minimal corner, so each hypercube owns exactly
alpha = n(n-1)/2 faces (one per unordered axis pair) and the lattice has
alpha * q^n faces in total, even though each face geometrically touches
2^{n-2} hypercubes.  A face is its linear index, hypercube index * alpha
+ orientation.  The interleaved code's parameters (``interleaved_params``)
are here too, beside the component code's, so the exact commands ``params``
and ``tables`` load no interleaver.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import NamedTuple

from .lattice import IntVector, at_least, hypercube_from_lin, in_range
from .leecode import check_n, generator_matrix


class ToricParams(NamedTuple):
    """[[N, k, d]] plus derived rate and gain of the component code."""

    n: int
    q: int
    N: int
    k: int
    d: int
    t: int
    R: Fraction
    G: Fraction


def code_params(n: int) -> ToricParams:
    """Parameters of the toric code built on one Lee-sphere region.

    N counts the faces of the radius-1 Lee sphere (alpha faces on each
    of its q hypercubes), k is one alpha per handle of the n-torus, and
    d is computed by the minimum-Mannheim-distance sphere search rather
    than assumed.  n is checked by the N_LIMITS row "params" before the code is built.
    """
    code = generator_matrix(check_n("params", n))
    scan = code.min_mannheim_distance()
    if not scan.exact:
        raise AssertionError("minimum distance exceeded the search radius")
    d = scan.distance
    N = code.alpha * code.q
    t = (d - 1) // 2
    R = Fraction(code.alpha, N)
    return ToricParams(n=n, q=code.q, N=N, k=code.alpha, d=d, t=t, R=R, G=R * (t + 1))


class InterleavedParams(NamedTuple):
    """Parameters of the interleaved code over the whole q^n lattice."""

    n: int
    q: int
    length: int
    dimension: int
    t_i: int
    R_i: Fraction
    G_i: Fraction


def interleaved_params(n: int) -> InterleavedParams:
    """[[alpha q^n, alpha q^{n-1}, q^2]] with rate 1/q and gain (q^2+1)/q; n as check_n("params", n)."""
    n = check_n("params", n)
    q = 2 * n + 1
    alpha = n * (n - 1) // 2
    R_i = Fraction(1, q)
    return InterleavedParams(
        n=n,
        q=q,
        length=alpha * q**n,
        dimension=alpha * q ** (n - 1),
        t_i=q * q,
        R_i=R_i,
        G_i=R_i * (q * q + 1),
    )


def face_from_lin(idx: int, n: int, q: int) -> tuple[IntVector, int]:
    """(anchor, orientation) of the face index hypercube_lin_index(anchor) * alpha + o.

    Orientation o numbers the axis pairs a < b in lexicographic order.
    """
    n, q = operator.index(n), operator.index(q)
    alpha = n * (n - 1) // 2
    lin, o = divmod(in_range("face index", idx, alpha * q**n), alpha)
    return hypercube_from_lin(lin, q, n), o


class StabilizerCheck2D(NamedTuple):
    """Vertex and plaquette operator supports of the 2D code on a torus.

    Edge layout on the q x q torus: horizontal edge (x, y) has index
    y*q + x, vertical edge (x, y) has index q^2 + y*q + x.
    """

    q: int
    n_edges: int
    params: tuple[int, int, int]
    vertex_supports: tuple[tuple[int, int, int, int], ...]
    face_supports: tuple[tuple[int, int, int, int], ...]
    all_commute: bool
    odd_overlaps: tuple[tuple[int, int], ...]


def kitaev_2d_stabilizers(q: int) -> StabilizerCheck2D:
    """Build all vertex/face operator supports on the q x q torus.

    Commutation is verified pairwise by brute force: every vertex-face
    support overlap must have even size.
    """
    q = at_least("torus size", q, 2)

    def h_edge(x: int, y: int) -> int:
        return (y % q) * q + (x % q)

    def v_edge(x: int, y: int) -> int:
        return q * q + (y % q) * q + (x % q)

    vertex_supports = tuple(
        (h_edge(x, y), h_edge(x - 1, y), v_edge(x, y), v_edge(x, y - 1))
        for y in range(q)
        for x in range(q)
    )
    face_supports = tuple(
        (h_edge(x, y), h_edge(x, y + 1), v_edge(x, y), v_edge(x + 1, y))
        for y in range(q)
        for x in range(q)
    )
    face_sets = [set(s) for s in face_supports]
    odd = [(vi, fi) for vi, vs in enumerate(map(set, vertex_supports))
           for fi, fs in enumerate(face_sets) if len(vs & fs) % 2]
    return StabilizerCheck2D(
        q=q,
        n_edges=2 * q * q,
        params=(2 * q * q, 2, q),
        vertex_supports=vertex_supports,
        face_supports=face_supports,
        all_commute=not odd,
        odd_overlaps=tuple(odd),
    )
