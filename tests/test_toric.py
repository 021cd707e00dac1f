import itertools
import random
from fractions import Fraction

import pytest

from leetoric.interleave import interleaved_params
from leetoric.lattice import hypercube_lin_index
from leetoric.toric import code_params, face_from_lin, kitaev_2d_stabilizers

TABLE_VALUES = {
    5: (110, 10, 3, "0.09091", "0.18182"),
    6: (195, 15, 3, "0.07692", "0.15385"),
    7: (315, 21, 3, "0.06667", "0.13333"),
    8: (476, 28, 3, "0.05882", "0.11765"),
}


class TestCodeParams:
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_table_rows(self, n):
        N, k, d, rate, gain = TABLE_VALUES[n]
        params = code_params(n)
        assert (params.N, params.k, params.d) == (N, k, d)
        assert abs(float(params.R) - float(rate)) < 5e-6
        assert abs(float(params.G) - float(gain)) < 5e-6

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="unsupported dimension"):
            code_params(4)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_exact_rational_identities(self, n):
        params = code_params(n)
        assert params.R * params.N == params.k
        assert params.G == 2 * params.R
        assert params.R == Fraction(1, 2 * n + 1)
        assert params.t == 1


class TestFaceIndex:
    def test_first_faces(self):
        assert face_from_lin(0, 5, 11) == ((0,) * 5, 0)
        assert face_from_lin(1, 5, 11) == ((0,) * 5, 1)

    def test_anchor_stride(self):
        assert face_from_lin(10, 5, 11) == ((0, 0, 0, 0, 1), 0)

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_roundtrip_sampled(self, n):
        q, alpha = 2 * n + 1, n * (n - 1) // 2
        rnd = random.Random(n)
        for _ in range(2000):
            idx = rnd.randrange(interleaved_params(n).length)
            anchor, o = face_from_lin(idx, n, q)
            assert hypercube_lin_index(anchor, q) * alpha + o == idx
            assert 0 <= o < alpha

    def test_range_check(self):
        with pytest.raises(ValueError) as exc:
            face_from_lin(interleaved_params(5).length, 5, 11)
        assert str(exc.value) == "face index 1610510 out of range [0, 1610510)"

    def test_exhaustive_bijection_n5(self):
        # the face index walks anchors in big-endian order, and within one
        # anchor the alpha orientations in order
        q, n = 11, 5
        faces = itertools.product(itertools.product(range(q), repeat=n), range(n * (n - 1) // 2))
        for idx, face in enumerate(faces):
            assert face_from_lin(idx, n, q) == face
        assert idx + 1 == interleaved_params(n).length


class TestKitaev2D:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_all_pairs_commute(self, q):
        check = kitaev_2d_stabilizers(q)
        assert check.all_commute
        assert check.odd_overlaps == ()
        assert check.n_edges == 2 * q * q

    def test_q5_shape(self):
        check = kitaev_2d_stabilizers(5)
        assert check.params == (50, 2, 5)
        assert len(check.vertex_supports) == 25
        assert len(check.face_supports) == 25
        assert all(len(set(s)) == 4 for s in check.vertex_supports)
        assert all(len(set(s)) == 4 for s in check.face_supports)

    def test_q2_support_sizes(self):
        check = kitaev_2d_stabilizers(2)
        assert all(len(set(s)) == 4 for s in check.vertex_supports)
        assert all(len(set(s)) == 4 for s in check.face_supports)

    def test_supports_against_incidence_oracle(self):
        # rebuild the supports from edge endpoints: a vertex operator
        # must touch exactly the edges incident to the vertex, a face
        # operator exactly the edges on the unit square boundary
        q = 5
        check = kitaev_2d_stabilizers(q)
        endpoints = {}
        for y in range(q):
            for x in range(q):
                endpoints[y * q + x] = {(x, y), ((x + 1) % q, y)}
                endpoints[q * q + y * q + x] = {(x, y), (x, (y + 1) % q)}
        for idx, support in enumerate(check.vertex_supports):
            vx, vy = idx % q, idx // q
            incident = {e for e, ends in endpoints.items() if (vx, vy) in ends}
            assert set(support) == incident
        for idx, support in enumerate(check.face_supports):
            fx, fy = idx % q, idx // q
            corners = {
                (fx, fy),
                ((fx + 1) % q, fy),
                (fx, (fy + 1) % q),
                ((fx + 1) % q, (fy + 1) % q),
            }
            boundary = {
                e for e, ends in endpoints.items() if ends <= corners
            }
            assert set(support) == boundary

    def test_rejects_q1(self):
        with pytest.raises(ValueError):
            kitaev_2d_stabilizers(1)
