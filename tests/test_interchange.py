import warnings

import pytest

from coarse_kit import circle, filled_triangle, simplicial_complex
from coarse_kit.cochains import Cochain, RING_Z, ring_zp
from coarse_kit.errors import NotSimplicial, ShapeMismatch
from coarse_kit.interchange import (
    bind_cochain,
    parse_complex,
    serialize_complex,
)
from coarse_kit.metric_nerve import CoverSpec
from coarse_kit.towers import MkParams, build_Mk


def roundtrip(X, cochains=None, covers=None):
    text = serialize_complex(X, cochains=cochains, covers=covers)
    return parse_complex(text), text


class TestRoundTrip:
    def test_circle(self):
        (Y, cochains, covers), text = roundtrip(circle(5))
        assert Y.counts == [5, 5]
        assert Y.is_simplicial
        assert Y.simplices[1] == circle(5).simplices[1]

    def test_labels_survive(self):
        X = filled_triangle().relabeled({"seam": [(0, 0), (1, 2)]})
        (Y, _, _), _ = roundtrip(X)
        assert Y.label_cells("seam") == ((0, 0), (1, 2))

    def test_cochain_roundtrip(self):
        X = circle(4)
        c = Cochain(X, 1, RING_Z, [3, 0, -2, 0])
        (Y, cochains, _), _ = roundtrip(X, cochains={"w": c})
        back = bind_cochain(Y, cochains["w"])
        assert back.values == c.values and back.degree == 1

    def test_zp_cochain(self):
        X = circle(4)
        c = Cochain(X, 0, ring_zp(5), [1, 2, 3, 4])
        (Y, cochains, _), _ = roundtrip(X, cochains={"w": c})
        back = bind_cochain(Y, cochains["w"])
        assert back.ring == ring_zp(5)
        assert back.values == c.values

    def test_cover_roundtrip(self):
        X = circle(6)
        cov = CoverSpec(carrier=X, sets=[{0, 1, 2, 3}, {3, 4, 5, 0}])
        (Y, _, covers), _ = roundtrip(X, covers={"arcs": cov})
        assert covers["arcs"]["sets"] == [{0, 1, 2, 3}, {0, 3, 4, 5}]

    def test_mk_roundtrip_with_boundaries(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b = build_Mk(MkParams(5, 2, 1, reduce=True))
        (Y, _, _), _ = roundtrip(b.complex)
        assert Y.counts == b.complex.counts
        for k in range(1, Y.dim + 1):
            assert Y.boundary_columns(k) == b.complex.boundary_columns(k)
        assert Y.labels == b.complex.labels

    def test_deterministic_bytes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b1 = build_Mk(MkParams(5, 2, 1, reduce=True))
            b2 = build_Mk(MkParams(5, 2, 1, reduce=True))
        assert serialize_complex(b1.complex) == serialize_complex(b2.complex)

    def test_rejects_garbage(self):
        with pytest.raises(ShapeMismatch):
            parse_complex("not a complex\n")

    def test_rejects_simplex_with_missing_face(self):
        text = serialize_complex(simplicial_complex([(0, 1)]))
        assert "simplices 1\n0 1\nend" in text
        with pytest.raises(NotSimplicial, match=r"face \(2,\)"):
            parse_complex(text.replace("simplices 1\n0 1\nend",
                                       "simplices 1\n0 2\nend"))

    def test_triples_sorted_row_major(self):
        text = serialize_complex(filled_triangle())
        block = text.split("boundary 1\n")[1].split("end")[0].strip().splitlines()
        triples = [tuple(int(v) for v in ln.split()) for ln in block]
        assert triples == sorted(triples)
