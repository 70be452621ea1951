import random
import warnings
from fractions import Fraction

import pytest

from coarse_kit import circle, filled_triangle, interchange, simplicial_complex
from coarse_kit.cochains import Cochain, RING_Q, RING_Z, ring_zp
from coarse_kit.complexes import CellComplex
from coarse_kit.errors import NotSimplicial, ShapeMismatch
from coarse_kit.interchange import (
    bind_cochain,
    parse_complex,
    serialize_complex,
    write_complex,
)
from coarse_kit.metric_nerve import CoverSpec
from coarse_kit.towers import MkParams, build_Mk

from oracles import oracle_serialize_complex
from test_complexes import random_simplices


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

    def test_rejects_vertex_ids_that_are_not_positions(self):
        # vertex lines 0 and 5 and the edge 0 5, whose column matches the
        # faces found by vertex id; vertex 5 is cell 1, so maps and cell
        # removal would read past the vertex level
        text = ("coarse-kit-complex v1\ndim 1\ncounts 2 1\nboundary 1\n"
                "0 0 -1\n1 0 1\nend\nsimplices 0\n0\n5\nend\n"
                "simplices 1\n0 5\nend\n")
        with pytest.raises(NotSimplicial, match=r"vertex \(5,\) at cell "
                           r"\(dim 0, 1\)"):
            parse_complex(text)
        parse_complex(text.replace("\n5\n", "\n1\n").replace("0 5", "0 1"))

    @pytest.mark.parametrize("k, triples, bad_cell", [
        (2, "2 0 1\n0 0 1\n1 0 -1\n", None),
        (2, "0 0 1\n1 0 5\n1 0 -1\n2 0 1\n", None),
        (2, "0 0 1\n1 0 -1\n2 0 1\n1 0 5\n", 0),
        (2, "0 0 1\n1 0 -1\n2 0 1\n2 0 0\n", 0),
        (2, "0 0 1\n1 0 -1\n", 0),
        (1, "0 0 -1\n0 1 -1\n1 0 1\n1 2 -1\n2 1 1\n2 2 1\n2 0 0\n", None),
        # edge 2 differs in row 1, edge 1 only in row 2: edge 1 is named
        (1, "0 0 -1\n0 1 -1\n1 0 1\n1 2 1\n2 1 -1\n2 2 1\n", 1),
    ], ids=["unordered", "repeat-last-right", "repeat-last-wrong",
            "entry-then-zero", "entry-missing", "zero-off-the-column",
            "two-columns-wrong"])
    def test_triples_in_any_order(self, k, triples, bad_cell):
        # a file need not be in the writer's order: a repeated entry keeps
        # its last value and zero entries are dropped
        text = serialize_complex(filled_triangle())
        block = text.split(f"boundary {k}\n")[1].split("end\n")[0]
        text = text.replace(f"boundary {k}\n{block}", f"boundary {k}\n{triples}")
        if bad_cell is None:
            parse_complex(text)
        else:
            with pytest.raises(NotSimplicial, match=rf"^cell \(dim {k}, "
                               rf"{bad_cell}\): the boundary in the file"):
                parse_complex(text)

    def test_rejects_repeated_simplex(self):
        # two copies of one triangle, each with its own matching column:
        # the second copy would hide the first from simplex_index
        X = filled_triangle()
        text = serialize_complex(X).replace("counts 3 3 1", "counts 3 3 2")
        assert "\n2 0 1\nend\n" in text and "simplices 2\n0 1 2\n" in text
        text = text.replace("\n2 0 1\nend\n", "\n2 0 1\n0 1 1\n1 1 -1\n"
                            "2 1 1\nend\n")
        text = text.replace("simplices 2\n0 1 2\n", "simplices 2\n0 1 2\n"
                            "0 1 2\n")
        with pytest.raises(NotSimplicial, match=r"simplex \(0, 1, 2\) at "
                           r"cell \(dim 2, 0\) is repeated at cell "
                           r"\(dim 2, 1\)"):
            parse_complex(text)

    def test_triples_sorted_row_major(self):
        text = serialize_complex(filled_triangle())
        block = text.split("boundary 1\n")[1].split("end")[0].strip().splitlines()
        triples = [tuple(int(v) for v in ln.split()) for ln in block]
        assert triples == sorted(triples)


def tamper_simplicial(rng, X, text):
    """One random edit of the .ckx text of a simplicial complex X that the
    reader must refuse, and its kind: a triple negated or moved to another
    row, a simplex line overwritten by another line of its level, two
    vertices of a simplex swapped, or a simplex given a face that is not
    there (its last vertex replaced by a new one)."""
    lines = text.splitlines(keepends=True)
    triples, simplices = [], {}
    block = None
    for t, ln in enumerate(lines):
        words = ln.split()
        if words[0] in ("boundary", "simplices"):
            block = (words[0], int(words[1]))
        elif words[0] == "end":
            block = None
        elif block and block[0] == "boundary":
            triples.append((t, block[1]))
        elif block:
            simplices.setdefault(block[1], []).append(t)
    kind = rng.choice(["negate", "move", "duplicate", "swap", "no-face"]
                      if triples else ["duplicate"])
    if kind in ("negate", "move"):
        t, k = rng.choice(triples)
        r, j, c = map(int, lines[t].split())
        if kind == "negate":
            c = -c
        else:
            r = rng.choice([x for x in range(X.n_cells(k - 1)) if x != r])
        lines[t] = f"{r} {j} {c}\n"
    elif kind == "duplicate":
        level = rng.choice([ts for ts in simplices.values() if len(ts) >= 2])
        t, u = rng.sample(level, 2)
        lines[t] = lines[u]
    else:
        t = rng.choice([t for k, ts in simplices.items() if k for t in ts])
        verts = lines[t].split()
        if kind == "swap":
            i = rng.randrange(len(verts) - 1)
            verts[i], verts[i + 1] = verts[i + 1], verts[i]
        else:
            verts[-1] = str(X.n_cells(0))
        lines[t] = " ".join(verts) + "\n"
    return "".join(lines), kind


class TestSimplicialRoundTripAndTamper:
    def test_random_complexes(self):
        rng = random.Random(14)
        seen = set()
        for _ in range(200):
            # vertex 1 keeps two vertices to overwrite one with the other
            X = simplicial_complex(random_simplices(
                rng, rng.randint(2, 7), rng.randint(0, 3), rng.randint(1, 6))
                + [(1,)])
            text = serialize_complex(X)
            Y, _, _ = parse_complex(text)
            assert Y.counts == X.counts and Y.simplices == X.simplices
            for k in range(1, X.dim + 1):
                # the same columns with the same entry order
                assert [list(c.items()) for c in Y.boundary_columns(k)] == \
                    [list(c.items()) for c in X.boundary_columns(k)]
            assert serialize_complex(Y) == text
            bad, kind = tamper_simplicial(rng, X, text)
            assert bad != text
            with pytest.raises(NotSimplicial):
                parse_complex(bad)
            seen.add(kind)
        assert seen == {"negate", "move", "duplicate", "swap", "no-face"}


def random_cell_complex(rng, X):
    """A non-simplicial complex over the cells of X: columns rebuilt in
    shuffled key order, each top column scaled by a nonzero integer (d^2 = 0
    survives both), a top cell summing two others and, sometimes, loop
    edges with empty boundaries (all of level 1 when X is a vertex set)."""
    boundaries = [None]
    for k in range(1, X.dim + 1):
        level = []
        for col in X.boundary_columns(k):
            items = list(col.items())
            rng.shuffle(items)
            scale = rng.choice([-2, -1, 1, 3]) if k == X.dim else 1
            level.append({r: scale * c for r, c in items})
        if k == X.dim and len(level) >= 2:
            a, b = level[0], level[-1]
            level.append({r: a.get(r, 0) + b.get(r, 0)
                          for r in reversed(sorted(set(a) | set(b)))})
        boundaries.append(level)
    counts = [len(level) for level in boundaries[1:]]
    counts.insert(0, X.n_cells(0))
    if X.dim <= 1 and rng.random() < 0.5:
        if X.dim == 0:
            boundaries.append([])
            counts.append(0)
        loops = rng.randint(1, 2)
        boundaries[1] += [{} for _ in range(loops)]
        counts[1] += loops
    return CellComplex(counts, boundaries)


def random_extras(rng, X):
    """Random labels, Z/Q/Z_p cochains and covers on X."""
    labels = {}
    for name in rng.sample(["seam", "a", "zz", "empty"], rng.randint(0, 3)):
        cells = [(d, rng.randrange(X.n_cells(d)))
                 for d in range(X.dim + 1) for _ in range(2)
                 if X.n_cells(d) and name != "empty"]
        labels[name] = cells
    cochains = {}
    for name in rng.sample(["w", "beta", "u"], rng.randint(0, 3)):
        d = rng.randint(0, X.dim)
        ring = rng.choice([RING_Z, RING_Q, ring_zp(3), ring_zp(7)])
        if ring == RING_Q:
            vals = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(X.n_cells(d))]
        else:
            vals = [rng.choice([0, 0, rng.randint(-9, 9)])
                    for _ in range(X.n_cells(d))]
        cochains[name] = Cochain(X, d, ring, vals)
    covers = {}
    n = X.n_cells(0)
    for name in rng.sample(["arcs", "stars"], rng.randint(0, 2)):
        sets = [set(rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(0, 3))]
        sets.append(set(range(n)) - set().union(*sets) or {0})
        covers[name] = CoverSpec(carrier=X, sets=sets,
                                 kind=rng.choice(["explicit", "ball"]))
    return X.relabeled(labels), cochains, covers


class TestBulkSerializerAgainstOracle:
    def test_random_complexes(self):
        rng = random.Random(12)
        seen = set()
        for trial in range(300):
            X = simplicial_complex(random_simplices(
                rng, rng.randint(1, 7), rng.randint(0, 3), rng.randint(1, 6)))
            if trial % 2:
                X = random_cell_complex(rng, X)
            X, cochains, covers = random_extras(rng, X)
            text = serialize_complex(X, cochains=cochains, covers=covers)
            assert text == oracle_serialize_complex(X, cochains, covers)
            Y, raw, raw_covers = parse_complex(text)
            assert Y.counts == X.counts and Y.labels == X.labels
            assert Y.simplices == X.simplices
            for k in range(1, X.dim + 1):
                assert Y.boundary_columns(k) == X.boundary_columns(k)
            for name, c in cochains.items():
                assert bind_cochain(Y, raw[name]) == c
            assert {name: (cov["kind"], cov["sets"])
                    for name, cov in raw_covers.items()} == {
                name: (cov.kind, [set(s) for s in cov.sets])
                for name, cov in covers.items()}
            seen.add("simplicial" if X.is_simplicial else "cell")
            if X.dim == 0:
                seen.add("dim-0")
            if any(not X.boundary_columns(k)
                   or not any(X.boundary_columns(k))
                   for k in range(1, X.dim + 1)):
                seen.add("empty level")
            if any(list(col) != sorted(col) for k in range(1, X.dim + 1)
                   for col in X.boundary_columns(k)):
                seen.add("unsorted column")
            if any(X.labels.values()):
                seen.add("labels")
            for c in cochains.values():
                seen.add(c.ring if isinstance(c.ring, str) else "Zp")
                if any(isinstance(v, Fraction) and v.denominator != 1
                       for v in c.values):
                    seen.add("p/q")
            if covers:
                seen.add("covers")
        assert seen == {"simplicial", "cell", "dim-0", "empty level",
                        "unsorted column", "labels", "Z", "Q", "Zp", "p/q",
                        "covers"}

    def test_mk_bytes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b = build_Mk(MkParams(5, 2, 1, reduce=True))
        cochains = {"obstruction": b.obstruction}
        assert serialize_complex(b.complex, cochains=cochains) == \
            oracle_serialize_complex(b.complex, cochains)


def test_write_complex_goes_through_serialize_complex(tmp_path, monkeypatch):
    """The writer renders through the module binding of serialize_complex,
    which a tracer may replace, and writes exactly what it returns."""
    calls = []
    original = interchange.serialize_complex

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(interchange, "serialize_complex", counting)
    X = filled_triangle()
    cochains = {"w": Cochain(X, 1, RING_Z, [1, 0, -2])}
    path = tmp_path / "x.ckx"
    text = write_complex(path, X, cochains=cochains)
    assert len(calls) == 1 and calls[0][0] is X
    assert path.read_text() == text == original(X, cochains=cochains)


VALID = serialize_complex(
    filled_triangle().relabeled({"seam": [(0, 0), (1, 2)]}),
    cochains={"w": Cochain(filled_triangle(), 1, RING_Z, [1, 0, -2])},
    covers={"c": CoverSpec(carrier=filled_triangle(), sets=[{0, 1, 2}])})

# edits of VALID that parse_complex must refuse, and the line at fault
MALFORMED = {
    "truncated-row": (lambda t: t.replace("1 0 1\n", "1 0\n", 1), 7),
    "non-integer-row": (lambda t: t.replace("1 0 1\n", "1 x 1\n", 1), 7),
    "row-out-of-range": (lambda t: t.replace("1 0 1\n", "3 0 1\n", 1), 7),
    "column-out-of-range": (lambda t: t.replace("1 0 1\n", "1 3 1\n", 1), 7),
    "negative-column": (lambda t: t.replace("1 0 1\n", "1 -1 1\n", 1), 7),
    "truncated-file": (lambda t: t[:t.index("end")], 4),
    "no-end": (lambda t: t.split("simplices 0")[0].rsplit("end", 1)[0], 12),
    "boundary-zero": (lambda t: t.replace("boundary 1", "boundary 0"), 4),
    "boundary-out-of-range":
        (lambda t: t.replace("boundary 2", "boundary 3"), 12),
    "counts-dim-mismatch":
        (lambda t: t.replace("counts 3 3 1", "counts 3 3"), 3),
    "non-integer-dim": (lambda t: t.replace("dim 2", "dim two"), 2),
    "simplices-out-of-range":
        (lambda t: t.replace("simplices 2", "simplices 3"), 27),
    "short-simplex":
        (lambda t: t.replace("simplices 2\n0 1 2", "simplices 2\n0 1"), 28),
    "label-out-of-range": (lambda t: t.replace("1:2", "1:9"), 30),
    "cochain-no-degree": (lambda t: t.replace(" degree=1", ""), 31),
    "cochain-cell-out-of-range":
        (lambda t: t.replace("\n2 -2\n", "\n5 -2\n"), 33),
    "cochain-bad-value": (lambda t: t.replace("\n2 -2\n", "\n2 -2/0\n"), 33),
    "cover-non-integer": (lambda t: t.replace("kind=explicit\n0 1 2",
                                              "kind=explicit\n0 1 b"), 36),
    # Z_n is a ring of the format only for n prime
    "cochain-ring-z0": (lambda t: t.replace("ring=Z", "ring=Z0"), 31),
    "cochain-ring-z1": (lambda t: t.replace("ring=Z", "ring=Z1"), 31),
    "cochain-ring-z4": (lambda t: t.replace("ring=Z", "ring=Z4"), 31),
}


class TestMalformedInput:
    def test_valid_layout(self):
        # the line numbers of MALFORMED refer to this layout
        lines = VALID.splitlines()
        assert [lines[i] for i in (3, 6, 11, 26, 32, 35)] == [
            "boundary 1", "1 0 1", "boundary 2", "simplices 2", "2 -2",
            "0 1 2"]
        assert lines[29] == "label seam 0:0 1:2"
        assert lines[30] == "cochain w degree=1 ring=Z"
        parse_complex(VALID)

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_refused_with_line(self, name):
        edit, line = MALFORMED[name]
        text = edit(VALID)
        assert text != VALID
        with pytest.raises(ShapeMismatch, match=f"^line {line}: "):
            parse_complex(text)

    def test_prime_ring_accepted(self):
        _, cochains, _ = parse_complex(VALID.replace("ring=Z", "ring=Z7"))
        assert cochains["w"]["ring"] == "Z7"
