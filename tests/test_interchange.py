import random
import warnings

import pytest

from coarse_kit import (
    circle,
    filled_triangle,
    interchange,
    interval_product,
    simplicial_complex,
)
from coarse_kit.complexes import CellComplex
from coarse_kit.errors import NotAChainComplex, NotSimplicial, ShapeMismatch
from coarse_kit.interchange import (
    parse_complex,
    serialize_complex,
    write_complex,
)
from coarse_kit.towers import MkParams, build_Mk

from oracles import oracle_serialize_complex
from test_complexes import random_simplices


def roundtrip(X):
    text = serialize_complex(X)
    return parse_complex(text), text


def as_cell_complex(X):
    """X with the same boundaries but no simplex tables, which a file
    gives as boundary blocks."""
    return CellComplex(X.counts, [None] + [X.boundary_columns(k)
                                           for k in range(1, X.dim + 1)])


class TestRoundTrip:
    def test_circle(self):
        Y, text = roundtrip(circle(5))
        assert Y.counts == [5, 5]
        assert Y.is_simplicial
        assert Y.simplices[1] == circle(5).simplices[1]

    def test_labels_survive(self):
        X = filled_triangle().relabeled({"seam": [(0, 0), (1, 2)]})
        Y, _ = roundtrip(X)
        assert Y.label_cells("seam") == ((0, 0), (1, 2))

    def test_mk_roundtrip_with_boundaries(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b = build_Mk(MkParams(5, 2, 1, reduce=True))
        Y, text = roundtrip(b.complex)
        assert Y.counts == b.complex.counts
        for k in range(1, Y.dim + 1):
            assert Y.boundary_columns(k) == b.complex.boundary_columns(k)
        assert Y.labels == b.complex.labels
        # the boundaries come from the simplices alone
        assert "\nboundary " not in text

    def test_deterministic_bytes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b1 = build_Mk(MkParams(5, 2, 1, reduce=True))
            b2 = build_Mk(MkParams(5, 2, 1, reduce=True))
        assert serialize_complex(b1.complex) == serialize_complex(b2.complex)

    def test_rejects_garbage(self):
        with pytest.raises(ShapeMismatch):
            parse_complex("not a complex\n")

    def test_rejects_v1(self):
        text = serialize_complex(filled_triangle())
        assert text.startswith("coarse-kit-complex v2\n")
        with pytest.raises(ShapeMismatch,
                           match="^not a coarse-kit-complex v2 file"):
            parse_complex(text.replace(" v2\n", " v1\n", 1))

    def test_rejects_simplex_with_missing_face(self):
        text = serialize_complex(simplicial_complex([(0, 1)]))
        assert "simplices 1\n0 1\nend" in text
        with pytest.raises(NotSimplicial, match=r"face \(2,\)"):
            parse_complex(text.replace("simplices 1\n0 1\nend",
                                       "simplices 1\n0 2\nend"))

    def test_rejects_vertex_ids_that_are_not_positions(self):
        # vertex lines 0 and 5 and the edge 0 5, whose faces are found by
        # vertex id; vertex 5 is cell 1, so maps and cell removal would read
        # past the vertex level
        text = ("coarse-kit-complex v2\ndim 1\ncounts 2 1\nsimplices 0\n0\n"
                "5\nend\nsimplices 1\n0 5\nend\n")
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
        (1, "0 0 -1\n0 1 -1\n1 0 1\n1 2 1\n2 1 -1\n2 2 1\n", 0),
    ], ids=["unordered", "repeat-last-right", "repeat-last-wrong",
            "entry-then-zero", "entry-missing", "zero-off-the-column",
            "two-columns-wrong"])
    def test_triples_in_any_order(self, k, triples, bad_cell):
        # a cell-complex file need not be in the writer's order: a repeated
        # entry keeps its last value and zero entries are dropped; a column
        # read wrong breaks d.d = 0 at the triangle
        X = as_cell_complex(filled_triangle())
        text = serialize_complex(X)
        block = text.split(f"boundary {k}\n")[1].split("end\n")[0]
        text = text.replace(f"boundary {k}\n{block}", f"boundary {k}\n{triples}")
        if bad_cell is None:
            Y = parse_complex(text)
            for d in (1, 2):
                assert Y.boundary_columns(d) == X.boundary_columns(d)
        else:
            with pytest.raises(NotAChainComplex,
                               match=rf"at cell \(dim 2, index {bad_cell}\)"):
                parse_complex(text)

    def test_rejects_repeated_simplex(self):
        # two copies of one triangle: the second copy would hide the first
        # from simplex_index
        text = serialize_complex(filled_triangle()).replace(
            "counts 3 3 1", "counts 3 3 2")
        assert "simplices 2\n0 1 2\n" in text
        text = text.replace("simplices 2\n0 1 2\n", "simplices 2\n0 1 2\n"
                            "0 1 2\n")
        with pytest.raises(NotSimplicial, match=r"simplex \(0, 1, 2\) at "
                           r"cell \(dim 2, 0\) is repeated at cell "
                           r"\(dim 2, 1\)"):
            parse_complex(text)

    def test_triples_sorted_row_major(self):
        text = serialize_complex(interval_product(circle(3), 2).complex)
        for k in (1, 2):
            block = text.split(f"boundary {k}\n")[1].split("end")[0]
            triples = [tuple(int(v) for v in ln.split())
                       for ln in block.strip().splitlines()]
            assert triples == sorted(triples)


def tamper_simplicial(rng, X, text):
    """One random edit of the .ckx text of a simplicial complex X that the
    reader must refuse, the kind of edit and the error it must raise: a
    boundary block of X added (the v1 form), a simplex line overwritten by
    another line of its level, two vertices of a simplex swapped, or a
    simplex given a face that is not there (its last vertex replaced by a
    new one)."""
    lines = text.splitlines(keepends=True)
    simplices = {}
    block = None
    for t, ln in enumerate(lines):
        words = ln.split()
        if words[0] == "simplices":
            block = int(words[1])
        elif words[0] == "end":
            block = None
        elif block is not None:
            simplices.setdefault(block, []).append(t)
    kind = rng.choice(["boundary", "duplicate", "swap", "no-face"]
                      if X.dim else ["duplicate"])
    if kind == "boundary":
        k = rng.randint(1, X.dim)
        cell_text = serialize_complex(as_cell_complex(X))
        block = cell_text[cell_text.index(f"boundary {k}\n"):]
        block = block[:block.index("end\n") + 4]
        t = rng.choice([3, len(lines)])
        lines.insert(t, block)
        return "".join(lines), kind, (ShapeMismatch, rf"^line {t + 1}: ")
    if kind == "duplicate":
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
    return "".join(lines), kind, (NotSimplicial, None)


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
            Y = parse_complex(text)
            assert Y.counts == X.counts and Y.simplices == X.simplices
            for k in range(1, X.dim + 1):
                # the same columns with the same entry order
                assert [list(c.items()) for c in Y.boundary_columns(k)] == \
                    [list(c.items()) for c in X.boundary_columns(k)]
            assert serialize_complex(Y) == text
            bad, kind, (error, match) = tamper_simplicial(rng, X, text)
            assert bad != text
            with pytest.raises(error, match=match):
                parse_complex(bad)
            seen.add(kind)
        assert seen == {"boundary", "duplicate", "swap", "no-face"}


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


def random_labels(rng, X):
    """X with random labels."""
    labels = {}
    for name in rng.sample(["seam", "a", "zz", "empty"], rng.randint(0, 3)):
        cells = [(d, rng.randrange(X.n_cells(d)))
                 for d in range(X.dim + 1) for _ in range(2)
                 if X.n_cells(d) and name != "empty"]
        labels[name] = cells
    return X.relabeled(labels)


class TestBulkSerializerAgainstOracle:
    def test_random_complexes(self):
        rng = random.Random(12)
        seen = set()
        for trial in range(300):
            X = simplicial_complex(random_simplices(
                rng, rng.randint(1, 7), rng.randint(0, 3), rng.randint(1, 6)))
            if trial % 2:
                X = random_cell_complex(rng, X)
            X = random_labels(rng, X)
            text = serialize_complex(X)
            assert text == oracle_serialize_complex(X)
            Y = parse_complex(text)
            assert Y.counts == X.counts and Y.labels == X.labels
            assert Y.simplices == X.simplices
            for k in range(1, X.dim + 1):
                assert Y.boundary_columns(k) == X.boundary_columns(k)
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
        assert seen == {"simplicial", "cell", "dim-0", "empty level",
                        "unsorted column", "labels"}

    def test_mk_bytes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b = build_Mk(MkParams(5, 2, 1, reduce=True))
        assert serialize_complex(b.complex) == \
            oracle_serialize_complex(b.complex)


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
    path = tmp_path / "x.ckx"
    text = write_complex(path, X)
    assert len(calls) == 1 and calls[0][0] is X
    assert path.read_text() == text == original(X)


VALID = serialize_complex(
    filled_triangle().relabeled({"seam": [(0, 0), (1, 2)]}))

# a cell complex, whose file has boundary blocks
VALID_CELL = serialize_complex(interval_product(circle(3), 2).complex)

# edits of VALID (or VALID_CELL) that parse_complex must refuse, and the line
# at fault
MALFORMED = {
    "truncated-row": (lambda t: t.replace("1 0 1\n", "1 0\n", 1), 8),
    "non-integer-row": (lambda t: t.replace("1 0 1\n", "1 x 1\n", 1), 8),
    "row-out-of-range": (lambda t: t.replace("1 0 1\n", "9 0 1\n", 1), 8),
    "column-out-of-range": (lambda t: t.replace("1 0 1\n", "1 15 1\n", 1), 8),
    "negative-column": (lambda t: t.replace("1 0 1\n", "1 -1 1\n", 1), 8),
    "no-end": (lambda t: t.split("label")[0].rsplit("end", 1)[0], 36),
    "boundary-zero": (lambda t: t.replace("boundary 1", "boundary 0"), 4),
    "boundary-out-of-range":
        (lambda t: t.replace("boundary 2", "boundary 3"), 36),
    # the top level declared empty, its block gone: the writer never does it
    "empty-top-level-cell": (lambda t: t.replace(
        t[t.index("boundary 2"):t.index("label")], "").replace(
        "counts 9 15 6", "counts 9 15 0"), 3),
}
MALFORMED = {name: (VALID_CELL, edit, line)
             for name, (edit, line) in MALFORMED.items()}
MALFORMED.update({name: (VALID, edit, line) for name, (edit, line) in {
    "truncated-file": (lambda t: t[:t.index("end")], 4),
    "counts-dim-mismatch":
        (lambda t: t.replace("counts 3 3 1", "counts 3 3"), 3),
    "non-integer-dim": (lambda t: t.replace("dim 2", "dim two"), 2),
    "boundary-in-simplicial-file": (lambda t: t.replace(
        "counts 3 3 1\n", "counts 3 3 1\nboundary 1\n0 0 -1\nend\n"), 4),
    "simplices-out-of-range":
        (lambda t: t.replace("simplices 2", "simplices 3"), 14),
    "short-simplex":
        (lambda t: t.replace("simplices 2\n0 1 2", "simplices 2\n0 1"), 15),
    "label-out-of-range": (lambda t: t.replace("1:2", "1:9"), 17),
    "label-repeated": (lambda t: t.replace(
        "label seam 0:0 1:2\n", "label seam 0:0 1:2\nlabel seam 0:1\n"), 18),
    "empty-top-level-simplicial": (lambda t: t.replace(
        "simplices 2\n0 1 2\nend\n", "").replace(
        "counts 3 3 1", "counts 3 3 0"), 3),
    # witness cochains travel in reports: no .ckx file holds one
    "cochain-section": (lambda t: t + "cochain w degree=1 ring=Z\n0 1\n"
                        "end\n", 18),
}.items()})


class TestMalformedInput:
    def test_valid_layout(self):
        # the line numbers of MALFORMED refer to these layouts
        lines = VALID.splitlines()
        assert [lines[i] for i in (3, 13, 14, 16)] == [
            "simplices 0", "simplices 2", "0 1 2", "label seam 0:0 1:2"]
        assert len(lines) == 17
        lines = VALID_CELL.splitlines()
        assert [lines[i] for i in (3, 7, 35)] == [
            "boundary 1", "1 0 1", "boundary 2"]
        assert lines[2] == "counts 9 15 6"
        parse_complex(VALID)
        parse_complex(VALID_CELL)

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_refused_with_line(self, name):
        valid, edit, line = MALFORMED[name]
        text = edit(valid)
        assert text != valid
        with pytest.raises(ShapeMismatch, match=f"^line {line}: "):
            parse_complex(text)
