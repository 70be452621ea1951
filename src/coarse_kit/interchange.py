"""The complex interchange format: one structured text file per complex.

Layout (version 2, line oriented, `#` comments ignored):

    coarse-kit-complex v2
    dim 2
    counts 6 9 4
    simplices 1         # one block per level 0..dim, vertex ids per cell
    0 1
    ...
    end
    label boundary 0:0 0:1 1:3 ...

A file has one form.  A simplicial complex is written as its simplex blocks
only: the vertex tuples fix every boundary.  Face i of the k-simplex
``(v0..vk)`` is the tuple without ``v_i``; it enters the boundary column of
that simplex with coefficient ``(-1)^i``, at the row of that face's position
in level k-1.  A cell complex, such as an interval product, has no simplex
tables and is written as its boundary blocks instead, one per k = 1..dim:

    boundary 1          # sparse triples "row col coeff", sorted row-major
    0 0 -1
    ...
    end

A ``v1`` file (boundary blocks beside the simplex blocks, and cover
sections) is refused.  A file holds a complex and its labels only:
witness cochains travel inline in verification reports.  Dropping the
``cochain`` section, which only witness files ever held, left every file
that ``build`` writes unchanged, so the header stays ``v2``; a ``cochain``
line is refused as an unrecognized line.

Serialization is deterministic: cells in index order, triples sorted
row-major, labels sorted by name.  Every number is an integer.
"""

from itertools import chain, repeat
from operator import sub

from .complexes import CellComplex
from .errors import ShapeMismatch

FORMAT_VERSION = "v2"
MAGIC = "coarse-kit-complex"


def _row_major(table):
    """The rows, columns and coefficients of a boundary table
    ``(rows, coefs, ptr)``, each an iterator over its entries row-major:
    one stable sort by row keeps the column order inside each row."""
    rows, coefs, ptr = table
    cols = list(chain.from_iterable(map(repeat, range(len(ptr) - 1),
                                        map(sub, ptr[1:], ptr))))
    order = sorted(range(len(rows)), key=rows.__getitem__)
    return (map(rows.__getitem__, order), map(cols.__getitem__, order),
            map(coefs.__getitem__, order))


def _boundary_text(table):
    """The triples "row col coeff" of one boundary table, row-major,
    rendered by one ``%`` format."""
    n = len(table[0])
    flat = [0] * (3 * n)
    flat[0::3], flat[1::3], flat[2::3] = _row_major(table)
    return ("%d %d %d\n" * n) % tuple(flat)


def _simplex_text(level, k):
    """The vertex lines of the k-simplices of one level."""
    return (("%d" + " %d" * k + "\n") * len(level)) % tuple(
        chain.from_iterable(level))


def serialize_complex(X):
    """Render a complex to format text.

    Simplex or boundary levels, which hold nearly all the bytes, are each
    rendered by one bulk format; labels line by line.
    """
    parts = [f"{MAGIC} {FORMAT_VERSION}\ndim {X.dim}\ncounts "
             + " ".join(str(c) for c in X.counts) + "\n"]
    if X.is_simplicial:
        for k in range(X.dim + 1):
            parts += [f"simplices {k}\n", _simplex_text(X.simplices[k], k),
                      "end\n"]
    else:
        for k in range(1, X.dim + 1):
            parts += [f"boundary {k}\n", _boundary_text(X.boundary_table(k)),
                      "end\n"]
    lines = []
    for name in sorted(X.labels):
        cells = " ".join(f"{d}:{i}" for d, i in X.labels[name])
        lines.append(f"label {name} {cells}".rstrip())
    if lines:
        parts.append("\n".join(lines) + "\n")
    return "".join(parts)


def write_complex(path, X):
    text = serialize_complex(X)
    with open(path, "w") as fp:
        fp.write(text)
    return text


def _content_lines(text):
    """(line number, text) of each line with its comment and trailing
    blanks cut, skipping lines left empty."""
    for n, ln in enumerate(text.splitlines(), 1):
        ln = ln.split("#", 1)[0].rstrip()
        if ln.strip():
            yield n, ln


def _ints(n, ln, what, size=None, skip=0):
    """The integers of line n after its first ``skip`` words; exactly
    ``size`` of them when given."""
    try:
        vals = [int(v) for v in ln.split()[skip:]]
    except ValueError:
        vals = None
    if vals is None or (size is not None and len(vals) != size):
        raise ShapeMismatch(f"line {n}: expected {what}, got {ln!r}")
    return vals


def _header_ints(lines, key):
    """The integers of the ``key ...`` line that must come next."""
    n, ln = next(lines, (None, None))
    if ln is None:
        raise ShapeMismatch(f"file ends before its {key} line")
    if ln.split()[:1] != [key]:
        raise ShapeMismatch(f"line {n}: expected '{key} ...', got {ln!r}")
    return n, _ints(n, ln, f"'{key}' and integers", skip=1)


def _block(lines, n, ln):
    """The (line number, text) rows of the block opened at line n, up to
    its ``end``."""
    for row in lines:
        if row[1] == "end":
            return
        yield row
    raise ShapeMismatch(f"line {n}: block {ln!r} has no 'end'")


def parse_complex(text):
    """Parse format text back into a complex.

    A malformed file raises ``ShapeMismatch`` naming the line at fault: a
    bad header (a ``v1`` file among them), a counts line whose top
    dimension has no cells (the writer drops empty top levels), a block
    without ``end``, a short or non-integer row, a row, column, cell or
    dimension out of range, a boundary block in a file with simplex
    blocks, a label name given twice, or an unrecognized line (a
    ``cochain`` section among them).

    A file with simplex blocks is a simplicial complex, made from its
    vertex tuples alone by :meth:`CellComplex.from_simplices`, which
    computes every boundary and raises ``NotSimplicial`` for a bad,
    repeated or faceless tuple; d^2 = 0 holds there by construction.  A
    file with boundary blocks is a cell complex, whose constructor checks
    d^2 = 0 and names the first cell where it fails.
    """
    lines = _content_lines(text)
    head = next(lines, (None, ""))[1].split()
    if head != [MAGIC, FORMAT_VERSION]:
        raise ShapeMismatch(f"not a {MAGIC} {FORMAT_VERSION} file")
    _, dims = _header_ints(lines, "dim")
    n, counts = _header_ints(lines, "counts")
    if len(dims) != 1 or len(counts) != dims[0] + 1 or min(counts) < 0:
        raise ShapeMismatch(f"line {n}: counts line does not match dim")
    dim = dims[0]
    if dim and not counts[-1]:
        raise ShapeMismatch(f"line {n}: no cells of the top dimension {dim}")
    # per boundary level, the rows, columns and coefficients of its triples
    triples = [None] + [([], [], []) for _ in range(dim)]
    boundary_line = None
    simplices = None
    labels = {}
    for n, ln in lines:
        parts = ln.split()
        kind = parts[0]
        if kind in ("boundary", "simplices"):
            k, = _ints(n, ln, f"'{kind} K'", 1, skip=1)
            if not (0 if kind == "simplices" else 1) <= k <= dim:
                raise ShapeMismatch(
                    f"line {n}: {kind} {k} out of range for dim {dim}")
        elif kind == "label":
            if len(parts) < 2:
                raise ShapeMismatch(f"line {n}: label without a name")
            if parts[1] in labels:
                raise ShapeMismatch(f"line {n}: label {parts[1]} given twice")
        if kind == "boundary":
            if boundary_line is None:
                boundary_line = n
            rows, cols, coefs = triples[k]
            n_rows, n_cols = counts[k - 1], counts[k]
            for n, row in _block(lines, n, ln):
                try:
                    r, j, c = map(int, row.split())
                except ValueError:
                    raise ShapeMismatch(f"line {n}: expected 'row col coeff'"
                                        f", got {row!r}") from None
                if not (0 <= r < n_rows and 0 <= j < n_cols):
                    raise ShapeMismatch(
                        f"line {n}: entry ({r}, {j}) out of range for "
                        f"{n_rows} rows and {n_cols} columns")
                rows.append(r)
                cols.append(j)
                coefs.append(c)
        elif kind == "simplices":
            if simplices is None:
                simplices = [[] for _ in range(dim + 1)]
            simplices[k].extend(
                tuple(_ints(n, row, f"{k + 1} vertex ids", k + 1))
                for n, row in _block(lines, n, ln))
        elif kind == "label":
            cells = []
            for item in parts[2:]:
                d, i = _ints(n, item.replace(":", " ", 1),
                             "'dim:index' cells", 2)
                if not (0 <= d <= dim and 0 <= i < counts[d]):
                    raise ShapeMismatch(
                        f"line {n}: label cell {item} out of range")
                cells.append((d, i))
            labels[parts[1]] = cells
        else:
            raise ShapeMismatch(f"line {n}: unrecognized line: {ln!r}")
    if simplices is None:
        boundaries = [None]
        for k in range(1, dim + 1):
            columns = [{} for _ in range(counts[k])]
            for r, j, c in zip(*triples[k]):
                columns[j][r] = c
            boundaries.append(columns)
        return CellComplex(counts, boundaries, labels=labels)
    if boundary_line is not None:
        raise ShapeMismatch(f"line {boundary_line}: a boundary block in a "
                            f"file with simplex blocks")
    for k, level in enumerate(simplices):
        if len(level) != counts[k]:
            raise ShapeMismatch(f"simplices {k}: {len(level)} vertex "
                                f"tuples for {counts[k]} cells")
    return CellComplex.from_simplices(simplices, labels=labels)


def read_complex(path):
    with open(path) as fp:
        return parse_complex(fp.read())

