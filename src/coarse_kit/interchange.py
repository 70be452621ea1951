"""The complex interchange format: one structured text file per complex.

Layout (version 1, line oriented, `#` comments ignored):

    coarse-kit-complex v1
    dim 2
    counts 6 9 4
    boundary 1          # sparse triples "row col coeff", sorted row-major
    0 0 -1
    ...
    end
    simplices 1         # optional, one line of vertex ids per cell
    0 1
    ...
    end
    label boundary 0:0 0:1 1:3 ...
    cochain obstruction degree=2 ring=Z      # sparse "cell value" pairs
    2 1
    end
    cover arcs kind=explicit                 # one vertex-set line per member
    0 1 2
    end

Serialization is deterministic: cells in index order, triples sorted
row-major, labels and cochains sorted by name.  All numbers are integers or
`p/q` rationals; nothing is floating point.
"""

from fractions import Fraction

from .complexes import CellComplex
from .errors import ShapeMismatch

FORMAT_VERSION = "v1"
MAGIC = "coarse-kit-complex"


def _num_to_str(v):
    if isinstance(v, Fraction) and v.denominator != 1:
        return f"{v.numerator}/{v.denominator}"
    return str(int(v))


def _num_from_str(s):
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return int(s)


def serialize_complex(X, cochains=None, covers=None):
    """Render a complex (plus optional cochains/covers) to format text."""
    lines = [f"{MAGIC} {FORMAT_VERSION}", f"dim {X.dim}",
             "counts " + " ".join(str(c) for c in X.counts)]
    for k in range(1, X.dim + 1):
        lines.append(f"boundary {k}")
        # (row, col) pairs are unique and columns are visited in order, so
        # per-row buckets come out sorted row-major
        rows = [[] for _ in range(X.n_cells(k - 1))]
        for j, col in enumerate(X.boundary_columns(k)):
            for r, c in col.items():
                rows[r].append(f"{r} {j} {c}")
        for row in rows:
            lines.extend(row)
        lines.append("end")
    if X.is_simplicial:
        for k in range(X.dim + 1):
            lines.append(f"simplices {k}")
            for verts in X.simplices[k]:
                lines.append(" ".join(map(str, verts)))
            lines.append("end")
    for name in sorted(X.labels):
        cells = " ".join(f"{d}:{i}" for d, i in X.labels[name])
        lines.append(f"label {name} {cells}".rstrip())
    for name in sorted(cochains or {}):
        c = cochains[name]
        ring = c.ring if isinstance(c.ring, str) else f"Z{c.ring[1]}"
        lines.append(f"cochain {name} degree={c.degree} ring={ring}")
        for i, v in enumerate(c.values):
            if v != 0:
                lines.append(f"{i} {_num_to_str(v)}")
        lines.append("end")
    for name in sorted(covers or {}):
        cov = covers[name]
        lines.append(f"cover {name} kind={cov.kind}")
        for s in cov.sets:
            lines.append(" ".join(str(v) for v in sorted(s)))
        lines.append("end")
    return "\n".join(lines) + "\n"


def write_complex(path, X, cochains=None, covers=None):
    text = serialize_complex(X, cochains=cochains, covers=covers)
    with open(path, "w") as fp:
        fp.write(text)
    return text


def parse_complex(text):
    """Parse format text back into (complex, cochains, covers).

    Cochains come back as raw dicts (degree, ring, values); covers as
    (kind, vertex sets) — the caller owns rebinding them to richer types.
    """
    lines = [ln.split("#", 1)[0].rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip()]
    pos = 0

    def take():
        nonlocal pos
        ln = lines[pos]
        pos += 1
        return ln

    head = take().split()
    if head[0] != MAGIC or head[1] != FORMAT_VERSION:
        raise ShapeMismatch(f"not a {MAGIC} {FORMAT_VERSION} file")
    dim = int(take().split()[1])
    counts = [int(v) for v in take().split()[1:]]
    if len(counts) != dim + 1:
        raise ShapeMismatch("counts line does not match dim")
    boundaries = [None] + [
        [dict() for _ in range(counts[k])] for k in range(1, dim + 1)
    ]
    simplices = None
    labels = {}
    cochains = {}
    covers = {}
    while pos < len(lines):
        ln = take()
        parts = ln.split()
        if parts[0] == "boundary":
            k = int(parts[1])
            while True:
                row = take()
                if row == "end":
                    break
                r, j, c = (int(v) for v in row.split())
                boundaries[k][j][r] = c
        elif parts[0] == "simplices":
            k = int(parts[1])
            if simplices is None:
                simplices = [[] for _ in range(dim + 1)]
            while True:
                row = take()
                if row == "end":
                    break
                simplices[k].append(tuple(int(v) for v in row.split()))
        elif parts[0] == "label":
            name = parts[1]
            cells = []
            for item in parts[2:]:
                d, i = item.split(":")
                cells.append((int(d), int(i)))
            labels[name] = cells
        elif parts[0] == "cochain":
            name = parts[1]
            meta = dict(p.split("=") for p in parts[2:])
            degree = int(meta["degree"])
            ring = meta["ring"]
            values = {}
            while True:
                row = take()
                if row == "end":
                    break
                i, v = row.split()
                values[int(i)] = _num_from_str(v)
            cochains[name] = {"degree": degree, "ring": ring, "values": values}
        elif parts[0] == "cover":
            name = parts[1]
            meta = dict(p.split("=") for p in parts[2:])
            sets = []
            while True:
                row = take()
                if row == "end":
                    break
                sets.append({int(v) for v in row.split()})
            covers[name] = {"kind": meta.get("kind", "explicit"), "sets": sets}
        else:
            raise ShapeMismatch(f"unrecognized line: {ln!r}")
    X = CellComplex(counts, boundaries, simplices=simplices, labels=labels)
    return X, cochains, covers


def read_complex(path):
    with open(path) as fp:
        return parse_complex(fp.read())


def bind_cochain(X, raw):
    """Turn a parsed cochain record into a Cochain on the given complex."""
    from .cochains import Cochain, RING_Q, RING_Z, ring_zp

    ring = raw["ring"]
    if ring == "Z":
        ring_obj = RING_Z
    elif ring == "Q":
        ring_obj = RING_Q
    else:
        ring_obj = ring_zp(int(ring[1:]))
    vals = [0] * X.n_cells(raw["degree"])
    for i, v in raw["values"].items():
        vals[i] = v
    return Cochain(X, raw["degree"], ring_obj, vals)
