"""Triangle meshes and profile curves for inspecting 3D realizations.

A surface of revolution for arrays in R^3 (1-dimensional base, circle
fibers) and a two-sheeted graph z = ±f(x'') over a 2-dimensional base,
stitched along the rim where f = 0; areas of closed meshes serve as an
independent oracle for the quadrature-based totals.

The layout is fixed, so exports are byte-identical across runs.  A ring
is N vertices at angles 2*pi*l/N.  ``revolve_mesh`` lists the first
pole, the rings at the interior axial stations, then the last pole;
``graph_slice_mesh`` lists the top centre, the top rings out to the rim,
the bottom centre, then the bottom rings without the rim, which both
sheets share.  Triangles come in the same order: the fan at each pole
or centre, the bands between consecutive rings.  A band from inner ring
a to outer ring d lists (a_l, a_l+1, d_l+1) and (a_l, d_l+1, d_l) for
each l; a fan around c lists (c, a_l+1, a_l).  The first pole and the
bottom sheet keep this winding; the last pole and the top sheet swap
the last two columns.  A mesh of negative signed volume is reversed.

Text exports come from an array kernel whose bytes equal Python's ``%``:
OBJ vertices ``%.9g``, faces ``%d``, CSV fields ``%.17g``.  For P digits
it certifies a nonzero finite v whose exponent e = floor(log10|v|), read
exactly off the least doubles >= 10^k, lies in [-6, P - 1].  Then 10^p,
p = P - 1 - e, is an exact double, Dekker's TwoProduct (1971) gives
|v|*10^p in [10^(P-1), 10^P) exactly as hi + lo, and with n = rint(hi),
hi - n is exact.  For P = 17, hi >= 2^53 is an even integer and
n + rint(lo) is the value rounded half to even, as in Python's correctly
rounded conversion (Gay 1990); for P = 9, lo decides by its sign a tie
hi = n -+ 1/2, and a value that rounds up to 10^P moves up a decade.
Sign, leading "0.000", the digits without trailing zeros, point and
"e-05" fill fixed slots of a field by the %g rules, and the empty slots
are deleted.  Zeros and integers in [0, 10^7) are certified too; every
other value is formatted by Python's ``%`` in its place.
"""

import functools
import math
from types import SimpleNamespace

import numpy as np

__all__ = [
    "Mesh",
    "profile_curve",
    "revolve_mesh",
    "graph_slice_mesh",
    "mesh_area",
    "write_obj",
    "csv_bytes",
    "csv_text",
    "write_profile_csv",
]


class Mesh:
    """Indexed triangle mesh in R^3."""

    def __init__(self, vertices, triangles, closed):
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError("vertices must be (v, 3)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must be (t, 3)")
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            raise ValueError("triangle index out of range")
        self.vertices = vertices
        self.triangles = triangles
        self.closed = bool(closed)
        if self.closed and not self.is_watertight():
            raise ValueError("closed mesh fails the shared-edge check")

    def _edges(self):
        """Sorted keys u*V + v of the undirected edges (u < v) and their counts,
        by one 1-D unique; each side's u and v are the min and max of its ends."""
        a, b = self.triangles.ravel(), np.roll(self.triangles, -1, axis=1).ravel()
        return np.unique(np.minimum(a, b) * len(self.vertices) + np.maximum(a, b),
                         return_counts=True)

    def edge_counts(self):
        """Dictionary mapping undirected edges to incidence counts."""
        keys, counts = self._edges()
        u, v = np.divmod(keys, len(self.vertices))
        return dict(zip(zip(u.tolist(), v.tolist()), counts.tolist()))

    def is_watertight(self):
        return bool(np.all(self._edges()[1] == 2))

    def euler_characteristic(self):
        return len(self.vertices) - len(self._edges()[1]) + len(self.triangles)

    def signed_volume(self):
        """Divergence-theorem volume; positive for outward orientation.

        The triple products a . (b x c) of the triangles (a, b, c), summed
        and divided by 6, from one gather of the (coordinate, corner,
        triangle) array.
        """
        (ax, bx, cx), (ay, by, cy), (az, bz, cz) = self.vertices.T[:, self.triangles.T]
        return float(np.sum(ax * (by * cz - bz * cy) + ay * (bz * cx - bx * cz)
                            + az * (bx * cy - by * cx))) / 6.0


def mesh_area(mesh):
    """Total area: sum of triangle areas (degenerate triangles add 0)."""
    p = mesh.vertices[mesh.triangles]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    return 0.5 * float(np.sum(np.linalg.norm(cross, axis=1)))


def profile_curve(scaling, samples):
    """Points (x, f(x)) with Chebyshev x-spacing on [0, m_k].

    Endpoints are exactly (0, 0) and (m_k, 1); the clustering toward
    the ends resolves the infinite slope at x = 0.
    """
    samples = int(samples)
    if samples < 2:
        raise ValueError("need at least 2 samples")
    i = np.arange(samples)
    x = 0.5 * scaling.m_k * (1.0 - np.cos(math.pi * i / (samples - 1)))
    x[0], x[-1] = 0.0, scaling.m_k
    return np.stack([x, scaling.f(x)], axis=1)


def _band(inner, outer):
    """Triangles joining the (b, N) rings ``inner`` to the (b, N) rings ``outer``."""
    b, c = np.roll(inner, -1, axis=1), np.roll(outer, -1, axis=1)
    return np.stack([inner, b, c, inner, c, outer], axis=2).reshape(-1, 3)


def _fan(center, ring):
    """Triangles joining the vertex ``center`` to the N-vertex ``ring``."""
    return np.stack([np.full_like(ring, center), np.roll(ring, -1), ring], axis=1)


def _closed_mesh(vertices, triangles):
    """Checked closed mesh, reversed once if it comes out inside out."""
    mesh = Mesh(vertices, triangles, closed=True)
    if mesh.signed_volume() < 0.0:
        mesh.triangles = mesh.triangles[:, ::-1]
    return mesh


def revolve_mesh(h, res_axial=64, res_angular=64):
    """Closed surface of revolution for an array in R^3 (base dim 1).

    Vertices are rings of ``res_angular`` points at ``res_axial``-segment
    Chebyshev stations along the base interval, capped by pole fans at
    the two ends where the fiber radius vanishes.
    """
    if h.n != 3 or h.base_dim != 1:
        raise ValueError("revolve_mesh needs an array in R^3 over a 1-dim base")
    if res_axial < 2 or res_angular < 3:
        raise ValueError("resolution too small")
    (lo,), (hi,) = h.base.bounding_box()
    x = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(math.pi * np.arange(res_axial + 1) / res_axial)
    x[0], x[-1] = lo, hi
    radii = h.warping(x[:, None])[1:-1]
    theta = 2.0 * math.pi * np.arange(res_angular) / res_angular
    rings = np.stack([np.repeat(x[1:-1], res_angular), np.outer(radii, np.cos(theta)).ravel(),
                      np.outer(radii, np.sin(theta)).ravel()], axis=1)
    vertices = np.vstack([[x[0], 0.0, 0.0], rings, [x[-1], 0.0, 0.0]])

    idx = 1 + np.arange(len(rings)).reshape(res_axial - 1, res_angular)
    triangles = np.vstack([
        _fan(0, idx[0]),
        _band(idx[:-1], idx[1:]),
        _fan(len(vertices) - 1, idx[-1])[:, [0, 2, 1]],
    ])
    return _closed_mesh(vertices, triangles)


def graph_slice_mesh(h, res=48):
    """Closed two-sheeted graph z = ±f(x'') over a 2-dimensional base.

    The base is covered by a polar grid from an interior origin with
    rim radius from the base's boundary-ray distances; the two sheets
    share the rim ring, where f = 0.
    """
    if h.base_dim != 2:
        raise ValueError("graph_slice_mesh needs a 2-dimensional base")
    if res < 3:
        raise ValueError("resolution too small")
    lo, hi = h.base.bounding_box()
    origin = 0.5 * (lo + hi)
    if hasattr(h.base, "center"):
        origin = np.asarray(h.base.center, dtype=float)
    n_ang = 2 * res
    theta = 2.0 * math.pi * np.arange(n_ang) / n_ang
    rim = h.base.boundary_radius(origin, theta)
    # Chebyshev radial stations cluster toward the rim, where the slope diverges.
    shell = np.sin(0.5 * math.pi * np.arange(1, res + 1) / res)
    r = np.outer(shell, rim)
    xy = np.stack([origin[0] + (r * np.cos(theta)).ravel(),
                   origin[1] + (r * np.sin(theta)).ravel()], axis=1)
    f = np.concatenate([h.warping(np.vstack([origin, xy[:-n_ang]])), np.zeros(n_ang)])
    top = np.column_stack([np.vstack([origin, xy]), f])
    vertices = np.vstack([top, np.column_stack([top[:-n_ang, :2], -f[:-n_ang]])])

    top_rings = 1 + np.arange(res * n_ang).reshape(res, n_ang)
    bottom_rings = np.vstack([len(top) + top_rings[:-1], top_rings[-1:]])
    triangles = np.vstack([
        _fan(0, top_rings[0])[:, [0, 2, 1]],
        _band(top_rings[:-1], top_rings[1:])[:, [0, 2, 1]],
        _fan(len(top), bottom_rings[0]),
        _band(bottom_rings[:-1], bottom_rings[1:]),
    ])
    return _closed_mesh(vertices, triangles)


def _blocks(table):
    """``table`` split into blocks of 4,096 rows, which bound the live numbers and bytes."""
    return np.split(table, range(4096, len(table), 4096))


def write_obj(mesh, path):
    """ASCII v/f records, 1-based indices, LF endings, 9 significant digits."""
    with open(path, "wb") as fh:
        for head, table in ((b"v ", mesh.vertices), (b"f ", mesh.triangles + 1)):
            fh.writelines(_g17_rows(b, 9, head, b" ") for b in _blocks(table))


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter


def _words(byte_rows):
    """(m, 8w) bytes as the (w, m) little-endian 64-bit words of each row."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view("<u8").T.copy()


@functools.cache
def _g17_tables(digits=17):
    """Constant tables of the kernel for ``digits`` significant digits (P),
    built at its first call for P, so that an import pays neither their
    time nor their memory.

    Field classes are 2*(e + 6) + (point shown) for e in [-6, P - 1], then
    the fallback class.  A class's template marks with L and T the slots
    of the digits before and after the point and with NUL an empty slot;
    slot 0 takes the sign and the last slot the separator.  From the
    templates come the digits' shift in bits and the words of the lead
    slots, the tail slots and the constant bytes.
    """
    width = 8 * ((digits + 14) // 8)  # sign, "0.000", the digits and the separator
    rows = []
    for e in range(-6, digits):
        for point in (False, True):
            if -4 <= e < 0:
                body = "0." + "0" * (-e - 1) + "L" * digits
            elif e >= 0:
                body = "L" * (e + 1) + ("." + "T" * (digits - 1 - e) if point
                                        else "L" * (digits - 1 - e))
            else:
                body = "L" + ("." + "T" * (digits - 1) if point else "\0" * digits) + "e%+03d" % e
            rows.append(("\0" + body).ljust(width, "\0"))
    rows.append(f"\0%.{digits}g".ljust(width, "\0"))
    t = np.array([list(r.encode()) for r in rows], dtype=np.uint8)
    lead, tail = t == ord("L"), t == ord("T")
    e = np.arange(-6, digits)
    decades = []  # the least double >= 10^k, for k in [-6, P]
    for k in range(-6, digits + 1):
        num, den = (x := 10 ** k if k >= 0 else 1 / 10 ** -k).as_integer_ratio()
        decades.append(x if k >= 0 or num * 10 ** -k >= den else np.nextafter(x, 1))
    # Four ASCII digits of 0..9999 as one little-endian word, their trailing
    # zeros, and the word with its leading zeros NUL (the last digit stays).
    quads = np.arange(10_000, dtype=np.uint64)
    quad_ascii = sum((quads // 10 ** (3 - j) % 10 + 48) << 8 * j for j in range(4))
    lead_zeros = 3 - (quads >= 10) - (quads >= 100) - (quads >= 1000)
    pow10 = np.array([float(10 ** k) for k in range(23)])  # exact doubles
    pow10_hi = _SPLIT * pow10 - (_SPLIT * pow10 - pow10)
    # For a of exponent field b, binade[b] + (a >= next_decade[b]) decades are <= a.
    floors = np.concatenate([[0.0], np.ldexp(1.0, np.arange(-1022, 1024)), [np.inf]])
    binade = np.searchsorted(decades, floors, side="right")
    return SimpleNamespace(
        digits=digits, decade_count=len(decades), binade=binade,
        next_decade=np.append(decades, np.inf)[binade],
        pow10=pow10, pow10_hi=pow10_hi, pow10_lo=pow10 - pow10_hi,
        shift=np.maximum(np.argmax(lead, axis=1), 1).astype(np.uint64) * 8,
        lead=_words(lead * 255), tail=_words(tail * 255), const=_words(np.where(lead | tail, 0, t)),
        keep=_words((np.arange(width) < np.arange(digits + 1)[:, None]) * 255),  # first K digits
        int_end=np.maximum(e, 0),  # the last integer digit in fixed notation
        point_at=np.where((e >= -4) & (e < 0), digits, np.maximum(e, 0)),  # P: no point
        quad_ascii=quad_ascii,
        quad_zeros=sum(quads % 10 ** j == 0 for j in range(1, 5)).astype(np.int8),
        quad_trim=quad_ascii & (2 ** 32 - (1 << 8 * lead_zeros.astype(np.uint64))),
    )


def _two_product(a, p, tables):
    """hi, lo with hi + lo == a * 10**p exactly (Dekker 1971), p in [0, 22]."""
    hi = a * tables.pow10[p]
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    bh, bl = tables.pow10_hi[p], tables.pow10_lo[p]
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _decimal(v, tables):
    """d, e + 6, ok: |v| rounded half to even to d * 10^(e - P + 1), d in
    [10^(P - 1), 10^P), and the mask of the certified values (module
    docstring); zeros and uncertified values read d = 0, e = 0."""
    a = np.abs(v)
    b = a.view(np.int64) >> 52
    i = tables.binade[b] + (a >= tables.next_decade[b])  # 10^(i - 7) <= a < 10^(i - 6)
    ok = (i > 0) & (i < tables.decade_count)
    a[~ok] = 1.0
    p = np.where(ok, tables.digits + 6 - i, tables.digits - 1)  # a * 10^p < 10^P
    hi, lo = _two_product(a, p, tables)
    n = np.rint(hi)  # rounding as in the module docstring
    r = hi - n
    d = (n.astype(np.int64) + np.rint(lo).astype(np.int64)
         + ((r == 0.5) & (lo > 0.0)) - ((r == -0.5) & (lo < 0.0)))
    up = d == 10 ** tables.digits  # rounded up to the next power of ten
    d[up], p[up] = 10 ** (tables.digits - 1), p[up] - 1
    ok &= p >= 0
    d[~ok] = 0
    return d, np.where(ok, tables.digits + 5 - p, 6), ok | (v == 0.0)


def _ascii(d, tables):
    """The P digits of d as ASCII in bytes 0 to P - 1 of the words of a field,
    and the index of the last nonzero digit (0 for d = 0)."""
    parts = []  # by ``//`` and ``-``: numpy's integer ``divmod`` is several times slower
    for k in range(tables.digits - 1, 0, -4):
        parts.append(d // 10 ** k)
        d = d - parts[-1] * 10 ** k
    lead, *quads = parts + [d]
    words = [lead.astype(np.uint64) + 48] + [0] * (len(tables.lead) - 1)
    run = 0  # trailing zero digits
    for j, q in enumerate(quads):
        w, z, bit = tables.quad_ascii[q], tables.quad_zeros[q], 8 + 32 * j
        words[bit // 64] |= w << (bit % 64)
        if bit % 64 > 32:
            words[bit // 64 + 1] |= w >> (64 - bit % 64)
        run = z + (z == 4) * run
    return words, tables.digits - 1 - run


def _float_fields(v, tables):
    """The (m, w) field words of ``%.Pg`` and the mask of the certified values."""
    d, ek, ok = _decimal(v, tables)
    words, last = _ascii(d, tables)
    keep = np.maximum(last, tables.int_end[ek]) + 1
    cls = np.where(ok, 2 * ek + (last > tables.point_at[ek]), len(tables.shift) - 1)
    # The kept digits move up to the lead slots, and one byte further to the tail slots.
    s = tables.shift[cls]
    out = np.empty((v.size, len(words)), "<u8")
    x_prev = l_prev = np.uint64(0)
    for j, x in enumerate(words):
        x &= tables.keep[j][keep]
        lj = (x << s) | (x_prev >> (64 - s))
        tj = (lj << 8) | (l_prev >> 56)
        out[:, j] = (lj & tables.lead[j][cls]) | (tj & tables.tail[j][cls]) | tables.const[j][cls]
        x_prev, l_prev = x, lj
    out[:, 0] |= (np.signbit(v) & ok).astype(np.uint64) * ord("-")
    return out, ok


def _int_fields(v, tables):
    """The (m, 1) field words of ``%d`` and the mask of the certified values,
    those in [0, 10^7): up to seven digits in bytes 0-6, each empty slot NUL."""
    ok = (v >= 0) & (v < 10 ** 7)
    v = np.where(ok, v, 0)
    low = v - (high := v // 10_000) * 10_000
    word = np.where(high > 0, (tables.quad_trim[high] >> 8) | (tables.quad_ascii[low] << 24),
                    tables.quad_trim[low] << 24)
    return np.where(ok, word, ord("%") | ord("d") << 8)[:, None], ok


def _g17_template(block, digits=17, head=b"", sep=b","):
    """Text bytes of the (r, c) ``block``, ``%.Pg`` fields for floats and
    ``%d`` for integers, each row ``head`` and its fields joined by ``sep``,
    and the mask of the values the kernel does not certify, whose fields
    read ``%.Pg`` or ``%d`` (module docstring)."""
    tables = _g17_tables(digits)
    fields, ok = (_int_fields if block.dtype.kind == "i" else _float_fields)(block.ravel(), tables)
    out = fields.reshape(*block.shape, -1)
    out[:, :, -1] |= np.array([ord(sep)] * (block.shape[1] - 1) + [ord("\n")], np.uint64) << 56
    if head:
        out = np.column_stack([np.full(len(block), int.from_bytes(head, "little"), "<u8"),
                               out.reshape(len(block), -1)])
    return out.tobytes().translate(None, b"\0"), ~ok


def _g17_rows(block, *args):
    """Text bytes of ``block``: the kernel's, with Python's ``%`` for the uncertified values."""
    text, fallback = _g17_template(block, *args)
    return text % tuple(block.ravel()[fallback].tolist()) if fallback.any() else text


def csv_bytes(columns, table):
    """CSV bytes: a header of ``columns``, then ``table`` in 17-significant-digit floats."""
    table = np.asarray(table, dtype=float).reshape(len(table), len(columns))
    header = (",".join(columns) + "\n").encode()
    return b"".join([header, *map(_g17_rows, _blocks(table))])


def csv_text(columns, table):
    """``csv_bytes`` as text."""
    return csv_bytes(columns, table).decode()


def write_profile_csv(points, path):
    """Profile curve as CSV with header and 17-significant-digit floats."""
    with open(path, "wb") as fh:
        fh.write(csv_bytes(["x", "f"], points))
