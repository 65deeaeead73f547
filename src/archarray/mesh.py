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

OBJ vertices are written with Python's ``%.9g``.  CSV fields are
``%.17g``, formatted by an array kernel whose bytes equal Python's.  The
kernel certifies a nonzero finite v when p = 16 - floor(log10|v|) lies
in [0, 22], that is 10^-6 <= |v| < 10^17.  Then 10^p is an exact
double, so Dekker's TwoProduct (1971) gives |v|*10^p exactly as hi + lo,
and where hi + lo falls against [1e16, 1e17) corrects a log10 estimate
of the exponent that is one off.  There hi is an even integer, so
hi + rint(lo) is the 17-digit value rounded half to even, as in Python's
correctly rounded conversion (Gay 1990).  Sign, leading "0.000", the
digits without trailing zeros, point and "e-05" go into fixed slots of
a 24-byte field by the %g rules, and the empty slots are deleted.
Zeros are certified too; every other value (non-finite, |v| < 10^-6,
|v| >= 10^17) is formatted by Python's ``%`` in its place.
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
        """Sorted undirected edges (u < v) and their counts, by one 1-D unique of u*V + v."""
        t = self.triangles
        pairs = np.sort(np.stack([t, np.roll(t, -1, axis=1)], axis=2).reshape(-1, 2), axis=1)
        v = len(self.vertices)
        keys, counts = np.unique(pairs[:, 0] * v + pairs[:, 1], return_counts=True)
        return np.stack([keys // v, keys % v], axis=1), counts

    def edge_counts(self):
        """Dictionary mapping undirected edges to incidence counts."""
        edges, counts = self._edges()
        return dict(zip(map(tuple, edges.tolist()), counts.tolist()))

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


def _rows(row, table):
    """``row % r`` for each row r of ``table``, one ``%`` per block."""
    return "".join((row * len(b)) % tuple(b.ravel().tolist()) for b in _blocks(table))


def write_obj(mesh, path):
    """ASCII v/f records, 1-based indices, LF endings, 9 significant digits."""
    with open(path, "w", newline="\n") as fh:
        fh.write(_rows("v %.9g %.9g %.9g\n", mesh.vertices))
        fh.write(_rows("f %d %d %d\n", mesh.triangles + 1))


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter


def _words(byte_rows):
    """(m, 24) bytes as the (3, m) little-endian 64-bit words of each row."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view("<u8").T.copy()


@functools.cache
def _g17_tables():
    """Constant tables of the ``%.17g`` kernel, built at its first call, so
    that an import pays neither their time nor their memory.

    Field classes are 2*(e + 6) + (point shown) for e in [-6, 16], then
    the fallback class.  A class's template marks with L and T the slots
    of the digits before and after the point and with NUL an empty slot;
    slot 0 takes the sign and slot 23 the separator.  From the templates
    come the digits' shift in bits and the words of the lead slots, the
    tail slots and the constant bytes.
    """
    rows = []
    for e in range(-6, 17):
        for point in (False, True):
            if -4 <= e < 0:
                body = "0." + "0" * (-e - 1) + "L" * 17
            elif e >= 0:
                body = "L" * (e + 1) + ("." + "T" * (16 - e) if point else "L" * (16 - e))
            else:
                body = "L" + ("." + "T" * 16 if point else "\0" * 17) + "e%+03d" % e
            rows.append(("\0" + body).ljust(24, "\0"))
    rows.append("\0%.17g".ljust(24, "\0"))
    t = np.array([list(r.encode()) for r in rows], dtype=np.uint8)
    lead, tail = t == ord("L"), t == ord("T")
    e = np.arange(-6, 17)
    quads = np.arange(10_000, dtype=np.uint64)
    pow10 = np.array([float(10 ** k) for k in range(23)])  # exact doubles
    pow10_hi = _SPLIT * pow10 - (_SPLIT * pow10 - pow10)
    return SimpleNamespace(
        pow10=pow10, pow10_hi=pow10_hi, pow10_lo=pow10 - pow10_hi,
        shift=np.maximum(np.argmax(lead, axis=1), 1).astype(np.uint64) * 8,
        lead=_words(lead * 255), tail=_words(tail * 255), const=_words(np.where(lead | tail, 0, t)),
        keep=_words((np.arange(24) < np.arange(18)[:, None]) * 255),  # the first K digits
        int_end=np.maximum(e, 0),  # the last integer digit in fixed notation
        point_at=np.where((e >= -4) & (e < 0), 17, np.maximum(e, 0)),  # 17: no point
        # Four ASCII digits of 0..9999 as one little-endian word, and their trailing zeros.
        quad_ascii=sum((quads // 10 ** (3 - j) % 10 + 48) << 8 * j for j in range(4)),
        quad_zeros=sum(quads % 10 ** j == 0 for j in range(1, 5)).astype(np.int8),
    )


def _two_product(a, p, tables):
    """hi, lo with hi + lo == a * 10**p exactly (Dekker 1971), p in [0, 22]."""
    hi = a * tables.pow10[p]
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    bh, bl = tables.pow10_hi[p], tables.pow10_lo[p]
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _off_scale(hi, lo):
    """hi + lo outside [1e16, 1e17)."""
    return (hi < 1e16) | (hi > 1e17) | ((hi == 1e16) & (lo < 0.0)) | ((hi == 1e17) & (lo >= 0.0))


def _decimal17(v, tables):
    """d, e, ok: |v| rounded half to even to d * 10^(e - 16), d an integer in
    [1e16, 1e17), and the mask of the values the kernel certifies (module
    docstring); zeros and uncertified values read d = 0, e = 0."""
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    ok = (e >= -7.0) & (e <= 17.0)  # room to correct the estimate by one
    a[~ok] = 1.0
    p = np.where(ok, np.clip(16.0 - e, 0.0, 22.0), 16.0).astype(np.intp)
    hi, lo = _two_product(a, p, tables)
    off = np.flatnonzero(_off_scale(hi, lo))
    if off.size:  # floor(log10 a) was one off
        p_off = p[off] + np.where(hi[off] <= 1e16, 1, -1)
        good = (p_off >= 0) & (p_off <= 22)
        p_off[~good] = 16
        hi_off, lo_off = _two_product(np.where(good, a[off], 1.0), p_off, tables)
        ok[off] &= good & ~_off_scale(hi_off, lo_off)
        p[off], hi[off], lo[off] = p_off, hi_off, lo_off
    # hi is an even integer, so rint(lo) rounds hi + lo half to even.  No
    # double in range rounds up to 10^17; one that did would fall back.
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    zero = v == 0.0
    ok = (ok & (d < 10 ** 17)) | zero
    blank = ~ok | zero
    d[blank] = 0
    e = 16 - p
    e[blank] = 0
    return d, e, ok


def _ascii17(d, tables):
    """The 17 digits of d as ASCII in bytes 0-16 of three words, and the
    index of the last nonzero digit (0 for d = 0)."""
    parts = []  # by ``//`` and ``-``: numpy's integer ``divmod`` is several times slower
    for scale in (10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4):
        parts.append(d // scale)
        d = d - parts[-1] * scale
    lead, *quads = parts + [d]
    w1, w2, w3, w4 = (tables.quad_ascii[q] for q in quads)
    z1, z2, z3, z4 = (tables.quad_zeros[q] for q in quads)
    last = 16 - (z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1)))
    return ((lead.astype(np.uint64) + 48) | (w1 << 8) | (w2 << 40),
            (w2 >> 24) | (w3 << 8) | (w4 << 40), w4 >> 24), last


def _g17_template(block):
    """CSV bytes of the (r, c) float ``block`` with ``%.17g`` fields, and the mask of the
    values the kernel does not certify; their fields read ``%.17g`` (module docstring)."""
    tables = _g17_tables()
    v = block.ravel()
    d, e, ok = _decimal17(v, tables)
    digits, last = _ascii17(d, tables)
    ek = e + 6
    keep = np.maximum(last, tables.int_end[ek]) + 1
    cls = np.where(ok, 2 * ek + (last > tables.point_at[ek]), len(tables.shift) - 1)
    # The kept digits move up to the lead slots, and one byte further to the tail slots.
    s = tables.shift[cls]
    out = np.empty((v.size, 3), "<u8")
    x_prev = l_prev = np.uint64(0)
    for j, x in enumerate(digits):
        x &= tables.keep[j][keep]
        lj = (x << s) | (x_prev >> (64 - s))
        tj = (lj << 8) | (l_prev >> 56)
        out[:, j] = (lj & tables.lead[j][cls]) | (tj & tables.tail[j][cls]) | tables.const[j][cls]
        x_prev, l_prev = x, lj
    out[:, 0] |= (np.signbit(v) & ok).astype(np.uint64) * ord("-")
    out = out.reshape(*block.shape, 3)
    out[:, :-1, 2] |= ord(",") << 56
    out[:, -1, 2] |= ord("\n") << 56
    return out.tobytes().translate(None, b"\0"), ~ok


def _g17_rows(block):
    """CSV bytes of ``block``: the kernel's, with Python's ``%`` for the uncertified values."""
    text, fallback = _g17_template(block)
    return text % tuple(block.ravel()[fallback].tolist()) if fallback.any() else text


def csv_text(columns, table):
    """CSV text: a header of ``columns``, then ``table`` in 17-significant-digit floats."""
    table = np.asarray(table, dtype=float).reshape(len(table), len(columns))
    header = (",".join(columns) + "\n").encode()
    return b"".join([header, *map(_g17_rows, _blocks(table))]).decode()


def write_profile_csv(points, path):
    """Profile curve as CSV with header and 17-significant-digit floats."""
    with open(path, "w", newline="\n") as fh:
        fh.write(csv_text(["x", "f"], points))
