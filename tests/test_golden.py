"""Byte-for-byte pins of the text exports and of bulk numeric results.

Each digest is the sha256 of one export as the per-row writers produced
it.  Any change in vertex order, triangle winding, number formatting or
line ends changes a digest, so the mesh builders and the text writers
can be rewritten only if every byte stays the same.  The enclosed-volume
JSON, the residual gate's maximum and the warp gradients are pinned the
same way, so the Monte Carlo hit test, the residual assembly and the
interior point sampler can be rewritten only if every result bit stays.
"""

import hashlib
import json

import numpy as np
import pytest

from archarray.array import SphericalArray, make_archimedean, make_cylinder
from archarray.base import Ball, Ellipse, regular_polygon
from archarray.cli import run
from archarray.mesh import graph_slice_mesh, write_obj
from archarray.scaling import make_scaling
from archarray.verify import interior_points

CLI_DIGESTS = {
    ("mesh", "--n", "3", "--k", "2", "--res", "16"):
        "98f86b5b72f8872c0b78e8116d7b5f225e1c81802bb7981be421766af05dc0e3",
    ("mesh", "--n", "4", "--k", "2", "--res", "12"):
        "da2308e38bf534dcc0bcce307b4d0c2934a456bf58a112efc037380655256e19",
    ("sample", "--n", "4", "--k", "3", "--count", "200", "--seed", "5"):
        "9efdcf5dedec339acf8b241fa14cc38c4b1cfd4efd4b864ebce630f0b91dc138",
    ("scaling", "--k", "3", "--samples", "33"):
        "1a848e87122422f4e8fe8b60a23900b79e855c17c24ddb26ca67b95eb5bba2c9",
    ("volume", "--n", "4", "--k", "3", "--enclosed", "--samples", "200000", "--seed", "7"):
        "2ffccd17063637db4c2963622d76a936f8b0a1044500dc219e56b7a8046eace7",
}

# float.hex of max_abs_residual from `archarray verify --mode residual`.
RESIDUAL_MAX = {
    ("--n", "4", "--k", "2"): "0x1.7c18000000000p-39",
    ("--n", "5", "--k", "3", "--r", "0.7"): "0x1.b910000000000p-38",
}

# sha256 of warping_gradient's float64 bytes at 1,000 interior points of
# an n=4, k=2 archimedean array.
GRADIENT_DIGESTS = {
    ("ball", 1.0): "99424d95ba5e2a1a1565be475e6f06a30e01c7bce6eb09d9208ca5e8345f4a0b",
    ("ball", 0.7): "e05d330fcabf567ad797a76e170f81b87825a871441f35b21a40d67d9476924b",
    ("ellipse", 1.0): "aa1bd58b8f32f972d5cf7b8416bd0134ccca4ae37f4692fa8ee6326cf5bbbfca",
    ("ellipse", 0.7): "308d3009c23cb2532f163b400baffea96e755b33a1c75fdffc588d2e6cb054bc",
    ("pentagon", 1.0): "4e48a4487498030963772c63fceb578453ccecf712e0eea4e7505965a0af7478",
    ("pentagon", 0.7): "065709a7e9353fdbaabdc196b1f4148d5f78a6c1b6c09c039788d53814883c2f",
}


def _pentagon_archimedean():
    return SphericalArray(4, 2, regular_polygon(5, inradius=0.7), make_scaling(2),
                          1.0, "archimedean")


SLICE_CASES = {
    "ellipse-cylinder": (
        lambda: make_cylinder(2, Ellipse([0.1, -0.2], [0.9, 0.5]), r_scale=0.4),
        "b6b8fa08a76b3922c5e60107a6c0e50f52ca33b6768308360870cf6bb49ce683"),
    "pentagon-cylinder": (
        lambda: make_cylinder(2, regular_polygon(5, inradius=0.7), r_scale=0.3),
        "a8cd14174be17f9d5170419f42238fd720bd3160a86da6705462bb35dbcf1489"),
    "pentagon-archimedean": (_pentagon_archimedean,
        "f9401bc152a46d22f2b0ac865bcf73903d9e2e185169d2630910a08172b55e17"),
    "ball-n5-k3": (lambda: make_archimedean(5, 3),
        "6f09fb1544f8863507134c9369e828e4d48b7fae605afe700879644dfaf661fa"),
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv", sorted(CLI_DIGESTS), ids=" ".join)
def test_cli_export_bytes(argv, tmp_path, capsys):
    path = tmp_path / "export"
    assert run(list(argv) + ["--out", str(path)]) == 0
    assert _sha256(path.read_bytes()) == CLI_DIGESTS[argv]
    if argv[0] != "mesh":
        capsys.readouterr()
        assert run(list(argv)) == 0
        assert _sha256(capsys.readouterr().out.encode()) == CLI_DIGESTS[argv]


@pytest.mark.parametrize("name", sorted(SLICE_CASES))
def test_graph_slice_obj_bytes(name, tmp_path):
    build, digest = SLICE_CASES[name]
    path = tmp_path / f"{name}.obj"
    write_obj(graph_slice_mesh(build(), 10), path)
    assert _sha256(path.read_bytes()) == digest


@pytest.mark.parametrize("args", sorted(RESIDUAL_MAX), ids=" ".join)
def test_residual_gate_max_bits(args, capsys):
    assert run(["verify", "--mode", "residual", *args]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_abs_residual"].hex() == RESIDUAL_MAX[args]


@pytest.mark.parametrize("shape,r", sorted(GRADIENT_DIGESTS))
def test_warping_gradient_bytes(shape, r):
    base = {
        "ball": lambda: Ball(np.zeros(2), r),
        "ellipse": lambda: Ellipse([0.1, -0.2], [0.5 * r, 0.35 * r]),
        "pentagon": lambda: regular_polygon(5, inradius=0.5 * r),
    }[shape]()
    arr = SphericalArray(4, 2, base, make_scaling(2), r, "archimedean")
    pts = interior_points(base, 1000, boundary_offset=1e-6 * base.inradius())
    assert _sha256(arr.warping_gradient(pts).tobytes()) == GRADIENT_DIGESTS[shape, r]
