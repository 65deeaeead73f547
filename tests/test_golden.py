"""Byte-for-byte pins of the text exports and of bulk numeric results.

Each digest is the sha256 of one export as the per-row writers produced
it.  Any change in vertex order, triangle winding, number formatting or
line ends changes a digest, so the mesh builders and the text writers
can be rewritten only if every byte stays the same.  The enclosed-volume
JSON, the residual gate's maximum and the warp gradients are pinned the
same way, so the Monte Carlo hit test, the residual assembly and the
interior point sampler can be rewritten only if every result bit stays.
The statistical gate's score, its windows' clipped volumes and the
surface samples are pinned too, which holds the region kernels, the
shared leaf draws of the cell walk and the base-uniform sampler to
their results bit for bit.
"""

import hashlib
import json

import numpy as np
import pytest

from archarray.array import SphericalArray, make_archimedean, make_cylinder
from archarray.base import Ball, Ellipse, regular_polygon
from archarray.cli import run
from archarray.mesh import graph_slice_mesh, write_obj
from archarray.region import Region
from archarray.scaling import make_scaling
from archarray.verify import app_statistical_test, interior_points, random_regions, sample_surface

CLI_DIGESTS = {
    ("mesh", "--n", "3", "--k", "2", "--res", "16"):
        "98f86b5b72f8872c0b78e8116d7b5f225e1c81802bb7981be421766af05dc0e3",
    ("mesh", "--n", "4", "--k", "2", "--res", "12"):
        "da2308e38bf534dcc0bcce307b4d0c2934a456bf58a112efc037380655256e19",
    ("sample", "--n", "4", "--k", "3", "--count", "200", "--seed", "5"):
        "3538cfdf7cdc0790a214be96cfe517525b4d873706063fe3f13b5c797b415e0b",
    ("scaling", "--k", "3", "--samples", "33"):
        "70b6c2c871c9959e7bfb13ef150fbb4f423296da78e9d726a1924ce9eba755ff",
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
    ("ball", 1.0): "44103746b1c641aa8000bdb6c7ad9e7bcefe9bb5db42e0a218e738ee8e8d1d92",
    ("ball", 0.7): "e7100b09446c33d41359bb6c3e505795a8759975a2386b9f00020de36bbea0ec",
    ("ellipse", 1.0): "8f7fbfce0a8966a201793be96050c360603a4ce967ea241a6dd0674f426b2713",
    ("ellipse", 0.7): "2be27fdf4962aacbc761f985a879628855d2881391b4bbe23cab014f3f7a5500",
    ("pentagon", 1.0): "6dd1a8cbe2c5ba25ffb4666a3597a57c8ea2cc7d81e5032c3cae09ace36b2604",
    ("pentagon", 0.7): "0a13fe8c8c89473e68af163c68f5b55c542f2c3d3aeab68dfd5bc92a22d38ca8",
}


# The 20 windows (shape, centre, half-size) of the benchmark's stat-mesh
# workload at seed 1 on the n=4, k=2 base, its first gate's sample seed,
# float.hex of that gate's (chi2, p) and of each window's clipped volume.
STAT_WINDOWS = [
    ("ball", (-0.5846966002546402, -0.002311513763970999), 0.47573901842281424),
    ("box", (0.1292329824993084, -0.11100845626502238), 0.33659564538845776),
    ("ball", (-0.36884945168593264, 0.7123919617975892), 0.4089557795299809),
    ("box", (0.6264928879423418, 0.4672768696838826), 0.21045637034728853),
    ("ball", (-0.4800625035313519, -0.6810830500162148), 0.4453922150564756),
    ("box", (-0.25570494008700384, 0.8900908608833138), 0.37756665323233335),
    ("ball", (-0.20077197293705543, 0.7233379849801878), 0.2290860002837251),
    ("box", (-0.29660867148934095, 0.8963452275094449), 0.4493620544140546),
    ("ball", (0.31621488194731084, 0.9469848606574007), 0.20723180991436796),
    ("box", (0.3944103584344664, -0.09169229317536279), 0.2145717270664534),
    ("ball", (-0.2561967282325425, -0.9485944641528999), 0.11180456573279174),
    ("box", (0.01352206614189241, 0.08436149902830659), 0.37627364194816226),
    ("ball", (0.6221948599246354, 0.4478843163739759), 0.1972195607485943),
    ("box", (0.32979915019749073, -0.7839521945153328), 0.17229512483785073),
    ("ball", (0.094123534496574, 0.400426443629114), 0.3390145964432557),
    ("box", (-0.7989079848067999, -0.11216495119484414), 0.18416836796785951),
    ("ball", (0.9389619454375905, 0.11342764430924751), 0.4702216417192945),
    ("box", (-0.8154759432844402, 0.5022391922129413), 0.4167901571764767),
    ("ball", (0.3636447827477353, 0.6040847826799595), 0.19662996786755754),
    ("box", (0.3424612163187109, -0.1248235775493977), 0.283228410017903),
]
STAT_SEED = 1717207497
STAT_GATE = ("0x1.64ddaad9376ddp+4", "0x1.4c054e8abb579p-2")
STAT_VOLUMES = [
    "0x1.5f2d2accc5ebbp-1", "0x1.d010202217d77p-2", "0x1.99720e63dc499p-2",
    "0x1.5e088131a19ecp-3", "0x1.b7e6ff0013f66p-2", "0x1.4a40a7629ee59p-2",
    "0x1.519e117f8d87cp-3", "0x1.adecc72479ad1p-2", "0x1.0ad57648952acp-4",
    "0x1.792b07a5f3c8ep-3", "0x1.79d85ffc99e2ep-6", "0x1.21f5aab8358e0p-1",
    "0x1.f47a6ce5f6db2p-4", "0x1.c32eca48ff7ebp-4", "0x1.71b83c9c6fa60p-2",
    "0x1.12de75fe819e3p-3", "0x1.734682d4acff7p-2", "0x1.629278801dca1p-2",
    "0x1.f17d851c635d8p-4", "0x1.48930498412f6p-2",
]

# sha256 of sample_surface(h, 70000, seed=3) as float64 bytes; the 70,000
# base points take two rejection chunks on every base.
SAMPLE_DIGESTS = {
    "ball-n4-k2": (lambda: make_archimedean(4, 2),
        "75a0278e62bbd96f08814a303c3d926fa78e68cb0d496d791d15f84121c8ee31"),
    "ball-n5-k2": (lambda: make_archimedean(5, 2),
        "bc03a6717568aeefbbc66531c816fbf26ba70cf0c0bb722d2ae3138c329037bf"),
    "ellipse-cylinder": (
        lambda: make_cylinder(2, Ellipse([0.1, -0.2], [0.9, 0.5]), r_scale=0.4),
        "059d39d183642ff57f5235045151ce33e32e17267f39435944aa0508c15f3e39"),
    "pentagon-cylinder": (
        lambda: make_cylinder(2, regular_polygon(5, inradius=0.7), r_scale=0.3),
        "664c60faccdba82f5cce57ebb7ad03b2bcfd05166d99e33dc1e701e881f377a5"),
}
# sha256 of the JSON descriptions of random_regions(base, 30, seed=4) on the
# three-dimensional base of make_archimedean(5, 2).
RANDOM_REGIONS_DIGEST = "af89e0b3a38948739728b1df7a1ba23221a26f63b4333598a7f48dcec018d6ad"


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


def test_statistical_gate_bits():
    h = make_archimedean(4, 2)
    regions = [Region.ball(c, s) if shape == "ball"
               else Region.box(np.subtract(c, s), np.add(c, s))
               for shape, c, s in STAT_WINDOWS]
    report = app_statistical_test(h, regions, 200_000, seed=STAT_SEED)
    assert (report.chi2.hex(), report.p_value.hex()) == STAT_GATE
    assert [u.clipped_volume(h.base).hex() for u in regions] == STAT_VOLUMES


@pytest.mark.parametrize("name", sorted(SAMPLE_DIGESTS))
def test_surface_sample_bytes(name):
    build, digest = SAMPLE_DIGESTS[name]
    assert _sha256(sample_surface(build(), 70_000, seed=3).tobytes()) == digest


def test_random_regions_bits():
    regions = random_regions(make_archimedean(5, 2).base, 30, seed=4)
    doc = json.dumps([u.describe() for u in regions])
    assert _sha256(doc.encode()) == RANDOM_REGIONS_DIGEST
