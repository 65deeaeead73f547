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

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from archarray.array import ArchimedeanWarp, CylinderWarp, SphericalArray, make_archimedean
from archarray.base import Ball, Ellipse, regular_polygon
from archarray.cli import run
from archarray.mesh import graph_slice_mesh, write_obj
from archarray.region import Region, clipped_quadrature
from archarray.scaling import make_scaling
from archarray.verify import app_statistical_test, interior_points, random_regions, sample_surface

CLI_DIGESTS = {
    ("mesh", "--n", "3", "--k", "2", "--res", "16"):
        "98f86b5b72f8872c0b78e8116d7b5f225e1c81802bb7981be421766af05dc0e3",
    ("mesh", "--n", "4", "--k", "2", "--res", "12"):
        "da2308e38bf534dcc0bcce307b4d0c2934a456bf58a112efc037380655256e19",
    # The benchmark's stat-mesh sizes: several 4,096-row blocks, and
    # vertices in exponent form (1.5e-18 and the like).
    ("mesh", "--n", "3", "--k", "2", "--res", "128"):
        "4131461eebd83d1de1b346dd3c6aaa32ccee7a96c147c309c586a1c6ca37d67a",
    ("mesh", "--n", "4", "--k", "2", "--res", "64"):
        "2700314b0af22a65858bc4c4e0021f657fbba5a413467ecf5e108e3188353c09",
    ("sample", "--n", "4", "--k", "3", "--count", "200", "--seed", "5"):
        "23e28f1c7211092e6ba166da0dc0e31f40a40299a5fe8715b4ea25edf48992ca",
    # Three 4,096-row blocks of the CSV kernel, written as bytes.
    ("sample", "--n", "4", "--k", "2", "--count", "9000", "--seed", "11"):
        "a0a3949223aded7190ffffd3d13a5f368b0a294e405b8d819a8b5ae7350b83da",
    ("scaling", "--k", "3", "--samples", "33"):
        "5871f8506e4872eaaf066150c4881ffc866b08a4008ade1e14ed0832fb6ac7f3",
    ("volume", "--n", "4", "--k", "3", "--enclosed", "--samples", "200000", "--seed", "7"):
        "f5637b9e5f7a07f424c10c4cfcdcc8a0495a3b8fb7011ce3fa844c04e530f325",
}

# float.hex of max_abs_residual from `archarray verify --mode residual`.
RESIDUAL_MAX = {
    ("--n", "4", "--k", "2"): "0x1.0000000000000p-51",
    ("--n", "5", "--k", "3", "--r", "0.7"): "0x1.8000000000000p-51",
}

# sha256 of warping_gradient's float64 bytes at 1,000 interior points of
# an n=4, k=2 archimedean array.
GRADIENT_DIGESTS = {
    ("ball", 1.0): "e5c8d843a6a9caac320f671418458031ebad929cce76f4527862978052a94bd4",
    ("ball", 0.7): "823e494c024dae843494c5a53e8975759692fde478c096735eed5eedf5e50c34",
    ("ellipse", 1.0): "6f16766f284f46e61afac7fd0dfb1952b5a31ce3efe109527c8aa2509ae9ad67",
    ("ellipse", 0.7): "6e06d3b0e82875c3283a68ba39793b7c292aa66cb17a74eba42b0a5282dcbebc",
    ("pentagon", 1.0): "23e9816d8a11099b5afdd923385de4814d8e6f3ab21c159d51be11dfa835b6be",
    ("pentagon", 0.7): "8aa74a13625b62e1706ce1f183f7abfa71e431278f22b9a135574d976b424068",
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
STAT_GATE = ("0x1.64ddaad9376ddp+4", "0x1.4c054e8abb57fp-2")
STAT_VOLUMES = [
    "0x1.5f2d2accc5ebbp-1", "0x1.d010202217d77p-2", "0x1.99720e63dc499p-2",
    "0x1.5e088131a19ecp-3", "0x1.b7e6ff0013f66p-2", "0x1.4a40a7629ee59p-2",
    "0x1.519e117f8d87cp-3", "0x1.adecc72479ad1p-2", "0x1.0ad57648952acp-4",
    "0x1.792b07a5f3c8ep-3", "0x1.79d85ffc99e2ep-6", "0x1.21f5aab8358e0p-1",
    "0x1.f47a6ce5f6db2p-4", "0x1.c32eca48ff7ebp-4", "0x1.71b83c9c6fa60p-2",
    "0x1.12de75fe819e3p-3", "0x1.734682d4acff7p-2", "0x1.629278801dca1p-2",
    "0x1.f17d851c635d8p-4", "0x1.48930498412f6p-2",
]

# float.hex of volume, integral and error estimate and the counters
# (accepted, discarded, Monte Carlo leaves) of ``clipped_quadrature`` on
# the n=4, k=2 base: the stat-mesh windows at depth 12 and seed 0, volume
# only; the benchmark's integral-gate windows at seed 1 (a ball, and a
# box given by centre and half-width) at depth 8 and its quadrature seed,
# volume only and with the area density.  Four of the stat-mesh boxes are
# accepted whole at level 0.
WALK_STAT = [
    ("0x1.5f2d2accc5ebbp-1", "0x1.5f2d2accc5ebbp-1", "0x1.3061a933a05f9p-14", 204, 128, 252),
    ("0x1.d010202217d77p-2", "0x1.d010202217d77p-2", "0x0.0p+0", 1, 0, 0),
    ("0x1.99720e63dc499p-2", "0x1.99720e63dc499p-2", "0x1.97adf458c3012p-15", 201, 131, 252),
    ("0x1.5e088131a19ecp-3", "0x1.5e088131a19ecp-3", "0x1.746fdfa49597ep-18", 28, 19, 35),
    ("0x1.b7e6ff0013f66p-2", "0x1.b7e6ff0013f66p-2", "0x1.defb629072151p-15", 185, 143, 245),
    ("0x1.4a40a7629ee59p-2", "0x1.4a40a7629ee59p-2", "0x1.3e198dcae4281p-16", 101, 46, 93),
    ("0x1.519e117f8d87cp-3", "0x1.519e117f8d87cp-3", "0x1.2bd953bcaf44cp-16", 219, 117, 252),
    ("0x1.adecc72479ad1p-2", "0x1.adecc72479ad1p-2", "0x1.c2abf82c84c6fp-16", 99, 58, 103),
    ("0x1.0ad57648952acp-4", "0x1.0ad57648952acp-4", "0x1.310f01144c616p-17", 176, 153, 246),
    ("0x1.792b07a5f3c8ep-3", "0x1.792b07a5f3c8ep-3", "0x0.0p+0", 1, 0, 0),
    ("0x1.79d85ffc99e2ep-6", "0x1.79d85ffc99e2ep-6", "0x1.a13f646bd0467p-19", 184, 144, 244),
    ("0x1.21f5aab8358e0p-1", "0x1.21f5aab8358e0p-1", "0x0.0p+0", 1, 0, 0),
    ("0x1.f47a6ce5f6db2p-4", "0x1.f47a6ce5f6db2p-4", "0x1.bba2afaa6e826p-17", 224, 107, 252),
    ("0x1.c32eca48ff7ebp-4", "0x1.c32eca48ff7ebp-4", "0x1.40c8281338100p-18", 53, 35, 55),
    ("0x1.71b83c9c6fa60p-2", "0x1.71b83c9c6fa60p-2", "0x1.4833c06b56533p-15", 209, 112, 252),
    ("0x1.12de75fe819e3p-3", "0x1.12de75fe819e3p-3", "0x1.03892ea35da1dp-18", 26, 10, 24),
    ("0x1.734682d4acff7p-2", "0x1.734682d4acff7p-2", "0x1.6765fab91748cp-15", 192, 140, 251),
    ("0x1.629278801dca1p-2", "0x1.629278801dca1p-2", "0x1.fd6dc831c7660p-16", 89, 88, 127),
    ("0x1.f17d851c635d8p-4", "0x1.f17d851c635d8p-4", "0x1.b9aca19c6de3ep-17", 228, 107, 252),
    ("0x1.48930498412f6p-2", "0x1.48930498412f6p-2", "0x0.0p+0", 1, 0, 0),
]
WALK_GATE_WINDOWS = [
    ("ball", (0.5563933048087022, -0.11320089434897529), 0.21422610514058313),
    ("box", (-0.48877541085878556, -0.8593721913571439), 0.1619824304174797),
]
WALK_GATE_SEED = 635477631
WALK_GATE = [
    ("0x1.270a0af4f4308p-3", "0x1.270a0af4f4308p-3", "0x1.f8f0a43423e8ep-14", 44, 14, 60),
    ("0x1.270a0af4f4308p-3", "0x1.cf725054c089fp-1", "0x1.f8f0a43423e8ep-14", 44, 14, 60),
    ("0x1.be4498cf24545p-5", "0x1.be4498cf24545p-5", "0x1.6292016897c17p-15", 20, 18, 26),
    ("0x1.be4498cf24545p-5", "0x1.5e7f7f20a36fep-2", "0x1.6292016897c17p-15", 20, 18, 26),
]

# sha256 of sample_surface(h, 70000, seed=3) as float64 bytes; the 70,000
# base points take two rejection chunks on every base.
SAMPLE_DIGESTS = {
    "ball-n4-k2": (lambda: make_archimedean(4, 2),
        "2cba44f3a5c7ac3228045d98f18e58884f7d7f336e9a861fda7abb7332b290da"),
    "ball-n5-k2": (lambda: make_archimedean(5, 2),
        "f805818f595e00197dc1302048c291a18fccd7a267d98eb349c1e5a90aba8128"),
    "ellipse-cylinder": (
        lambda: SphericalArray(Ellipse([0.1, -0.2], [0.9, 0.5]), CylinderWarp(2, r_scale=0.4)),
        "059d39d183642ff57f5235045151ce33e32e17267f39435944aa0508c15f3e39"),
    "pentagon-cylinder": (
        lambda: SphericalArray(regular_polygon(5, inradius=0.7), CylinderWarp(2, r_scale=0.3)),
        "664c60faccdba82f5cce57ebb7ad03b2bcfd05166d99e33dc1e701e881f377a5"),
}
# sha256 of the JSON descriptions of random_regions(base, 30, seed=4) on the
# three-dimensional base of make_archimedean(5, 2).
RANDOM_REGIONS_DIGEST = "af89e0b3a38948739728b1df7a1ba23221a26f63b4333598a7f48dcec018d6ad"


# sha256 over the name, dtype, shape and bytes of every array field of
# make_scaling(k), in field order, and float.hex of its series guard.
PROFILE_TABLES = {
    2: ("4134a01c6d0a6744bf37843b1c0af264cf68219fabbd726ccf72a385a9725a7a",
        "0x1.0000000000001p-2"),
    3: ("cc7a54ab36155bbc8fbc49cc5d9c22e023a04f1ac72bc64df5e5bb527c531777",
        "0x1.32b95184360cep-3"),
    4: ("eca87560b764875b1823a22d0ed0b39b23f6bd8d5316df6a0a56c8c09c44635f",
        "0x1.b9888a980a655p-4"),
    5: ("9be0d9a81df3fbf68d1ddf8dba71111eee14affcb21991422be0d9c4380aad81",
        "0x1.5996942185cb4p-4"),
    6: ("c2056ea2b6a3a7c699b0897718711b0093f2572624f584d40665eb58719bfa02",
        "0x1.1c1be73108040p-4"),
    7: ("f2543f0c7a9a66348efdab8eb0c5107d05856846cbba093ddd9dad34e449f84c",
        "0x1.e28ffc7e4cd35p-5"),
    8: ("dd0c3aaf9250e2bb20717e5f93315ca694eeecd337ec6cf913378c824a2eeb13",
        "0x1.a36bc693b536ep-5"),
}


def _pentagon_archimedean():
    return SphericalArray(regular_polygon(5, inradius=0.7), ArchimedeanWarp(2))


SLICE_CASES = {
    "ellipse-cylinder": (
        lambda: SphericalArray(Ellipse([0.1, -0.2], [0.9, 0.5]), CylinderWarp(2, r_scale=0.4)),
        "b6b8fa08a76b3922c5e60107a6c0e50f52ca33b6768308360870cf6bb49ce683"),
    "pentagon-cylinder": (
        lambda: SphericalArray(regular_polygon(5, inradius=0.7), CylinderWarp(2, r_scale=0.3)),
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


@pytest.mark.parametrize("k", sorted(PROFILE_TABLES))
def test_profile_table_bits(k):
    s = make_scaling(k)
    h = hashlib.sha256()
    for f in dataclasses.fields(s):
        a = getattr(s, f.name)
        if isinstance(a, np.ndarray):
            h.update(f"{f.name} {a.dtype.str} {a.shape}".encode())
            h.update(a.tobytes())
    assert (h.hexdigest(), s.series_radius_guard.hex()) == PROFILE_TABLES[k]


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
    arr = SphericalArray(base, ArchimedeanWarp(2, r))
    pts = interior_points(base, 1000, boundary_offset=1e-6 * base.inradius())
    assert _sha256(arr.warping_gradient(pts).tobytes()) == GRADIENT_DIGESTS[shape, r]


def test_statistical_gate_bits():
    h = make_archimedean(4, 2)
    regions = [_window(*w) for w in STAT_WINDOWS]
    report = app_statistical_test(h, regions, 200_000, seed=STAT_SEED)
    assert (report.chi2.hex(), report.p_value.hex()) == STAT_GATE
    assert [u.clipped_volume(h.base).hex() for u in regions] == STAT_VOLUMES


def _window(shape, c, s):
    """The ball of centre c and radius s, or the box of centre c and half-width s."""
    return Region.ball(c, s) if shape == "ball" else Region.box(np.subtract(c, s), np.add(c, s))


def _walk_row(out):
    return (out.volume.hex(), out.integral.hex(), out.error_estimate.hex(),
            out.cells_accepted, out.cells_discarded, out.mc_leaves)


def test_cell_walk_bits_and_counters():
    h = make_archimedean(4, 2)
    assert [_walk_row(clipped_quadrature(h.base, _window(*w))) for w in STAT_WINDOWS] == WALK_STAT
    assert [_walk_row(clipped_quadrature(h.base, _window(*w), integrand, depth=8,
                                         seed=WALK_GATE_SEED))
            for w in WALK_GATE_WINDOWS for integrand in (None, h._area_density)] == WALK_GATE


def test_depth14_patch_walk_bits():
    # Cells accepted at level 1 take the 12-halving cap and end at level
    # 13, before the deeper cells reach 14, so refined groups leave the
    # walk's refinement array as a prefix while later ones still halve.
    h = make_archimedean(4, 2)
    out = clipped_quadrature(h.base, Region.box([-0.4, -0.3], [0.99, 0.3]), h._area_density,
                             depth=14, seed=1)
    assert _walk_row(out) == ("0x1.a871ecb020c4ap-1", "0x1.4d5bbc00fb168p+2",
                              "0x1.06f4577ec4657p-17", 62, 26, 46)


@pytest.mark.parametrize("name", sorted(SAMPLE_DIGESTS))
def test_surface_sample_bytes(name):
    build, digest = SAMPLE_DIGESTS[name]
    assert _sha256(sample_surface(build(), 70_000, seed=3).tobytes()) == digest


def test_random_regions_bits():
    regions = random_regions(make_archimedean(5, 2).base, 30, seed=4)
    doc = json.dumps([u.describe() for u in regions])
    assert _sha256(doc.encode()) == RANDOM_REGIONS_DIGEST
