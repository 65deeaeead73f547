"""Byte-for-byte pins of the text exports.

Each digest is the sha256 of one export as the per-row writers produced
it.  Any change in vertex order, triangle winding, number formatting or
line ends changes a digest, so the mesh builders and the text writers
can be rewritten only if every byte stays the same.
"""

import hashlib

import pytest

from archarray.array import SphericalArray, make_archimedean, make_cylinder
from archarray.base import Ellipse, regular_polygon
from archarray.cli import run
from archarray.mesh import graph_slice_mesh, write_obj
from archarray.scaling import make_scaling

CLI_DIGESTS = {
    ("mesh", "--n", "3", "--k", "2", "--res", "16"):
        "98f86b5b72f8872c0b78e8116d7b5f225e1c81802bb7981be421766af05dc0e3",
    ("mesh", "--n", "4", "--k", "2", "--res", "12"):
        "da2308e38bf534dcc0bcce307b4d0c2934a456bf58a112efc037380655256e19",
    ("sample", "--n", "4", "--k", "3", "--count", "200", "--seed", "5"):
        "9efdcf5dedec339acf8b241fa14cc38c4b1cfd4efd4b864ebce630f0b91dc138",
    ("scaling", "--k", "3", "--samples", "33"):
        "1a848e87122422f4e8fe8b60a23900b79e855c17c24ddb26ca67b95eb5bba2c9",
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
