"""Golden output hashes: `ghost-report` and `solve` JSON must stay byte-identical.

Each entry is the sha256 of the bytes the CLI writes to stdout.  The `solve`
input is the power sum polynomial of the plain set whose per-point bits are
drawn as random.Random(7).randrange(2), in canonical point order.
"""

import hashlib
import random

import pytest

from psghost.cli import main
from psghost.field import FieldSpec
from psghost.msets import PointMultiset, phi
from psghost.poly import poly_to_text

FIELDS = ["2", "3", "2^2", "5", "7", "2^3", "3^2", "13"]

GHOST_REPORT_SHA256 = {
    "2":
        "d9e7bdc998fda457994e5519abbd6a5e647aa8acc0274eae141c0e63f9a34c84",
    "3":
        "a24d1dba8401a3376c907bd4f6b578d47dc4bd71a2f27f9c26a4326699e9534e",
    "2^2":
        "d731a347a11854cfb594e3e5cc47b63a720acee1130c3851a7bbae2ad9ad8b17",
    "5":
        "1e263993544e4bc28dfebd66a1fa20a022be145983655c169271118bd9a78de7",
    "7":
        "739e765ef05cc9e206b81d2d0be1cf9a3889aa4015a5f8ec00b0838871c41333",
    "2^3":
        "fcc940c8ed4f01d1b01b187206c03b1495f4202d1cdc15bc764b9f8a22f136cf",
    "3^2":
        "70ee22923257c500598ef485be4a0ab9e834840a0dc594c7a098325e804f0bf0",
    "13":
        "37722895d38b8422038035b0e17c5f1bae7a775aa4dffcfac6c5a5222167d1a7",
}

SOLVE_SHA256 = {
    "2":
        "fae85dbf157a76d1649c8277b9fbab2a20516ec02dc0c80774b317a3e2d3e1f9",
    "3":
        "c29873562796cad67c6aa496799753879003692dd29ec9506709631bef889828",
    "2^2":
        "36f6b9604268e87cf69f1c1099d13e5e7e84cb017b525da4498bf0f34bde14f6",
    "5":
        "c670c175ee4783f199db2f0ff2d845f61c476c2aaa60ec9b2884a2daf6837dae",
    "7":
        "12c54280014907e9246ed6d7b2ce9e289dd2922bd3299e63b7dd487df9b3dba0",
    "2^3":
        "07f8e55faed4f10613f953bf37ac44bd0376e20f6f4c9fd773fc46a493d05050",
    "3^2":
        "5bced455942dfe94779f0554208c24395e90e13804227e8ff1d37368108c81d3",
    "13":
        "611305b56cc5a98ad6d9d276b45b7d7d32f74418fc555dceb31d1f86fc0b7ee9",
}


def _stdout_sha256(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def _random_set_poly(spec):
    rng = random.Random(7)
    n = spec.q**2 + spec.q + 1
    S = PointMultiset.from_vector(spec, [rng.randrange(2) for _ in range(n)])
    return poly_to_text(phi(S))


@pytest.mark.parametrize("field", FIELDS)
def test_ghost_report_json_golden(capsys, field):
    digest = _stdout_sha256(
        capsys, ["ghost-report", "--field", field, "--format", "json"])
    assert digest == GHOST_REPORT_SHA256[field]


@pytest.mark.parametrize("field", FIELDS)
def test_solve_json_golden(tmp_path, capsys, field):
    f = tmp_path / "in.psp"
    f.write_text(_random_set_poly(FieldSpec.parse(field)))
    digest = _stdout_sha256(
        capsys, ["solve", "--field", field, "--in", str(f), "--format", "json"])
    assert digest == SOLVE_SHA256[field]
