"""Whole-output golden digests: a change that alters one byte of a
`reproduce` report or CSV file, of a `capture` CSV or JSON dump, of a
`coeffs` table or of an `order` trajectory fails here.

The digests were recorded before problems became array-in/array-out, and
the CSV ones before exponentials left math.exp; an intended change of output
must update them and say why.  The four that cover Ackley's Jacobian on a
grid were restated when its cross term took the products (x * y) and
(sx * sy) first, which makes the x <-> y swap exact.  The three that cover
the Rutishauser kernels' values (`reproduce --example example1 --format
json` and both Rutishauser `capture` commands) were restated when those
kernels took v^3..v^7 by a product chain instead of libm's pow: about 19 %
of the Jacobian's elements change their last bits, 71 floats of the example1
JSON move by at most 1.4e-15, and every captured and cluster count stays.
The text `reproduce --example example1` digest prints no such float and
stands unedited.
"""

import hashlib

import pytest

from rootmaps.cli import main

CAPTURE = "capture --eps 0.001 --format json --problem"
ORDER = "order --problem"

GOLDEN = [
    (
        "reproduce --example example1",
        "a87a3aad417cca9fd82afde9fbf11e223899ad33477566c52e099ead0032a5af",
    ),
    (
        "reproduce --example example2-coarse",
        "997e2a01cb6240d8c317fd7d945d7e01d717dbc16893795acf1f11b444874648",
    ),
    (
        "reproduce --example example2-fine",
        "16cdc7d1126b68048133dc4e3989f70f1b4e84771d9ed75c18dd192ab91dc0d2",
    ),
    (
        "reproduce --example example1 --format json",
        "17f46439c6a5a7b6176307e2355f07d103924d7ff5132266467a5df092199de0",
    ),
    (
        "reproduce --example example2-coarse --format json",
        "9967724236c0d293ecd8563a6598ee97674cd8ce9725b3de2ba0010488b45ae4",
    ),
    (
        "reproduce --example example2-fine --format json",
        "db7b644200ebfc6e877f881d462f9ff052b4b584dcfd63ea9a8971a6257dd84b",
    ),
    (
        f"{CAPTURE} rutishauser --map compose:bary:3,bary:2",
        "e2a56081fa0d2ba8f2ff6650878f5b781cd8d3687ac6f8fd5f5ae08919dd6cf0",
    ),
    (
        f"{CAPTURE} ackley --map compose:bary:5,bary:4 --nx 31 --ny 31",
        "da32870ef3b4757f1e152f60673c809c94f77d47de776dfbfd5ef8ab8dc8ede5",
    ),
    (
        "capture --problem ackley --map compose:bary:5,bary:4 --nx 31 --ny 31 --eps 0.001",
        "c383fe4a80f39a563ce9fe8fe746f0c8a546f886a9cef3677e8b411f1725efc9",
    ),
    (
        "capture --problem rutishauser --map compose:bary:3,bary:2 --eps 0.001",
        "887f575f93ba80b3d1ce77bb4493ca8eb0cb4935dee34b710141d986b5d0e1ee",
    ),
    ("coeffs --k 5", "fb552866d6debe2fb42255902a593a04ee7eb4e58d12b4e456dbd43f535ff629"),
    ("coeffs --k 5 --format json", "ab213e6e59bca495de0f0c50c715819c63267fac291a4d8b31e9ca0a4b25278f"),
    ("coeffs --k 5 --format csv", "53d7cc5f94979f2360d5d22460771843a24a96fd572bd8eaf7893c05c62af0a6"),
    ("coeffs --k 20 --format csv", "1abaede1d583e3c2a07fd5a0e23d82fd6df74c4d678ee89380c24147f7b592be"),
    (
        f"{ORDER} cubic --family newton --x0 4.0",
        "f3c286391cd6efc2081d3b1495c96981725128b2c7743212e70fcd41dc9a18a6",
    ),
    (
        f"{ORDER} cubic --family taylor --k 3 --x0 4.0",
        "58d6e55cac13d8a3fce410f4a9e066fe4f9e12daf8d03065aa4f261a4a1333dd",
    ),
    (
        f"{ORDER} cubic --family bary --k 3 --x0 4.0",
        "90fd34471446d56e1598dacf7684ae028d3d91afb08859ae8034ef905a6ba92a",
    ),
    (
        f"{ORDER} exp2 --family newton --x0 3.0",
        "02c8310fb3d6a1600b7865236d59f41f129bb7b0f629bfbde90e79a8aeac1565",
    ),
    (
        f"{ORDER} exp2 --family taylor --k 3 --x0 3.0",
        "e465186ece9845d9527070538828c2ab3139a723e8ad8c529373317b36e65f71",
    ),
    (
        f"{ORDER} exp2 --family bary --k 3 --x0 3.0",
        "d44e10abf0879588c7c21f35e727911156b522fb36d4d118b3d88570ac277577",
    ),
    (
        f"{ORDER} sine --family newton --x0 2.3",
        "93d059dd1587c09d0e4e9d87fbd2e6a69ed3c80a7a46b30311bdba1342423336",
    ),
    (
        f"{ORDER} sine --family taylor --k 3 --x0 2.3",
        "0e2c6773b5082f8dabd15fe92a3a17da86d4c18111c4025c4b4ca7d0d9e7dbba",
    ),
    (
        f"{ORDER} sine --family bary --k 3 --x0 2.3",
        "ba6a4574eb0b5f41fecbb7fdde6cd8d691171505153cccbab2f00d60186a01a3",
    ),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[command for command, _ in GOLDEN])
def test_output_digest(command, digest, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_reproduce_csv_file_digest(tmp_path, capsys):
    assert main(["reproduce", "--example", "example2-fine", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = (tmp_path / "example2-fine-t_54.csv").read_bytes()
    digest = "90a9a7254ad7b9110f9a0cb9b8a871444b4e805daaa8a367936c461e3f51f13e"
    assert hashlib.sha256(written).hexdigest() == digest
