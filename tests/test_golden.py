"""Whole-output golden digests: a change that alters one byte of a
`reproduce` report or of a `capture --format json` dump fails here.

The digests were recorded before problems became array-in/array-out; an
intended change of output must update them and say why.
"""

import hashlib

import pytest

from rootmaps.cli import main

CAPTURE = "capture --eps 0.001 --format json --problem"

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
        "4dfd6f4cd1744bfd0ed8ab40ee09bcef89cf664b58c9cff148940c80501ff5c8",
    ),
    (
        "reproduce --example example2-coarse --format json",
        "c4c4660e826cd37f32e978b99a56d5f0bb23bd7d79ce1f1b53251a1afaf66515",
    ),
    (
        "reproduce --example example2-fine --format json",
        "db7b644200ebfc6e877f881d462f9ff052b4b584dcfd63ea9a8971a6257dd84b",
    ),
    (
        f"{CAPTURE} rutishauser --map compose:bary:3,bary:2",
        "1adba295575bf2319971c3c6161816f1600f098c56cdb91fbfaaaae350fae7ae",
    ),
    (
        f"{CAPTURE} ackley --map compose:bary:5,bary:4 --nx 31 --ny 31",
        "f8049689d012d56dd6ed495ef77eb665e07ab362798ec650ad8c09b0abef213a",
    ),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[command for command, _ in GOLDEN])
def test_output_digest(command, digest, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
