"""Every bit-string boundary of the package reads ``dist.check_bits``.

One table of malformed inputs goes through each single-call method that
takes a fixed-width bit string. Each method answers all of them the same
way: with a fixed value (``prob``, ``in``, ``ver``, ``r2``,
``preimage_list``) or with one error class. A numpy string is a ``str``
and is read as the plain string is.
"""

import pathlib
import re

import numpy as np
import pytest

import ncmlab
from ncmlab.dist import FiniteDist, check_bits
from ncmlab.errors import ImpossibleConditionError, StructureError
from ncmlab.ncmo import q1_law, q2_law
from ncmlab.primitives import ToyCommitment, ToyMac, balanced_table
from ncmlab.qsim import Circuit, Gate, Step, enumerate_branches

LAW = FiniteDist({"01": 0.25, "10": 0.75})
MAC = ToyMac(2, 2, np.arange(16))            # vk = x || theta
COM = ToyCommitment(3, 1, balanced_table(3, 1))
KEY = COM.preimage_list("00", 0)[0]
# every outcome of both steps has mass, so each 2-bit u_1 has a node
CIRCUIT = Circuit(2, (Step((Gate("h", (0,)), Gate("h", (1,))), 2),
                      Step((Gate("h", (0,)),), 1)))


def _path(s):
    return [node.outcomes for node in enumerate_branches(CIRCUIT).path((s,))]


# name: (width, call, a valid input, the answer to every malformed input)
BOUNDARIES = {
    "prob": (2, LAW.prob, "10", 0.0),
    "in": (2, LAW.__contains__, "10", False),
    "ver": (2, lambda s: MAC.ver("0100", "00", s), "01", False),
    "r2": (6, lambda s: COM.r2("00", s, 0), KEY, False),
    "preimage_list": (2, lambda s: COM.preimage_list(s, 0), "00", []),
    "sign_law": (2, lambda s: MAC.sign_law("01", "00", s).to_json(), "00",
                 StructureError),
    "tree.path": (2, _path, "01", ImpossibleConditionError),
    "q1_law": (2, lambda s: q1_law(CIRCUIT, (s,)).to_json(), "01",
               StructureError),
    "q2_law": (2, lambda s: q2_law(CIRCUIT, (s,)).to_json(), "01",
               StructureError),
    "check_bits": (2, lambda s: check_bits(s, 2), "01", StructureError),
}


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_every_boundary_refuses_the_same_inputs(name):
    width, call, good, refused = BOUNDARIES[name]
    for s in (None, 5, b"01", "0x", "2", "0" * (width + 1)):
        if isinstance(refused, type):
            with pytest.raises(refused):
                call(s)
        else:
            got = call(s)
            assert type(got) is type(refused) and got == refused, s
    want = call(good)
    assert want != refused
    assert call(np.str_(good)) == want


def test_check_bits_hands_the_string_back():
    for s, width in (("", None), ("", 0), ("0110", None), ("0110", 4)):
        assert check_bits(s, width) is s
    with pytest.raises(StructureError):
        check_bits("0110", 3)


def test_the_bit_string_test_is_written_once():
    root = pathlib.Path(ncmlab.__file__).parent
    found = {path.name: len(re.findall(r"""strip\(["']01["']\)""",
                                       path.read_text(encoding="utf-8")))
             for path in root.rglob("*.py")}
    assert {k: v for k, v in found.items() if v} == {"dist.py": 1}
