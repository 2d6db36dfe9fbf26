"""Byte-for-byte output pins: refactors must keep these hashes.

The instances cover every join and claw branch: seeds 0 and 1 on the
three-cherry tree lift the 234-binomial part set across the shared edge
from either side, the seeded Z3 tree joins unequal parts, two trees join
parts whose leaves go to interleaved labels, and the claws
go through the auxiliary-tree recursion with special and nonspecial
quadrics in both tripod modes, the Z12 and Z13 tripods take both
branches of the cyclic basis chain, and three product tripods cover the
fold of factor bases and the factored CRT map.  Outputs are hashed exactly as the CLI
writes them.
"""

import hashlib
import json

import pytest

from phyloinv.cli import main
from phyloinv.flows import Binomial
from phyloinv.groups import parse_group_spec
from phyloinv.oracle import verify_complete_intersection
from phyloinv.pipeline import (GenerateOptions, InvariantSet, algebra_text,
                               generate)
from phyloinv.trees import parse_newick

GENERATE_PINS = [
    ("Z2xZ2", "((1,2),(3,4),(5,6));", {"seed": 0},
     "016a027858f5058735af0b92f1915d077d63b1f706e43afa66a24eac6efe02d8",
     "b22c60dc189a6ff7c942b35e2918f5f1ae4fef34d8eb7593bd61c1be86ba98fe"),
    ("Z2xZ2", "((1,2),(3,4),(5,6));", {"seed": 1},
     "8a3d487b7b2a4fe0036a1e1708012ba5bc7167201318fd7fd620d961ee0fc1fc",
     "d348afa8046c54462a1a35b9ed6a495c26687a60b5ff92f778e29ecd09618581"),
    ("Z3", "(((1,2),3),(4,5),6);", {"seed": 2},
     "9b5325ce87b591a01293eb6779674e1d81a449e42e8e7e3bd3cae8c55b3c450d",
     "998d16afd4d2a6fb7d3fd7d88735268720ea2af9c49c22a9017a7a4bc666720e"),
    ("Z4", "(1,2,3,4,5);", {},
     "4ccd51f950d3bd8e386110beac6f4964bf5b3fd7bd38db36ebf365efb05849f1",
     "c8c4e093c66f989e3f6524014742c76d24f3dbb405aa484fc08e937614d6c0bf"),
    ("Z2xZ3", "(1,2,3,4);", {"mode": "factored"},
     "a010b60c696f018c5505b8e42546c3ea1ba4ce73a4ee11c6cbeb60a0a3a0b9a6",
     "2d0ab4abcc4b0f923234c4f2ee8684529f47baa00921dec6d3da4c38272218bf"),
    ("Z6", "((1,2),(3,4));", {"mode": "factored"},
     "f68a28e380a19d104fd6d2b993103b57808f0fdc039160769df5ef6481d40cfd",
     "2b5402fd9d347c806b891218e5279a55f8fe0b49c222de6cba8883934ea687f0"),
    # cyclic tripods: the basis chain runs over s = 1..i for i <= g // 2
    # and over s = 1..g-i otherwise; Z12 and Z13 take both, even and odd
    ("Z12", "(1,2,3);", {},
     "dc6b3dfc2fc4c319d9f274b937bfdc714581efe0835b090cedc0e3e5dbcac541",
     "c3d883449d267166a1f654a457c5d5068bcf3f35e846b8820a6443bcb0a607f6"),
    ("Z13", "(1,2,3);", {},
     "8a8483238cb52d1ce7f4aefc817d4bd1f9bc78e7e06946c47d3ac4900f45da47",
     "674125f311d791d3ec3068e84800634c79a7b6b1fce9d3ed342fe55a79097504"),
    # product tripods: both inclusions of Z3xZ4 carry a nonempty factor
    # basis, Z2xZ2xZ3 folds in two steps, and factored Z30 maps its basis
    # through a three-prime CRT map
    ("Z3xZ4", "(1,2,3);", {},
     "7e6fbeb114e1028c78ad19ea76a57124a7f78911885f8ba798478134781220e1",
     "18e25bdc49fbb1d8c568085401f502cc55632507a91f5dab166b572f20d8d3b4"),
    ("Z2xZ2xZ3", "(1,2,3);", {},
     "49787a5e0becbcdb9fada7a02f57ed0cafccf976b0863ce02898db226473b290",
     "9e0567902c2ecf317fb92c9d5f04b10b3922de284db3fde497ff17565ba28fd9"),
    ("Z30", "(1,2,3);", {"mode": "factored"},
     "2e67cd1be1fe1589b8a8e7fbbf8dd429c1409ff4d62e7348744d8f3ab19a8dbb",
     "8b8c4fd160bc19ac1ef20165c521e0ebc3c6077533f6f1ada22529aeba25d745"),
    # the Z3 6-claw takes three T' levels with nonspecial quadrics; the
    # Z2xZ2 5-claw has two unit quadrics and one nonspecial per level
    ("Z3", "(1,2,3,4,5,6);", {},
     "542f9494a78d01c19e2916c3da3882cd0bab962085448ab83464023726dd035a",
     "9bd3380206bbb4ed5969f8476db35b3fce8e7bfe801605240cb813845ac6c68d"),
    ("Z2xZ2", "(1,2,3,4,5);", {},
     "8688a9f7e3750cf88c73f243a593bf349b206b7a0426b94aa14209ec705091a0",
     "f958c8d40a3b00feda4ddc4048fb56d4a46b0b31701be2e1e777b1dc336ec3f1"),
    # parts whose labels interleave: the Z2 top join splits into two 5-leaf
    # claws on the odd and the even labels, and the Z3 joins send each
    # part's leaves to labels that are not contiguous
    ("Z2", "((1,3,5,7),(2,4,6,8));", {},
     "92a7dcbd7d2c461b61a541f82f1cd2e71fcad4b98765a240a5ff471f708c4d69",
     "6f83a6e2d906032dd947a228c351458928c017a03971a884dbf3d9bfc9260106"),
    ("Z3", "((1,4),(2,5),(3,6));", {},
     "2ceb3646f58458af1c482b0e709603066edc78dbcd5a1b3fa81399305f3a3910",
     "72a82f59be3887f802bfd0d9741def47b0bf65a2661ac1e1419af67ecb4ea631"),
]

VERIFY_PIN = "4a1fbc9076d57f81b0ae5b99a93e8c1a680b65753d289108ec0f0664dc8cfa31"

# Z3 on the quartet with binomials 0, 1 and 2 raised to the powers 2, 3
# and 2: over the degree bound, and a span whose 3 x 13 leftover block
# has invariant factors [1, 2, 6]
FAILING_VERIFY_PIN = \
    "a6d2b68a4f2c934d3057a914be3bf1ebe62d12ecaf46747daeec435a704d8f40"

# Z2xZ2 on two 3-claws with binomial 0 raised to the power 2 (the
# ``doubled`` construction of the benchmark's verify-foreign workload): 1,002
# rows whose span has index 2 and whose leftover is [2]
DOUBLED_VERIFY_PIN = \
    "da45cf6724cd36a88e3a3c9cfc0fc28cf1b2e492fc991605941a2239c5485d65"


# CLI output of ``verify`` and ``lattice-info`` on two trees with four
# interior nodes each, where the rank and index come from a witness
CLI_PINS = [
    ("verify", "Z3", "((((1,2),3),4),5,6);", "json",
     "13426f90cd28614e3a1b27778918b164b4a39e57b37ebccb44fcb592639ad591"),
    ("verify", "Z3", "((((1,2),3),4),5,6);", "algebra-text",
     "6f07a52f3340a619199dd2ce27cdb436314b46bbcc6b60d364371b422d0b9ac1"),
    ("lattice-info", "Z3", "((((1,2),3),4),5,6);", "json",
     "64913c8cdf22ab965b7774c9dab33bc179bbc0b153da7254b5b17571eaae737f"),
    ("lattice-info", "Z3", "((((1,2),3),4),5,6);", "algebra-text",
     "75c12e36e2b5526fc831a073271410e115d03047c1bc664f464d4a5af585b22c"),
    ("verify", "Z2xZ2", "((1,2),(3,4),(5,6));", "json",
     "9ec8e0f674123f9fe790d6e28613951b58cd6799a678ca98de253787234dbebe"),
    ("verify", "Z2xZ2", "((1,2),(3,4),(5,6));", "algebra-text",
     "b110eb887f43a01db7c5f419352725db95beca52cad6645511ea700f37f56375"),
    ("lattice-info", "Z2xZ2", "((1,2),(3,4),(5,6));", "json",
     "699aa710c3bcf8521def46b4d482b35ea90b7bd315c6520176331331e74e6e7f"),
    ("lattice-info", "Z2xZ2", "((1,2),(3,4),(5,6));", "algebra-text",
     "98be8c2a22fb92229f16a8f7b83ff0185668b48ff16a25672d7fe42c6e817f9c"),
]

# CLI output of ``generate``, recorded from ``json.dumps`` so that they gate
# the streamed JSON: the Z2 tripod has codim 0 ("invariants": [] and empty
# text), and the Z3 caterpillar and the factored Z6 5-claw are the
# benchmark's caterpillar-join and claw-factored instances, with its pins
GENERATE_CLI_PINS = [
    ("Z2", "(1,2,3);", (), "json",
     "5b3d564135eb3205bc4d47879b73297173ddf55acf11d59a0c6b7f9f0f6d0645"),
    ("Z2", "(1,2,3);", (), "algebra-text",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("Z3", "((((((1,2),3),4),5),6),7,8);", (), "json",
     "55ef5a4ab47cf5c348d23a7991f0e6a67a89e43355d8aeabe4d37d8224933bf1"),
    ("Z3", "((((((1,2),3),4),5),6),7,8);", (), "algebra-text",
     "433ee1ef565643c01a5515c939b22c452df73b5bea369752bbd942a7234a59e8"),
    ("Z6", "(1,2,3,4,5);", ("--mode", "factored"), "json",
     "3dcf23dc8283d285f07a25c8525b2c4e326b24c4cb6964535652a1a686247618"),
    ("Z6", "(1,2,3,4,5);", ("--mode", "factored"), "algebra-text",
     "596b701e0552795877d285336ac198de608fb10f7854177373a73781b1835a33"),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def gen(group, newick, kw):
    return generate(parse_newick(newick), parse_group_spec(group),
                    GenerateOptions(**kw))


@pytest.mark.parametrize("group,newick,kw,json_pin,text_pin", GENERATE_PINS)
def test_generate_outputs_pinned(group, newick, kw, json_pin, text_pin):
    s = gen(group, newick, kw)
    assert sha256(dump(s.to_json())) == json_pin
    assert sha256(algebra_text(s)) == text_pin


def test_verify_output_pinned():
    s = gen("Z2xZ3", "(1,2,3,4);", {"mode": "factored"})
    assert sha256(dump(verify_complete_intersection(s).to_json())) == VERIFY_PIN


def test_failing_verify_output_pinned():
    s = gen("Z3", "((1,2),(3,4));", {})
    binomials = list(s.binomials)
    for i, k in ((0, 2), (1, 3), (2, 2)):
        b = binomials[i]
        binomials[i] = Binomial(tuple(sorted(b.lhs * k)), tuple(sorted(b.rhs * k)))
    report = verify_complete_intersection(
        InvariantSet(s.rooted, s.group, binomials, list(s.provenance)))
    assert report.failures[-1].endswith("(leftover invariant factors [1, 2, 6])")
    assert sha256(dump(report.to_json())) == FAILING_VERIFY_PIN


def test_doubled_verify_output_pinned():
    s = gen("Z2xZ2", "((1,2,3),(4,5,6));", {})
    binomials = list(s.binomials)
    b = binomials[0]
    binomials[0] = Binomial(tuple(sorted(b.lhs * 2)), tuple(sorted(b.rhs * 2)))
    report = verify_complete_intersection(
        InvariantSet(s.rooted, s.group, binomials, list(s.provenance)))
    assert len(binomials) == 1002
    assert report.failures[-1].endswith("(leftover invariant factors [2])")
    assert sha256(dump(report.to_json())) == DOUBLED_VERIFY_PIN


@pytest.mark.parametrize("command,group,newick,output,pin", CLI_PINS)
def test_cli_certificate_outputs_pinned(capsys, command, group, newick, output,
                                        pin):
    code = main([command, "--group", group, "--tree", newick,
                 "--output", output])
    assert code == 0
    assert sha256(capsys.readouterr().out) == pin


@pytest.mark.parametrize("group,newick,extra,output,pin", GENERATE_CLI_PINS)
def test_cli_generate_outputs_pinned(capsys, group, newick, extra, output, pin):
    code = main(["generate", "--group", group, "--tree", newick, *extra,
                 "--output", output])
    assert code == 0
    assert sha256(capsys.readouterr().out) == pin
