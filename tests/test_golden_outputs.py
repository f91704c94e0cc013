"""Byte-exact outputs of the CLI pipelines and of ``expand``, pinned by SHA-256 digests.

Each pipeline runs in process, in a fresh directory: it writes its system
(``family``, or a seeded 48-piece ragged system written as JSON), then runs
``check``, ``solve-alpha``, ``check`` of the solved system and
``pushforward``.  Its float copy does the same on the rounded system
(``as_float_system``), with ``pushforward --csv``.  A step's digest covers
its exit code, stdout, stderr and the files it writes, so a change to one
digit of any output fails here.  Float outputs are pure-Python float64
arithmetic, so their bytes do not depend on the platform; ``simulate`` is
left out, as its bytes come from numpy and vary with its version.  A change
that means to alter an output records the new digests and says why.
"""

import hashlib
import random
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from twoval import cli
from twoval.piecewise import StepFunction
from twoval.system import EquippedSystem, as_float_system, system_from_json, system_to_json

#: pipeline -> the family command that writes its system
FAMILIES = {
    **{
        f"nonconstant-{n}": ["family", "nonconstant", "--n", str(n), "--beta", beta, "--gamma", gamma, "--fill", fill]
        for n, beta, gamma, fill in (
            (2, "1", "2", "0"),
            (3, "0", "3", "1"),
            (4, "2", "5", "1/2"),
            (6, "3", "1", "1/3"),
            (8, "4", "0", "2/3"),
        )
    },
    **{
        f"lebesgue-{n}": ["family", "lebesgue", "--n", str(n), "--fill", fill]
        for n, fill in ((2, "1/2"), (3, "0"), (4, "1"), (6, "1/3"))
    },
    "renyi": ["family", "renyi"],
}
#: ragged pipeline -> its a, and whether p is drawn too or is 1; alpha1 and a
#: drawn p are 48-piece step functions seeded by the name.  At a = 1/2 every
#: alpha1 keeps p = 1 invariant, so the second pipeline passes where the first fails.
RAGGED = {"ragged-48": (Fraction(5, 12), True), "half-48": (Fraction(1, 2), False)}

GOLDEN = "1/2 + 1/2*sqrt(5)"
GOLDEN_FLOAT = repr((1 + 5**0.5) / 2)
#: expand case -> its arguments: golden --all exact and float, 9/5 --all, greedy and lazy orbits at
#: the float base 1.8 (they part only at a crossover, which this orbit never meets, so their
#: digests agree) and a lazy one from the float golden crossover, base 2 at length 250, and a
#: --max-words overrun, which exits 1
EXPANSIONS = {
    "golden-all-values": ["--x", "31/64", "--beta", GOLDEN, "--length", "16", "--all", "--values"],
    "golden-float-all-values": ["--x", "0.484375", "--beta", GOLDEN_FLOAT, "--length", "16", "--all", "--values"],
    "nine-fifths-all": ["--x", "3/8", "--beta", "9/5", "--length", "18", "--all"],
    "greedy-1.8-values": ["--x", "0.296875", "--beta", "1.8", "--length", "250", "--values"],
    "lazy-1.8-values": ["--x", "0.296875", "--beta", "1.8", "--length", "250", "--rule", "lazy", "--values"],
    "lazy-golden-float-crossover": [
        "--x", repr((5**0.5 - 1) / 2), "--beta", GOLDEN_FLOAT, "--length", "40", "--rule", "lazy", "--values"
    ],
    "base-2-250": ["--x", "1/3", "--beta", "2", "--length", "250", "--values"],
    "budget-overrun": ["--x", "29/64", "--beta", GOLDEN, "--length", "20", "--all", "--max-words", "3"],
}

#: pipeline -> digests of its five steps: write, check, solve-alpha, check
#: solved, pushforward
DIGESTS = {
    "nonconstant-2": [
        "bdee3646d50ae5832ab6b3fd5d7d66d5aa4ca2287b7db67f5fbef9c0b7d153a9",
        "f6a7ac6c24318e2e3ab4018f795fd8fae6b9c81af5390796ba5526f4842c2991",
        "2c5362903d6cffd4625de2fcc4267ee1702008ff5227adaa7fe5f46534ea2e5e",
        "f6a7ac6c24318e2e3ab4018f795fd8fae6b9c81af5390796ba5526f4842c2991",
        "54d181108d51e920bcae29244563873533a30277444a1c0b4de160051f171454",
    ],
    "nonconstant-3": [
        "06739f65074b482c91c13f5edc1d1fb20233683e8a3ed257886433bb9dbda074",
        "df36239428f6da187061cc5c048d9d85a340276837d99fa0e8cd41aaa3a7fc9e",
        "89fb1f1b9476ed1ef64d43a61ea8765ce7f44d412f0a93c548e4ff86aaac936f",
        "df36239428f6da187061cc5c048d9d85a340276837d99fa0e8cd41aaa3a7fc9e",
        "412cb15019c57daedc35aa111ed5bbf097dc1e090a340b1b5f621c7fe79a9545",
    ],
    "nonconstant-4": [
        "87a279d4de1c9831d21a1665ac286f6e5a0c97ad1905d42b1c2302b0f21225c6",
        "66f97165394a8f290d00185b2f4e561ccbd41ef47aa7ea258f99f06e4bfd9bbb",
        "3ad1c3ef87f1cac332ee7303be67b484e8d6a5ce019bfca2863f3897dbcc6c44",
        "66f97165394a8f290d00185b2f4e561ccbd41ef47aa7ea258f99f06e4bfd9bbb",
        "060853955c0f99cc607c6216433e0faea1d7e89e9477331b253e9903a1adc7db",
    ],
    "nonconstant-6": [
        "5ebe01e9b5d3b7e1e0b55ecfb57d3d25a162dc74c3d92bde0381494386f61c7d",
        "b5443bd673d44c8425727c0de1ec1513367c3d7166494d8ef106f322b8933eb6",
        "5ebe01e9b5d3b7e1e0b55ecfb57d3d25a162dc74c3d92bde0381494386f61c7d",
        "b5443bd673d44c8425727c0de1ec1513367c3d7166494d8ef106f322b8933eb6",
        "f291b790dabc72afe8dc29a5d15aa5b185d9f3111702f8dc2b8d840e4d55e2d6",
    ],
    "nonconstant-8": [
        "6fefeef71aca32e271734adc4b0a9ed514dfc9d69d6a2d95e01bade34800e54e",
        "19fbe4beb73cefa7aff233148f5e42772d183c04b369bc7c9ea7bc919c960739",
        "a33b6d5d7386516e1d2f2928b6fc3e2972d9ef7a05abe113ded1c1d4de0216e9",
        "19fbe4beb73cefa7aff233148f5e42772d183c04b369bc7c9ea7bc919c960739",
        "203a864c4c8d63a0a03f33f91c67941ca48af09d8b47eff9492edb24614e5429",
    ],
    "lebesgue-2": [
        "50c4954d16ddc2980bdcdf746f423df112fb39dc5161f08b46273919464a767f",
        "c8a80e001c613989884fcf1baed5937600cbc89f15aee7b3c504c62acd90991a",
        "4ed83ad0025ee3627b25264535c40a862598bd1f696d0b420c1fe4d05a96fdfb",
        "c8a80e001c613989884fcf1baed5937600cbc89f15aee7b3c504c62acd90991a",
        "9a2181b331362f3e89c9fa8bd43e13aba3a299790ef3d62c0a680b5b2fa758ca",
    ],
    "lebesgue-3": [
        "db87cc8504f5289c909f90995d29d6b051e61b347dcd8ccf2621364c983457fe",
        "8973a090106efbf9abfd2987d3fdc4e7783ed8196a14d2ad8f4db81edc021a92",
        "0c91b273b5c545362a78ea8a827852ed117fb825c1704f03c51f0c0ddc0eb2f3",
        "8973a090106efbf9abfd2987d3fdc4e7783ed8196a14d2ad8f4db81edc021a92",
        "9a2181b331362f3e89c9fa8bd43e13aba3a299790ef3d62c0a680b5b2fa758ca",
    ],
    "lebesgue-4": [
        "9869495c50b9e67b9086b3fa9231a70f515dac0e9364c51836a1528c70340bca",
        "0cae4089adfe34ee72a84bbc0ff8cb314edd676da33eae8ac26c830628b2fe39",
        "9a65ef41d3b6381db9aaca74e8821a4305ff502aadf42d4230543e05f6c3f108",
        "0cae4089adfe34ee72a84bbc0ff8cb314edd676da33eae8ac26c830628b2fe39",
        "9a2181b331362f3e89c9fa8bd43e13aba3a299790ef3d62c0a680b5b2fa758ca",
    ],
    "lebesgue-6": [
        "0cfc2162c839be45ac118e5341e082f26f43ab07448552868ebb9c7a8576e364",
        "704f407e0c5fee3dea57265182e9a97f77cc93ddc9e60f917e829de440347f69",
        "0cfc2162c839be45ac118e5341e082f26f43ab07448552868ebb9c7a8576e364",
        "704f407e0c5fee3dea57265182e9a97f77cc93ddc9e60f917e829de440347f69",
        "9a2181b331362f3e89c9fa8bd43e13aba3a299790ef3d62c0a680b5b2fa758ca",
    ],
    "renyi": [
        "070d6e5fb270cd7bbac06b138c0b4f912cc68907570f9cbce58061d17336ca2c",
        "f6a7ac6c24318e2e3ab4018f795fd8fae6b9c81af5390796ba5526f4842c2991",
        "e5764f7b9fbfa7da9e19f60ceab9417cdb4e11a0165317f1abc44377679f50df",
        "f6a7ac6c24318e2e3ab4018f795fd8fae6b9c81af5390796ba5526f4842c2991",
        "ae709821cf75923094f3d9c1bb689147216dd609d070da371fcbe9c50138a4a6",
    ],
    "ragged-48": [
        "339866eba15aa55806607736e1a2221413a2d58cc5fe72c14973a4f2a5683ed6",
        "9c2c1bc990fb119926fd6a4d1ad38b6514faa2176b47085af8c328f37e3e1e52",
        "21ed1d9e1e075e3dcf329f5e52e14460fbf5d605dc8547e4beb1fb1f9daf4b15",
        "c842a2544a08ff43be639afdf059ac97d48d1d1fc0e37a50eeb68803d59023e6",
        "03de248ed97a19994a0f2fbc9efc3e7ae9d1f1fd4989761c5fdb6d51e9380bbb",
    ],
    "half-48": [
        "5b26ff1477c29c027a79be8f5bb856079ddd56daba4975be44e467a178b3ff91",
        "c8a80e001c613989884fcf1baed5937600cbc89f15aee7b3c504c62acd90991a",
        "4ed83ad0025ee3627b25264535c40a862598bd1f696d0b420c1fe4d05a96fdfb",
        "c8a80e001c613989884fcf1baed5937600cbc89f15aee7b3c504c62acd90991a",
        "9a2181b331362f3e89c9fa8bd43e13aba3a299790ef3d62c0a680b5b2fa758ca",
    ],
}


#: pipeline -> digests of its float copy's five steps, as DIGESTS
FLOAT_DIGESTS = {
    "nonconstant-2": [
        "31686e3c5964ea46ecb05a6a91a5b4792d8e2d90c03ff4c68b6494a30b4d6af2",
        "19030d2cf890023f5f05ac61b9810a339c730f2b103a523b5f50b54a9439f10b",
        "4b7452839a7a0b51474a60ea95c8c22af8a2d295df15880ac30b08f7fda78178",
        "689e093d2659a552bd353736d79b90e563bc717a96438c4a7b6f12b5c0c9453f",
        "175e8057dd6577f673916c362f6f55e9e2d9e7642ac5d3a4dbbdb0ade265bced",
    ],
    "nonconstant-3": [
        "56dde677642c6d2b605720a00385d0199f72c9442dd515afaac7b5439385dfc8",
        "8306fca8a673f9e8855e4e7ce54be9bd1d6bd08c34afa0525aeb6d01baefbe65",
        "d0987b3933ceab507ce977fcf3db68c3f54872de6264100e8e112abaa40a4827",
        "53601675c185ec4f8bdb8cc79ef7bf7be68b8406c3b00530c222bc8073f7d835",
        "73d658e502cb1b4c6c8637ef481b84ddf56df7d617b6b4f7621468236bc24367",
    ],
    "nonconstant-4": [
        "64a831f8a7bbb58f4358961090654d5d61f203a39c4e258be8dab63e9e636376",
        "33dbb2021b6a60a40156dd5eca321f46ec2fde512c17a27c7a222ad2cd71c0e3",
        "4205fd154b1e3e574f131617d900d8a47438e699579d9debe18d6295515465dc",
        "7a8444ffb167358f015910fdd0184f814d7fd2bdb2689c8982e2a310ba2a046a",
        "9b39bd673b7a2d73d635dc1a3d4f7b9731388ea4f633ad2bc387335ed5e7a47d",
    ],
    "nonconstant-6": [
        "244242a49b72eaae291d66f5d4a75ac9d753e21230e747ae61d2942c7bf02792",
        "bff394bee568285ad6630f0c76503010fdb66a83c4d5b5a6c43d1e5a34473ddb",
        "dfa94777e027fc50ab4900b2f860728040f4d0853bfaabc88eff9729b02349b3",
        "f990cf8a5efbec89047d50783a552f82ccfa5a4147913a60cbd947eebe324b35",
        "2f40a4634ec00cf05e53cf4145dc10a3a8140d73351da1cdb4063d8df6275c02",
    ],
    "nonconstant-8": [
        "13314abdfa966aa042d349ea5dca48e1b1a09c4d4ea2f20011065e6127f96952",
        "093e1366369c9aabe916c0732d759058ef9324fbd1e5b05801bd38a96ec5f26c",
        "d03485aa3961d0b1c06fc2d8e6a437bacf77bf591ef34d663dc661c2c9d226a5",
        "f7e5f8fd02c99c2ea79f2cf2dda2f20db40c7bf4841f2e1b7387933840cddf01",
        "5b3d6b00ce3bf2b55890d127d8b0d25bbe07fe46825171f9e30fcb9051bd77bc",
    ],
    "lebesgue-2": [
        "1e612d6b321a08fc5b81fb820c769a9e413cd609f936c1bcf7ce845924c049db",
        "e3ef3cbc9132be50501cf81921b390b46f89115c3e238897df76d38f4d745954",
        "45821ffbcbb4ec377dc0c7abf3886d37d35e1b0b2a2b188a662ceb523386d663",
        "e3ef3cbc9132be50501cf81921b390b46f89115c3e238897df76d38f4d745954",
        "b71e9f2f8d5a31ec0200d9c87092a32bd9bb55a87a94ef78605a328985094fda",
    ],
    "lebesgue-3": [
        "aa6663d5ded78325e8397a57a7affbdb92133cd8b87ea6ebee0ef8f1f414e7c0",
        "3078be611f94de74fdce2526a471961283dc8351cb771f27b963acdee1e2b610",
        "8420a6020410591e13d99ccf6599434167d8c8e66b37ac566ee256eb6f05bb76",
        "2a5878f6b62a78deeb0b571cc459b959bf3e4d3d0cf57b1e4073d46d61f1063d",
        "b71e9f2f8d5a31ec0200d9c87092a32bd9bb55a87a94ef78605a328985094fda",
    ],
    "lebesgue-4": [
        "f53bfcb334ce03c067518a394822566e6d155c889976846a059505398d383142",
        "9ea3418328eea3c99c7b50981a5404990976aa8ec66fc4146f546499d9508b95",
        "5f0c86303070a60eacb96e222833dca17225127e968d43fc38b9e357c3e1b901",
        "e6e6fe41d34ab3d068fd35cea2a6d44ae85cefe68803c3c20ec80abb70d39f22",
        "b71e9f2f8d5a31ec0200d9c87092a32bd9bb55a87a94ef78605a328985094fda",
    ],
    "lebesgue-6": [
        "70bc4e06e023eed2c010c8e735cd61dfcb52c2b60b26b1bf1d3014cfa4b7313b",
        "3bcc0a881d63c45bc1ffd3b001b9143080b05ba1826241beb88da8409ec1d654",
        "fc15e802cf5764896679ab5d9fef6856ec0f363d3362faaa59170c86d301db29",
        "068ff0eda0d3c1f9300dc805bbef37f1ae76a8490c093c7031132b6f29607d15",
        "b71e9f2f8d5a31ec0200d9c87092a32bd9bb55a87a94ef78605a328985094fda",
    ],
    "renyi": [
        "faf1a27874aabd905463b3aa18108bbcbc14d6a16d2db2631a6a72f0f893ee40",
        "cf6dd31fbd3dc4211d68079c579ad6c99e3a70aa9282de166fe15595883d0463",
        "64ff86ff04ce59e485cfd9f974095e191e1ad3c050609eaa8cfd1bbaaef65542",
        "5ec1c5cb285e6fff5e31051ff17c443fcd2bbfc1a45ddd3707319ace425c0836",
        "92e7b6cdc2d9498b2294331d91d2f93a5d466c7416bf006c12316b9d740acb02",
    ],
    "ragged-48": [
        "e1b6c338b6c015879506820c927e03dac07582f5f15a5364b7ea35472d54c744",
        "d5cc8bed0fd1e1a66afb71fb5da0df46c05202d624872614f1b2c8ae85164849",
        "cc40a8b47106d3777e9e21e6ba08799d5a966574c906cf15b3dde3feb9fd3c59",
        "c842a2544a08ff43be639afdf059ac97d48d1d1fc0e37a50eeb68803d59023e6",
        "bc9afaec1db507bafdd70649e30b44f47c1a47226eeb49959a9ef298413a9c2c",
    ],
    "half-48": [
        "113b6d051108f314f508153fd2f70d05e4021769cfcf606a1022565b3cf0b42f",
        "e3ef3cbc9132be50501cf81921b390b46f89115c3e238897df76d38f4d745954",
        "45821ffbcbb4ec377dc0c7abf3886d37d35e1b0b2a2b188a662ceb523386d663",
        "e3ef3cbc9132be50501cf81921b390b46f89115c3e238897df76d38f4d745954",
        "b71e9f2f8d5a31ec0200d9c87092a32bd9bb55a87a94ef78605a328985094fda",
    ],
}

#: expand case -> digest of its exit code and output
EXPAND_DIGESTS = {
    "golden-all-values": "5efc83b854561194e3def0f48d731079a356dc3237cf61d19a4d13a1d7b900e6",
    "golden-float-all-values": "02ebba0b4c91792af5eba20e0a6ed9bf416a66845218a79afa00cf996fd302f8",
    "nine-fifths-all": "e3c4e87ac62d134c248ed7d53b7288876a708b6363582c6b03ea000d29c6ca6a",
    "greedy-1.8-values": "692b61360e6ad65b988b024ccfbda5992a0010a33b8f9bf7ef1da0e371eaab12",
    "lazy-1.8-values": "692b61360e6ad65b988b024ccfbda5992a0010a33b8f9bf7ef1da0e371eaab12",
    "lazy-golden-float-crossover": "3af7cba01d2026d1d89fb40d1789c099a6e505d5e7984dcd54490360e3ab8946",
    "base-2-250": "d1327cb6523ccb026a3a8b568555e7c9b67ddea51a319efbec130135bf6c6ac1",
    "budget-overrun": "2b7346113eece332d3954c87a7887a5f91a9e33bfb194db67677121efda841e9",
}


def _ragged_step(rng: random.Random, pieces: int, lo: int, hi: int, den: int) -> StepFunction:
    """A step function of values k/den, k in [lo, hi], cut at pieces - 1 points of a 1/(16*pieces) grid."""
    grid = 16 * pieces
    cuts = sorted(rng.sample(range(1, grid), pieces - 1))
    values = [Fraction(rng.randint(lo, hi), den) for _ in range(pieces)]
    return StepFunction([0, *(Fraction(c, grid) for c in cuts), 1], values)


def _digest(rc: int, out: str, err: str, *paths: str) -> str:
    """SHA-256 of the exit code, stdout, stderr and the bytes of the files at ``paths``."""
    data = b"".join(Path(p).read_bytes() if Path(p).exists() else b"\0no file" for p in paths)
    return hashlib.sha256(f"{rc}\0{out}\0{err}\0".encode() + data).hexdigest()


def _step(capsys, argv, *paths) -> str:
    """Run ``twoval argv``; the digest of its exit code, output and the files at ``paths``."""
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return _digest(rc, out, err, *paths)


def pipeline_digests(tag: str, capsys, float_copy: bool = False) -> list:
    """Run pipeline ``tag``, or its float copy, in the current directory; the digest of each step."""
    step = partial(_step, capsys)
    if tag in FAMILIES:
        digests = [step([*FAMILIES[tag], "-o", "system.json"], "system.json")]
    else:
        rng = random.Random(tag)
        a, drawn = RAGGED[tag]
        p = _ragged_step(rng, 48, 1, 12, 4) if drawn else StepFunction.constant(Fraction(1))
        system = EquippedSystem(a, p, _ragged_step(rng, 48, 0, 8, 8))
        Path("system.json").write_text(system_to_json(system), encoding="utf-8")
        digests = [_digest(0, "", "", "system.json")]
    push = ["pushforward", "system.json", "-o", "push.json"]
    if float_copy:
        system = as_float_system(system_from_json(Path("system.json").read_text(encoding="utf-8")))
        Path("system.json").write_text(system_to_json(system), encoding="utf-8")
        digests = [_digest(0, "", "", "system.json")]
    return digests + [
        step(["check", "system.json"]),
        step(["solve-alpha", "system.json", "--fill", "1/3", "-o", "solved.json"], "solved.json"),
        step(["check", "solved.json"]),
        step([*push, "--csv", "push.csv"], "push.json", "push.csv") if float_copy else step(push, "push.json"),
    ]


@pytest.mark.parametrize("tag", [*FAMILIES, *RAGGED])
def test_pipeline_outputs_match_digests(tag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert pipeline_digests(tag, capsys) == DIGESTS[tag]


@pytest.mark.parametrize("tag", [*FAMILIES, *RAGGED])
def test_float_pipeline_outputs_match_digests(tag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert pipeline_digests(tag, capsys, float_copy=True) == FLOAT_DIGESTS[tag]


@pytest.mark.parametrize("tag", EXPANSIONS)
def test_expand_outputs_match_digests(tag, capsys):
    assert _step(capsys, ["expand", *EXPANSIONS[tag]]) == EXPAND_DIGESTS[tag]
