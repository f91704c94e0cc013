"""Byte-exact outputs of the exact CLI pipelines, pinned by SHA-256 digests.

Each pipeline runs in process, in a fresh directory: it writes its system
(``family``, or a seeded 48-piece ragged system written as JSON), then runs
``check``, ``solve-alpha``, ``check`` of the solved system and
``pushforward``.  A step's digest covers its exit code, stdout, stderr and
the file it writes, so a change to one digit of any exact output fails here.
A change that means to alter an output records the new digests and says why.
"""

import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from twoval import cli
from twoval.piecewise import StepFunction
from twoval.system import EquippedSystem, system_to_json

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


def _ragged_step(rng: random.Random, pieces: int, lo: int, hi: int, den: int) -> StepFunction:
    """A step function of values k/den, k in [lo, hi], cut at pieces - 1 points of a 1/(16*pieces) grid."""
    grid = 16 * pieces
    cuts = sorted(rng.sample(range(1, grid), pieces - 1))
    values = [Fraction(rng.randint(lo, hi), den) for _ in range(pieces)]
    return StepFunction([0, *(Fraction(c, grid) for c in cuts), 1], values)


def _digest(rc: int, out: str, err: str, path: str | None) -> str:
    """SHA-256 of the exit code, stdout, stderr and the bytes of the file at ``path``, if given."""
    written = Path(path) if path else None
    data = b"" if written is None else written.read_bytes() if written.exists() else b"\0no file"
    return hashlib.sha256(f"{rc}\0{out}\0{err}\0".encode() + data).hexdigest()


def pipeline_digests(tag: str, capsys) -> list:
    """Run pipeline ``tag`` in the current directory; the digest of each step."""

    def step(argv, path=None):
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        return _digest(rc, out, err, path)

    if tag in FAMILIES:
        digests = [step([*FAMILIES[tag], "-o", "system.json"], "system.json")]
    else:
        rng = random.Random(tag)
        a, drawn = RAGGED[tag]
        p = _ragged_step(rng, 48, 1, 12, 4) if drawn else StepFunction.constant(Fraction(1))
        system = EquippedSystem(a, p, _ragged_step(rng, 48, 0, 8, 8))
        Path("system.json").write_text(system_to_json(system), encoding="utf-8")
        digests = [_digest(0, "", "", "system.json")]
    return digests + [
        step(["check", "system.json"]),
        step(["solve-alpha", "system.json", "--fill", "1/3", "-o", "solved.json"], "solved.json"),
        step(["check", "solved.json"]),
        step(["pushforward", "system.json", "-o", "push.json"], "push.json"),
    ]


@pytest.mark.parametrize("tag", [*FAMILIES, *RAGGED])
def test_pipeline_outputs_match_digests(tag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert pipeline_digests(tag, capsys) == DIGESTS[tag]
