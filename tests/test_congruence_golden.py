"""Golden digests of the congruence-side CLI output.

The sha256 values were taken from the CLI output of the catalogue as it
stood before the tangent operators moved to Kronecker form and the
congruence graphs and deformation tables became row tables; any change to
a family, an arrow, a template cell, a classified block or the formatting
changes a digest.  The congruence template rows added later were taken
while the congruence cells still came from a transcribed table, before
they were derived from the tangent map.  The classify rows for the
catalogue forms that had none (from ``gamma1_n1`` on in ``MATRICES``) were
taken from the classifier as it stood before it moved its rank-fingerprint
tables to module level and took the pencil determinants in one stacked call.
The two ``h2_gamma1`` classify rows were retaken when the classifier moved
from the roots of det(A - s A^T), interpolated at five nodes, to the
eigenvalues of the cosquare A^-T A: the parameter 2 of the H block used to
print with a roundoff imaginary part (2+1.85e-16j canonical, 2+2.1e-17j
moved) and now prints as exactly 2 for both.  No other row changed.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from matstrata.cli import run


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


GRAPHS = {
    ("congr", 2, "bundles", "dot"): "f872d6dc8b0bb48c386c4cefbb5731ffef1c06c092ef38a51fa6418e137584bd",
    ("congr", 2, "bundles", "json"): "d7790e19ec3130db5f33d9aba6ae41ffe476355a8b1fd3958eb7e185604b116d",
    ("congr", 2, "classes", "dot"): "fb4b2cb80190b783218315fcb3f1041f291e02e551ac15d15d8152a250532457",
    ("congr", 2, "classes", "json"): "dbb4bd2b0539529c7404b05b494a5598cc1bfb4b95d04455d25ba7b89cde4055",
    ("congr", 3, "bundles", "dot"): "fbef338820913cc9554b484a4cba7a3463ab55a4f08b35182bd27dca0b240ec0",
    ("congr", 3, "bundles", "json"): "fb8d8317ded4a7e571b34927d5d159aa84f4bc20557283ddd47b149ca9ca0f40",
    ("congr", 3, "classes", "dot"): "9e9b6ecf64ba1da28064b95cda015a5a80d9a01624184f85385531e2f6158c73",
    ("congr", 3, "classes", "json"): "0afed8329d479a0469322e54ec0f598fd67761c70b744a5dfc5cb959d48973da",
    ("star", 2, "classes", "dot"): "af3176ef905c0a971753010832387b9778c028b525d0a03eea26e60f34f7e662",
    ("star", 2, "classes", "json"): "047bf489290534d4e5f9102d2f4b2c32c349fb30c64a812a95a90d3178ecbfea",
}


@pytest.mark.parametrize("what,n,kind,fmt", sorted(GRAPHS))
def test_graph_digest(what, n, kind, fmt):
    argv = ["graph", what, "--n", str(n), "--format", fmt]
    if what == "congr":
        argv += ["--kind", kind]
    assert _run(argv) == (0, GRAPHS[(what, n, kind, fmt)])


def _block(kind, size, param=None):
    entry = {"kind": kind, "size": size}
    if param is not None:
        z = complex(param)
        entry["param"] = [z.real, z.imag]
    return entry


_W = complex(np.exp(0.3j))

# every row of the transcribed congruence table that the tangent-map
# derivation replaced, and a sample of *congruence rows, by catalogue and
# block list
FORMS = {
    "congr/zero2": (False, [_block("N", 1), _block("N", 1)]),
    "congr/h_minus1": (False, [_block("H", 2, -1)]),
    "congr/h_lambda": (False, [_block("H", 2, 3 + 1j)]),
    "congr/gamma2": (False, [_block("Gamma", 2)]),
    "congr/diag_1_1_0": (False, [_block("Gamma", 1), _block("Gamma", 1), _block("N", 1)]),
    "congr/h_half_n1": (False, [_block("H", 2, 0.5), _block("N", 1)]),
    "congr/n2_n1": (False, [_block("N", 2), _block("N", 1)]),
    "congr/n3": (False, [_block("N", 3)]),
    "congr/gamma3": (False, [_block("Gamma", 3)]),
    "congr/h_minus1_gamma1": (False, [_block("H", 2, -1), _block("Gamma", 1)]),
    "congr/gamma1_n1": (False, [_block("Gamma", 1), _block("N", 1)]),
    "congr/gamma1_gamma1": (False, [_block("Gamma", 1), _block("Gamma", 1)]),
    "congr/zero3": (False, [_block("N", 1), _block("N", 1), _block("N", 1)]),
    "congr/gamma1_n1_n1": (False, [_block("Gamma", 1), _block("N", 1), _block("N", 1)]),
    "congr/gamma1_x3": (False, [_block("Gamma", 1), _block("Gamma", 1), _block("Gamma", 1)]),
    "congr/h_minus1_n1": (False, [_block("H", 2, -1), _block("N", 1)]),
    "congr/gamma2_n1": (False, [_block("Gamma", 2), _block("N", 1)]),
    "congr/h_lambda_gamma1": (False, [_block("H", 2, 2 - 1j), _block("Gamma", 1)]),
    "congr/gamma2_gamma1": (False, [_block("Gamma", 2), _block("Gamma", 1)]),
    "star/zero2": (True, [_block("N", 1), _block("N", 1)]),
    "star/u1_n1": (True, [_block("U", 1, 1j), _block("N", 1)]),
    "star/u1_u1_delta": (True, [_block("U", 1, 1), _block("U", 1, -1)]),
    "star/u1_u1": (True, [_block("U", 1, 1), _block("U", 1, 1j)]),
    "star/u2": (True, [_block("U", 2, _W)]),
    "star/hstar": (True, [_block("H*", 2, 2 + 1j)]),
    "star/u1_u1_u1": (True, [_block("U", 1, 1), _block("U", 1, -1), _block("U", 1, 1j)]),
    "star/u2_u1": (True, [_block("U", 2, 1j), _block("U", 1, 1)]),
    "star/hstar_u1": (True, [_block("H*", 2, 0.5j), _block("U", 1, 1j)]),
    "star/n3": (True, [_block("N", 3)]),
    "star/u3": (True, [_block("U", 3, 1)]),
    "star/n2_n1": (True, [_block("N", 2), _block("N", 1)]),
}

TEMPLATES = {
    ("congr/zero2", "json"): "e9d297de23c7c246197008a79d15b9d2bc933e24e354185cc0e2ed0fbf0db6e9",
    ("congr/zero2", "ascii"): "1bd95cf956b07365f5d074471a3f6592bf65bc43f7162ce012909920e1ed4c65",
    ("congr/h_minus1", "json"): "eb74ff18c845b4468ff2416328fbcc33e8a5484659852483e202f6364663f31b",
    ("congr/h_minus1", "ascii"): "f0ade21d3be656e89b020e66315a25bad8a44bed3244711d6033505397bc27a0",
    ("congr/h_lambda", "json"): "d352ba833911dfe2a2cbac0c966162c3278d0cccc1043eb60446ef6c5b91424f",
    ("congr/h_lambda", "ascii"): "9c078032815fc9e84a0de1d9be44c61c7f856e847e58cc1467cd48e64e68fe4d",
    ("congr/gamma2", "json"): "f9bfdc6f573b098fa920171bbdafa0f8bbbae42c351570d1adc9c61fad8e8951",
    ("congr/gamma2", "ascii"): "476b3bad297cae0f889099cbd9c32c284d4876f2d021d25d63c13ba56fe4b1e9",
    ("congr/diag_1_1_0", "json"): "2c16d9b2c98de69b6fa42dc05e61b623a20fddc97476eb04ecba704dcca0ee28",
    ("congr/diag_1_1_0", "ascii"): "bf5bdb840b095267322dfe3a403dfc548c0f645672693657f86b53a327892748",
    ("congr/h_half_n1", "json"): "0cbe23b8082edf28145c5365f9652895f3b39ead4f232822c54a1cc7911a0abf",
    ("congr/h_half_n1", "ascii"): "76986197faf15bda895af3caa6c204d16126de5858a7b7b9d7e412a99d9402ed",
    ("congr/n2_n1", "json"): "10c22cba962ee763bae04fd94763de80479ea4d1214a13d3a15ba276761a46c8",
    ("congr/n2_n1", "ascii"): "6ba61c0a621631d9e99c901339bb22d2fc79fdc88f6209af254cb1db08744f21",
    ("congr/n3", "json"): "e496c95e9561820ae3ff2f492ae1ddca58f086fb47ffcc395e3730d731cf48d6",
    ("congr/n3", "ascii"): "acb4eed94282b8528626330f9ed770477df1600224dad9b999f0ba05f4113f44",
    ("congr/gamma3", "json"): "5b3ae52242269d862b472b32b7603e33c24a47302c32eca980be3e0a294d2152",
    ("congr/gamma3", "ascii"): "457ea7b7ed00cbf076cda201380552eb38b5c0e94b6a99cc89538b11ed77afd4",
    ("congr/h_minus1_gamma1", "json"): "175ee4db34a77313bd42a5b944119c83d65c7fe8f5e2bd3dc38820455edba5f3",
    ("congr/h_minus1_gamma1", "ascii"): "4a6acc9587a42dc1fb0ef63fa97d0c8f46252e9846fcc71382346f6101cfc3d9",
    ("congr/gamma1_n1", "json"): "ce403f436da664c88d97179941c6cc390bfc296c41b178a120b1f74b58ce75b3",
    ("congr/gamma1_n1", "ascii"): "27c04b34f1b916b162319cdd22faf94f993214d42c459183dfbc320106c516cf",
    ("congr/gamma1_gamma1", "json"): "90f233caeaf57178343ed6f41eb981483eda6c4e848424841c38020179cc84a9",
    ("congr/gamma1_gamma1", "ascii"): "9c8273457f3f3acdb7914acc9e695a166e4758da2f0d04a0a8e51a6aea8f8e85",
    ("congr/zero3", "json"): "28f388090990873ac4f765d058129c9c7a6af7e05511f2de59880d72377f0b62",
    ("congr/zero3", "ascii"): "2025290983074b33c1cb4879666e986e45eaf6b9d826367b115fde21f09a167f",
    ("congr/gamma1_n1_n1", "json"): "4f7680e63f6e1f30a7d7f4f27d36082a8e869927c871e6c2f8c0e4512aacd1dd",
    ("congr/gamma1_n1_n1", "ascii"): "23dffb95e5a259acbc5b63b6d74c3d1bce954ab851b7863b8c6bb31a47b7eb7d",
    ("congr/gamma1_x3", "json"): "a974713b1bdf2adc2e2b6909f856ea55cac59c412b5f858cb3f587bf8c36c2b8",
    ("congr/gamma1_x3", "ascii"): "d3e381c33daf1231c58d4348cd434f4c7a70ff259a7fc6e601f6b5aec6121789",
    ("congr/h_minus1_n1", "json"): "0b8f52158b2817dbc4609471014470a649b8afd62cc541376537f126a8a9a305",
    ("congr/h_minus1_n1", "ascii"): "7e7070e0b7fa57ff400717c7b416cb05633d5b5cb4b7a394399f1a8ba1bb4d13",
    ("congr/gamma2_n1", "json"): "ffccd2f9747977781aeb8fa8dcda2d5d9190ad085720823c5e722bdc36e81e08",
    ("congr/gamma2_n1", "ascii"): "948580f745c72b5c667eff469b38e4b34083f793776ceee91ffea7918a5e37f8",
    ("congr/h_lambda_gamma1", "json"): "48c706a9b28131edd844aa0bfd604cb65c85ef3638b5801e63b393aebbfb6b62",
    ("congr/h_lambda_gamma1", "ascii"): "9e5e3cff5bffc6dc83c6a6099f940c9a5eada501a9239461e64126dab88d2cfb",
    ("congr/gamma2_gamma1", "json"): "8213a49cc50de5693236ffc7c7f26ebbbc2c2a86a9c8810bd926576db4ba6c34",
    ("congr/gamma2_gamma1", "ascii"): "0c3c88c8fbbe31c455b87b825d449d38057b32189d0bdeecfe0a8535951dacc8",
    ("star/zero2", "json"): "e9d297de23c7c246197008a79d15b9d2bc933e24e354185cc0e2ed0fbf0db6e9",
    ("star/zero2", "ascii"): "1bd95cf956b07365f5d074471a3f6592bf65bc43f7162ce012909920e1ed4c65",
    ("star/u1_n1", "json"): "720448f8169ad7cc8bbc7c64f68f1a95a1f09cfbfdf476c6408bf6245528b91c",
    ("star/u1_n1", "ascii"): "25d57ab9f4962241e968c9434193d59fb10c8ccc96cc964693607ba455766331",
    ("star/u1_u1_delta", "json"): "d578ad10485f95f18223381a9b0ffa6726e222ba45ce8bb2c2e130fe6df4272c",
    ("star/u1_u1_delta", "ascii"): "32d6b54bab5f78f262334af65bb8f142d901132b81700bae23370af972f00a73",
    ("star/u1_u1", "json"): "dbe4a10022c707a47490620ba86b7fec05264f0d6aece73c19e294b9f584f272",
    ("star/u1_u1", "ascii"): "5e237d76a6ef7fbf9355dc1cd99c92c7e996b5c790fe53c60cdedf062ef26c7d",
    ("star/u2", "json"): "fb0f38da6f6cad622ef704f11a49b4916b0e06dbcb5f63c8045547ba8000ecd5",
    ("star/u2", "ascii"): "ab8523fbd9d1b9d24427a24c2b39c9c57943fc901104be752ea2447e16d8ef38",
    ("star/hstar", "json"): "0cbe1bbb6cd922876fa9c32365b54373fd9434ab54c07e1ab7db21289aec76ae",
    ("star/hstar", "ascii"): "96f6e7669307f526e84605e673dbd4fd1d240e5ef12bade7bd1ee24e7b6de916",
    ("star/u1_u1_u1", "json"): "9d31aaebb162e03fa736aed14d338f709e68d93e600350eda095b892a5d5c31b",
    ("star/u1_u1_u1", "ascii"): "db2591a63a4632a1d83c9b612d3b5969f984988666fb08b0e5f717d18ee88e8a",
    ("star/u2_u1", "json"): "1def8dc3704ed1210d3cb3a794cb643c5e985ef06a318c1b608e5131b5e15cf1",
    ("star/u2_u1", "ascii"): "1cb9d38c1d51abfd7db35455563bb546a850ca9004fa18c02b5918e18c0454c4",
    ("star/hstar_u1", "json"): "81d419a85dbcb8b6f3da19f1b639bb20c155eb365a9014da2c45a69e8cfa51a9",
    ("star/hstar_u1", "ascii"): "31cca601f7e974ae316397ffea66ec490c0aa549c9864e5a809ec9c1acdfe369",
    ("star/n3", "json"): "e496c95e9561820ae3ff2f492ae1ddca58f086fb47ffcc395e3730d731cf48d6",
    ("star/n3", "ascii"): "acb4eed94282b8528626330f9ed770477df1600224dad9b999f0ba05f4113f44",
    ("star/u3", "json"): "3e58a441e7cb09a84aedb5ea735443d27b3f1276a3f48a3505187d5e9359bf61",
    ("star/u3", "ascii"): "a6bc667cd68eeb2c654214fe289736198fa790421142db2e2c183bcf3fd5ae55",
    ("star/n2_n1", "json"): "10c22cba962ee763bae04fd94763de80479ea4d1214a13d3a15ba276761a46c8",
    ("star/n2_n1", "ascii"): "6ba61c0a621631d9e99c901339bb22d2fc79fdc88f6209af254cb1db08744f21",
}


@pytest.mark.parametrize("name,fmt", sorted(TEMPLATES))
def test_template_digest(name, fmt, tmp_path):
    star, blocks = FORMS[name]
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"star": star, "blocks": blocks}))
    what = "star" if star else "congr"
    argv = ["template", what, "--form", str(path), "--format", fmt]
    assert _run(argv) == (0, TEMPLATES[(name, fmt)])


_S2 = np.array([[1, 1], [0, 1]])
_S3 = np.array([[1, 1, 0], [0, 1, 2], [1, 0, 1]])

# canonical matrices, each also moved by a fixed integer congruence S^T A S
MATRICES = {
    "skew2": [[0, 1], [-1, 0]],
    "gamma2": [[0, -1], [1, 1]],
    "n2": [[0, 1], [0, 0]],
    "h2": [[0, 1], [2, 0]],
    "h2c": [[0, 1], [3 + 1j, 0]],
    "id2": [[1, 0], [0, 1]],
    "gamma3": [[0, 0, 1], [0, -1, -1], [1, 1, 0]],
    "h2_gamma1": [[0, 1, 0], [2, 0, 0], [0, 0, 1]],
    "skew2_gamma1": [[0, 1, 0], [-1, 0, 0], [0, 0, 1]],
    "gamma2_gamma1": [[0, -1, 0], [1, 1, 0], [0, 0, 1]],
    "n2_gamma1": [[0, 1, 0], [0, 0, 0], [0, 0, 1]],
    "diag110": [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
    "h2_n1": [[0, 1, 0], [2, 0, 0], [0, 0, 0]],
    "n3": [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
    "zero3": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    "gamma1_n1": [[1, 0], [0, 0]],
    "zero2": [[0, 0], [0, 0]],
    "skew2_n1": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
    "gamma2_n1": [[0, -1, 0], [1, 1, 0], [0, 0, 0]],
    "n2_n1": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
    "id3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "diag100": [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
    "h2c_gamma1": [[0, 1, 0], [3 + 1j, 0, 0], [0, 0, 1]],
}

CLASSIFY = {
    ("skew2", "canonical"): "ec3a78505ed09bd52053562086dce7261d95bd4e051ddd24cb603b59495f7c7f",
    ("skew2", "moved"): "ec3a78505ed09bd52053562086dce7261d95bd4e051ddd24cb603b59495f7c7f",
    ("gamma2", "canonical"): "9e2a1f4d3a07d6037c0b88f3cf12c45f52c8762ca23e8864c9fdbe7ce6734039",
    ("gamma2", "moved"): "9e2a1f4d3a07d6037c0b88f3cf12c45f52c8762ca23e8864c9fdbe7ce6734039",
    ("n2", "canonical"): "b4cd867d1865685e73844f1016ca007bde51c6c496ce7e7d8c7700b5fe714fd7",
    ("n2", "moved"): "b4cd867d1865685e73844f1016ca007bde51c6c496ce7e7d8c7700b5fe714fd7",
    ("h2", "canonical"): "e8317fd91afd3de13eee6f098189873accfa1146d5930ca50fb853256c1c7e22",
    ("h2", "moved"): "e8317fd91afd3de13eee6f098189873accfa1146d5930ca50fb853256c1c7e22",
    ("h2c", "canonical"): "11365943d7c634a214a5167c3dab62e4ec00d4e6bf960995ed214c5f13452c45",
    ("h2c", "moved"): "11365943d7c634a214a5167c3dab62e4ec00d4e6bf960995ed214c5f13452c45",
    ("id2", "canonical"): "476f1891c3aeb0e75aacf5d32817e255904fdfa1db18c8bb90c420d03bec0894",
    ("id2", "moved"): "476f1891c3aeb0e75aacf5d32817e255904fdfa1db18c8bb90c420d03bec0894",
    ("gamma3", "canonical"): "b842794bc16897dcb8771dad7d2173ff3515cf515581c5515250a05ffd6d1e4d",
    ("gamma3", "moved"): "b842794bc16897dcb8771dad7d2173ff3515cf515581c5515250a05ffd6d1e4d",
    ("h2_gamma1", "canonical"): "8fedd526bacc3bc53eb9b63edf6e623d8e063a7e402c0be12f57eb6bbd0fe652",
    ("h2_gamma1", "moved"): "8fedd526bacc3bc53eb9b63edf6e623d8e063a7e402c0be12f57eb6bbd0fe652",
    ("skew2_gamma1", "canonical"): "60a1c725f72744c413cc1055286d2eed078fc39af3313eaefd3442fb5f4971ca",
    ("skew2_gamma1", "moved"): "60a1c725f72744c413cc1055286d2eed078fc39af3313eaefd3442fb5f4971ca",
    ("gamma2_gamma1", "canonical"): "9374fba1d1c303b6e275b8589760ea0d8631f312fe06b38647e5c6f8169d6319",
    ("gamma2_gamma1", "moved"): "9374fba1d1c303b6e275b8589760ea0d8631f312fe06b38647e5c6f8169d6319",
    ("n2_gamma1", "canonical"): "b0abccbc822806c89e10369c93e9134af58e804a06527cce9142dec03c1a6c63",
    ("n2_gamma1", "moved"): "b0abccbc822806c89e10369c93e9134af58e804a06527cce9142dec03c1a6c63",
    ("diag110", "canonical"): "5170d058fcb2511a1d1a5d0e5019dbcf8580349bfce877060aacb6db7aece9fd",
    ("diag110", "moved"): "5170d058fcb2511a1d1a5d0e5019dbcf8580349bfce877060aacb6db7aece9fd",
    ("h2_n1", "canonical"): "23f7e7fb33ca048b17f4ed7aab03ceca3ad88e8cbcbf259cfe67160bbc4d0324",
    ("h2_n1", "moved"): "23f7e7fb33ca048b17f4ed7aab03ceca3ad88e8cbcbf259cfe67160bbc4d0324",
    ("n3", "canonical"): "f1859fec0ef4780ef927caa642ba978e8c16f4172423dabcceb5674384952221",
    ("n3", "moved"): "f1859fec0ef4780ef927caa642ba978e8c16f4172423dabcceb5674384952221",
    ("zero3", "canonical"): "62e02a38411949b7df28e0f5a1d96063cc454e643d115bc7f02dd57d53be1561",
    ("zero3", "moved"): "62e02a38411949b7df28e0f5a1d96063cc454e643d115bc7f02dd57d53be1561",
    ("gamma1_n1", "canonical"): "c37c8649776f0a058ca91734b3870f79df9d66ffc6ce051a1954c13814cc582a",
    ("gamma1_n1", "moved"): "c37c8649776f0a058ca91734b3870f79df9d66ffc6ce051a1954c13814cc582a",
    ("zero2", "canonical"): "e05341ad8d2eaecb05eed12c804aaf18108afc8f332b52294b13e94c88b6cce8",
    ("zero2", "moved"): "e05341ad8d2eaecb05eed12c804aaf18108afc8f332b52294b13e94c88b6cce8",
    ("skew2_n1", "canonical"): "034dcb7d3c17c517cc7895ec70cc17f673ac24555df60fe747f0ec08758163d2",
    ("skew2_n1", "moved"): "034dcb7d3c17c517cc7895ec70cc17f673ac24555df60fe747f0ec08758163d2",
    ("gamma2_n1", "canonical"): "0125ada7e86baa122cdd6fe7793a5831753926cd0cfc77e17a95c3f4eb7bbf7c",
    ("gamma2_n1", "moved"): "0125ada7e86baa122cdd6fe7793a5831753926cd0cfc77e17a95c3f4eb7bbf7c",
    ("n2_n1", "canonical"): "31fddb63cff0f06bf939bb8e7af501b928c8d891ea5f6d3e41b18494a4736b4b",
    ("n2_n1", "moved"): "31fddb63cff0f06bf939bb8e7af501b928c8d891ea5f6d3e41b18494a4736b4b",
    ("id3", "canonical"): "c4cc7c002b6f77aa8d8e422393022e19fc6fa8a3f1f23f42cf80adc67fde991b",
    ("id3", "moved"): "c4cc7c002b6f77aa8d8e422393022e19fc6fa8a3f1f23f42cf80adc67fde991b",
    ("diag100", "canonical"): "9997f7c28c563084ffa797269b045fef419903b1462e724504e711acd769ba48",
    ("diag100", "moved"): "9997f7c28c563084ffa797269b045fef419903b1462e724504e711acd769ba48",
    ("h2c_gamma1", "canonical"): "70f076e93d4100d9c58eab707af8e2e1369a85c9e64bb6a147fa4031712b5a56",
    ("h2c_gamma1", "moved"): "70f076e93d4100d9c58eab707af8e2e1369a85c9e64bb6a147fa4031712b5a56",
}


@pytest.mark.parametrize("name,moved", sorted(CLASSIFY))
def test_classify_digest(name, moved, tmp_path):
    A = np.array(MATRICES[name], dtype=complex)
    if moved == "moved":
        S = _S2 if A.shape[0] == 2 else _S3
        A = S.T @ A @ S
    doc = {"n": A.shape[0], "rows": [[[z.real, z.imag] for z in row] for row in A]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert _run(["classify", "--matrix", str(path)]) == (0, CLASSIFY[(name, moved)])
