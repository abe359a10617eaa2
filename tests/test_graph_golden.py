"""Golden digests of every similarity closure graph the CLI draws for n <= 8,
and the order facts the bitset graph engine relies on.

The sha256 values were taken from the CLI output of the pairwise-closure
engine (a DFS from every vertex, an O(k^3) Hasse reduction) before the
graph engine moved to bitsets; any change to a vertex, an edge, their order
or the formatting changes a digest.
"""

import contextlib
import hashlib
import io

import pytest

from matstrata import (
    bundle_dim,
    bundle_down_moves,
    bundle_types,
    conjugate_partition,
    graphs,
    partitions,
)
from matstrata.graphs import partition_closure_leq
from matstrata.cli import run

GOLDEN = {
    # graph bundle
    ("bundle", 1, "json"): "bbb53d41e0577799798f54cd8ec3652a2618221d155e6de0bbb5d57e149b8dfe",
    ("bundle", 1, "dot"): "daf13596ce32ffd6e45c6402a9bc7e03d2db3112e660f489dd3b76724e9efed3",
    ("bundle", 2, "json"): "3102dbb955106f469ff4d19a2230c2e063e6b9a6cb5289b0a73d71eb0d5b1160",
    ("bundle", 2, "dot"): "66bafc0cca64c2c679324e1283a26c47305af3d96695aa9b604da14be9d9e29c",
    ("bundle", 3, "json"): "aae1e1bec6b09fa1743fbb415a227a0cdb3348cb5b752ce818d09a6f3a419d4b",
    ("bundle", 3, "dot"): "8f6ebec9e4ed3b9ad92ddcc6ada53c6c61816c72f60d7462555655edaf440554",
    ("bundle", 4, "json"): "ed44d2f56ab0689850cb535a08d179594ac8be5b7a764d2f5f2da4ffdda6e7ed",
    ("bundle", 4, "dot"): "b43c9d4d1c3e636452b05374cb7a4a11ca553ea3b1c49e8ae520e069b7abd563",
    ("bundle", 5, "json"): "9f11146677c3b952823bc2e4c2fce2327fb8332ca9d195d432fd77468e1b7a93",
    ("bundle", 5, "dot"): "2adc8da5442cb20c88ceea36b32512678282f630a69e94b283dbd73ad4961df6",
    ("bundle", 6, "json"): "130b27c6e20d6d474e1023a9a5ffdcf4709d28c9235e8f03bf51f5015a4c1727",
    ("bundle", 6, "dot"): "212989dbb2a3be75e0ecee55d0ec0936282a43c4b0c08951d200f885f2606419",
    ("bundle", 7, "json"): "7e4587fc821440b1888b7e2fe233de18a5a53bb5c68ef5158dfccc980187e89d",
    ("bundle", 7, "dot"): "d3664a277698b8b861a8885414fa64775a31645c7fe06b991a9d301578a45485",
    ("bundle", 8, "json"): "bf6d778840d3620823c420d7f1d95cb568233a79791017cad4dec12dececbd76",
    ("bundle", 8, "dot"): "c13ad2984a6f3068dbaed02aa61ec328c42ad093f0d3d14d05dad60058308b0d",
    # graph sim
    ("sim", 1, "json"): "39edcbcce6810ee239f17e0cc01336dc10bc62384198b939745e74d6c2b132cc",
    ("sim", 1, "dot"): "b1fcb92473eb0670da22e9a710d83fa81979de1066fc7f6744493f548bab2d1a",
    ("sim", 2, "json"): "742e31d611eeed81bfab25162899b3e89afc8e2ba1aa4cd7d56f46bdac0bc902",
    ("sim", 2, "dot"): "26779e87852da8e1381b31ede8b080e545d3fde0d6a06c3db160c821fb06eb83",
    ("sim", 3, "json"): "d6aa768d960156bd30a8bba179ff7dfb6e81944e4d56ea31dd70d4042652051e",
    ("sim", 3, "dot"): "baf8c4438b75eb71e41e6fb4ecfd6f2805b3fbfb2e86a68c36c6c2845fb5c142",
    ("sim", 4, "json"): "668759a827bc1bd063b15bc203dc5b1d7e89fbdf9e8accaa33fa531ec5982aca",
    ("sim", 4, "dot"): "c49c64b024a41bb2f49a6212264b975be3b8cb7a8680cbf7b9b3f7a8c78ebdcf",
    ("sim", 5, "json"): "ceb660a530d3f5b46fa38bea87d3166e2cd27c593134e3757133bdff425152f5",
    ("sim", 5, "dot"): "d09798fa468ea3d537f7ac6fe912807472404120d145b1435aa4e305a0c35378",
    ("sim", 6, "json"): "99603bb33bca50f18a4b5643c80ab4bfa220bbffd8678d696187e7481e6f1f9c",
    ("sim", 6, "dot"): "1508150b4ba2697be7687c01207c423b430816e6ccaea12d32cb30ebe5340719",
    ("sim", 7, "json"): "3471a5b6d2f402466d711c0b786c4f3c3e083ef2aeb13f460a0570da42a45144",
    ("sim", 7, "dot"): "41d0d3349c9bc1313d9887283195c1c7978f8a245887e13a74cc5b7946907a5b",
    ("sim", 8, "json"): "c446d43b0c7a26a357632326d076f95b7f4e7ca41386442fc6e0ebdcdd52723a",
    ("sim", 8, "dot"): "c5e4036f2c0b71e969b69fc662c16c1f97286729a2bc1399dc810f9abf764e8f",
    # graph sim --nilpotent
    ("sim --nilpotent", 1, "json"): "fd6b942870b690bfa258f4d45ef5a6bc8f621e1928189b615d7651d06c42edbb",
    ("sim --nilpotent", 1, "dot"): "f9331280088feff6d786b105db86c8c50eb7c7cbaf7363f239cf08adfeb03f2d",
    ("sim --nilpotent", 2, "json"): "daf8c35eb90b890f7167f6ffb20fe0950d28531815ff63a2bdf606d2506df78b",
    ("sim --nilpotent", 2, "dot"): "3dc7623e2971ba14620d6b91af584372b79df3da28b87d24656440905ef28ad1",
    ("sim --nilpotent", 3, "json"): "d8f4f12b7250f9d24bc965471c20924f0e7f0f69c4dbdef2a9cc53ff4079b6ee",
    ("sim --nilpotent", 3, "dot"): "9a0accf81c7f4c8359f56f68df88fe98b38428bd7315139bf477f3caff8c7161",
    ("sim --nilpotent", 4, "json"): "1197d560164d20e31562b930d42459344ee1b77985cbc7c12c6c7279027cac55",
    ("sim --nilpotent", 4, "dot"): "cd448b5d3a25c12f7d68e1a60748d616fd99ba57c7ef1125c01b139427756e8a",
    ("sim --nilpotent", 5, "json"): "0e154c0c42c17526215a1329ff7d71ec68b1322ed7d9bf1ea69f7631a8aa3530",
    ("sim --nilpotent", 5, "dot"): "e8868dd282113155ad70543e94ca29f7883ae42ee680cf76d8461e4dbfa85379",
    ("sim --nilpotent", 6, "json"): "d2e391e5082b2cbeabf6f9a64261bd4ecffa89caadb18654fbfef68ce4d02f3f",
    ("sim --nilpotent", 6, "dot"): "67ebf0321520a75e57327cbe426ae94306102b13c2d7f8d81004754deb7aee6f",
    ("sim --nilpotent", 7, "json"): "d9390791a31aadb4392a89c36a9ca6b9d03d99aedf2b86e7482ea754f0413563",
    ("sim --nilpotent", 7, "dot"): "5f938a16e86d344a69c73e8bb3a635217e32982dc024eda088107373ccfcfbc2",
    ("sim --nilpotent", 8, "json"): "242530f98b283a64fc7520d702554539e7f453afcdf6df49a38328df5118a9e4",
    ("sim --nilpotent", 8, "dot"): "7b264464d5edef12ef003765f355746d4736a2694e56ead49ac5201d7a43b99b",
}


@pytest.mark.parametrize("what,n,fmt", sorted(GOLDEN))
def test_graph_output_digest(what, n, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["graph", *what.split(), "--n", str(n), "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[(what, n, fmt)]


@pytest.mark.parametrize("n", range(1, 9))
def test_down_moves_lower_bundle_dim(n):
    for b in bundle_types(n):
        for d in bundle_down_moves(b):
            assert bundle_dim(d) < bundle_dim(b), (b, d)


@pytest.mark.parametrize("n", range(1, 11))
def test_closure_leq_is_reversed_dominance(n):
    # closure order is dominance of the conjugates, which reverses dominance
    for q in partitions(n):
        for p in partitions(n):
            conj = graphs._prefix_dominates(
                conjugate_partition(q).parts, conjugate_partition(p).parts
            )
            assert partition_closure_leq(q, p) == conj, (q, p)


def test_upward_down_move_is_refused(monkeypatch):
    real = graphs._key_moves
    top = max(bundle_types(3), key=bundle_dim)
    top_key = tuple(p.parts for _, p in top.entries)
    monkeypatch.setattr(graphs, "_key_moves", lambda key, merge: real(key, merge) + (top_key,))
    with pytest.raises(RuntimeError, match="bundle-dimension order"):
        graphs.build_bundle_graph(3)
