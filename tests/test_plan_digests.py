import hashlib

import numpy as np

from levsketch import OrderingPolicy, make_plan, scores_to_distribution
from levsketch.order import save_plan

# sha256 of each plan file that save_plan wrote for epochs 0-2 of every
# policy from pinned_scores() with seed 11. Recorded by running this test's
# loop, printing the digests instead of comparing them, on the release whose
# make_plan drew dec_swr with Generator.choice and sorted dec and dec_swor
# with np.argsort(kind="stable"): plans drawn from a seed must not change
# across versions.
PINNED_DIGESTS = {
    ("shuffle", 0): "a310f867321e1e63a390045d4d4e8ab29832d9e60af22a01db138e045605d551",
    ("shuffle", 1): "2a953277035d74944f132e21cca022a343c9fd4d29391e00268f1d84202783a8",
    ("shuffle", 2): "9b02f8670c487d7c84cd443e6b8c16d20b43b53b48edf0d45a4c574d0237cde3",
    ("dec", 0): "13da804f95de68fab7d32445cabe2ac443a44937a0a04d262568e329614a2b14",
    ("dec", 1): "13da804f95de68fab7d32445cabe2ac443a44937a0a04d262568e329614a2b14",
    ("dec", 2): "13da804f95de68fab7d32445cabe2ac443a44937a0a04d262568e329614a2b14",
    ("dec_swr", 0): "8a56cf14749adfcfcb552bccfc9d63404022137f020c8851ca18b18733db0b2d",
    ("dec_swr", 1): "43dd0d771948c2e9976b29bba7a9e12f798d44af42264f27d0466a54f031f98b",
    ("dec_swr", 2): "461d1020e8a67e8de66fbe77242c9276651ff371fdbcf20664af7950729041c5",
    ("dec_swor", 0): "7ffc66930d49855cb1a3f3ec1286944fde8f7d3dbb6c7e11448529da2046a499",
    ("dec_swor", 1): "8738fb969bc611ea3c78f2892f7d40c0ba5ac6bba6967bf9157975e3ae7d9d95",
    ("dec_swor", 2): "1dcd83f637355ddd32eefa0e764533518de741b01cdcc67bccffa1297a8ab96b",
}


def pinned_scores() -> np.ndarray:
    """Dyadic scores, so their sum and p are exact on any machine: mostly
    distinct, every third one of eight values, zero among them."""
    n = 2 * (1 << 14) + 123
    rng = np.random.default_rng(20)
    scores = rng.integers(0, 1 << 20, n) / (1 << 20)
    scores[::3] = rng.integers(0, 8, scores[::3].size) / 8
    return scores


def test_plan_bytes_are_pinned_across_versions(tmp_path):
    p = scores_to_distribution(pinned_scores())
    for (kind, epoch), digest in PINNED_DIGESTS.items():
        path = tmp_path / f"{kind}_{epoch}.txt"
        save_plan(make_plan(p, OrderingPolicy(kind, seed=11), epoch), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (kind, epoch)
