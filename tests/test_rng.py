import numpy as np

from fqz import circuit, rng
from fqz.rng import SplitMix64, mix64, shot_seed


def test_matches_published_splitmix64_vector():
    # Reference outputs for seed 0 from the standard splitmix64 test vector.
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_same_seed_same_stream():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_floats_live_in_unit_interval():
    g = SplitMix64(99)
    for _ in range(10000):
        u = g.next_float()
        assert 0.0 <= u < 1.0


def test_mix64_stays_in_64_bits():
    for x in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEF):
        assert 0 <= mix64(x) < 2**64


def test_shot_seed_is_mix_of_xor():
    assert shot_seed(42, 0) == mix64(42)
    assert shot_seed(42, 7) == mix64(42 ^ 7)
    # neighbouring shots get unrelated seeds
    assert shot_seed(0, 1) != shot_seed(0, 2)


def scalar_draws(root_seed, first_shot, shots, depth):
    """The draws of run_circuit: the k-th measure of shot i takes
    SplitMix64(g.next_u64()).next_float(), g = SplitMix64(shot_seed(root, i))."""
    rows = []
    for i in range(first_shot, first_shot + shots):
        g = SplitMix64(shot_seed(root_seed, i))
        rows.append([SplitMix64(g.next_u64()).next_float() for _ in range(depth)])
    return rows


def test_uniforms_are_the_scalar_draws_bit_for_bit():
    # 4 roots x 78 draws per shot (depths 1-12) x 5 starts x 81 shots:
    # 126,360 draws, in blocks of 80 shots and of 1.
    for root in (0, 7, 2**63 + 11, 2**64 - 1):
        for depth in range(1, 13):
            block_edge = circuit.BLOCK_DRAWS // depth  # the first shot of the engine's second block
            for start in (0, block_edge - 40, 2**32 - 40, 2**40 + 3, 2**64 - 80):
                for shots in (80, 1):
                    got = rng.uniforms(root, start, shots, depth)
                    assert got.shape == (shots, depth) and got.dtype == np.float64
                    want = scalar_draws(root, start, shots, depth)
                    assert [[x.hex() for x in row] for row in got.tolist()] == [[x.hex() for x in row] for row in want]


def test_uniforms_of_a_block_are_its_shots_rows():
    whole = rng.uniforms(99, 1000, 40, 5)
    for s in range(40):
        assert whole[s].tobytes() == rng.uniforms(99, 1000 + s, 1, 5)[0].tobytes()
