import struct
import tracemalloc

import numpy as np
import pytest

from levsketch import (
    SyntheticSpec,
    as_matrix,
    gen_synthetic,
    load_matrix,
    save_matrix,
    singular_values,
)
from levsketch.errors import CapacityError, ConfigurationError, FormatError, ParseError
from levsketch.matrix import _SYNTH_STREAM


def numerical_rank(a: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Number of singular values above ``rel_tol`` times the largest."""
    sv = singular_values(a)
    if sv[0] == 0:
        return 0
    return int(np.count_nonzero(sv > rel_tol * sv[0]))


def test_csv_identity_contents(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1,0\n0,1\n")
    m = load_matrix(path)
    assert m.shape == (2, 2)
    assert np.array_equal(m, np.eye(2))


def test_csv_ragged_row_rejected(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1,2\n1,2,3\n")
    with pytest.raises(FormatError, match="line 2"):
        load_matrix(path)


def test_csv_non_numeric_field_location(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError, match="line 2, column 2"):
        load_matrix(path)


def test_csv_missing_value_rejected(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1,\n2,3\n")
    with pytest.raises(ParseError):
        load_matrix(path)


def test_csv_header_skip(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("colx,coly\n5,6\n")
    m = load_matrix(path, header=True)
    assert np.array_equal(m, [[5.0, 6.0]])


def test_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1,nan\n")
    with pytest.raises(FormatError, match="finite"):
        load_matrix(path)


def test_single_zero_roundtrip(tmp_path):
    m = np.zeros((1, 1))
    for fmt, name in (("binary", "z.bin"), ("csv", "z.csv")):
        path = tmp_path / name
        save_matrix(m, path, fmt)
        assert np.array_equal(load_matrix(path), m)


def test_binary_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((17, 5)) * 10.0 ** rng.integers(-200, 200, (17, 5))
    m = as_matrix(m)
    path = tmp_path / "m.bin"
    save_matrix(m, path, "binary")
    back = load_matrix(path)
    assert back.shape == m.shape
    assert np.array_equal(back, m)


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(1)
    m = as_matrix(rng.standard_normal((20, 7)))
    path = tmp_path / "m.csv"
    save_matrix(m, path, "csv")
    back = load_matrix(path)
    # %.17g round-trips float64 exactly, which is stronger than the 1-ulp contract
    assert np.array_equal(back, m)


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\0" * 20)
    with pytest.raises(FormatError, match="magic"):
        load_matrix(path, "binary")


def test_load_reads_the_format_from_the_file(tmp_path):
    m = as_matrix(np.arange(12.0).reshape(4, 3) / 7)
    save_matrix(m, tmp_path / "x.csv")  # binary, the default
    save_matrix(m, tmp_path / "y.bin", "csv")
    assert np.array_equal(load_matrix(tmp_path / "x.csv"), m)
    assert np.array_equal(load_matrix(tmp_path / "y.bin"), m)


def test_csv_that_is_not_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"1,2\n3,\xe9\n")
    with pytest.raises(FormatError, match="not UTF-8"):
        load_matrix(path)


def test_binary_rejects_truncation(tmp_path):
    m = as_matrix(np.ones((4, 4)))
    path = tmp_path / "m.bin"
    save_matrix(m, path, "binary")
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError, match="expected"):
        load_matrix(path, "binary")


def test_as_matrix_validation():
    with pytest.raises(FormatError):
        as_matrix(np.zeros(3))
    with pytest.raises(FormatError):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(FormatError):
        as_matrix([[1.0, np.inf]])


def test_synthetic_spec_validation():
    with pytest.raises(ConfigurationError):
        SyntheticSpec(n=10, d=5, rank=6)
    with pytest.raises(ConfigurationError):
        SyntheticSpec(n=10, d=5, rank=0)
    with pytest.raises(ConfigurationError):
        SyntheticSpec(n=10, d=5, rank=3, noise_sigma=-1.0)


def test_synthetic_full_rank():
    a = gen_synthetic(SyntheticSpec(n=100, d=10, rank=10, seed=7))
    assert a.shape == (100, 10)
    assert numerical_rank(a, 1e-8) == 10


def test_synthetic_rank_deficient():
    a = gen_synthetic(SyntheticSpec(n=100, d=10, rank=5, seed=7))
    assert numerical_rank(a, 1e-8) == 5
    sv = singular_values(a)
    assert sv[5] < 1e-10 * sv[0]


def test_synthetic_noise_fills_rank():
    # small high-rank noise makes the matrix look full rank, with the extra
    # singular values confined to a band set by the noise level
    a = gen_synthetic(SyntheticSpec(n=100, d=10, rank=5, noise_sigma=0.01, seed=7))
    sv = singular_values(a)
    assert (sv > 0).all()
    band = 0.01 * (np.sqrt(100) + np.sqrt(10))
    assert (sv[5:] <= 1.5 * band).all()
    assert sv[4] > 10 * band


def test_synthetic_deterministic():
    spec = SyntheticSpec(n=50, d=8, rank=4, noise_sigma=0.3, seed=123)
    assert np.array_equal(gen_synthetic(spec), gen_synthetic(spec))
    other = gen_synthetic(SyntheticSpec(n=50, d=8, rank=4, noise_sigma=0.3, seed=124))
    assert not np.array_equal(gen_synthetic(spec), other)


def test_synthetic_memory_cap_covers_what_generation_allocates(monkeypatch):
    spec = SyntheticSpec(n=4096, d=256, rank=128, noise_sigma=0.1, seed=3)
    # G1, G2, A and the noise draw as doubles, plus the finiteness mask
    need = 8 * ((4096 + 256) * 128 + 2 * 4096 * 256) + 4096 * 256
    tracemalloc.start()
    try:
        a = gen_synthetic(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([_SYNTH_STREAM, 3])))
    g1 = rng.standard_normal((4096, 128))
    g2 = rng.standard_normal((128, 256))
    assert np.array_equal(a, g1 @ g2 + 0.1 * rng.standard_normal((4096, 256)))

    def refuse(*args, **kwargs):
        raise AssertionError("a draw ran despite the memory cap")

    monkeypatch.setattr(np.random, "Philox", refuse)
    monkeypatch.setenv("LVSK_MEM_CAP", str(need - 1))
    with pytest.raises(CapacityError):
        gen_synthetic(spec)


def test_synthetic_memory_cap(monkeypatch):
    monkeypatch.setenv("LVSK_MEM_CAP", "1000000")
    with pytest.raises(CapacityError):
        gen_synthetic(SyntheticSpec(n=10_000, d=10_000, rank=5, seed=0))


def test_mem_cap_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("LVSK_MEM_CAP", "1000")
    with pytest.raises(CapacityError):
        gen_synthetic(SyntheticSpec(n=100, d=100, rank=5, seed=0))
    monkeypatch.setenv("LVSK_MEM_CAP", "notanumber")
    with pytest.raises(ConfigurationError):
        gen_synthetic(SyntheticSpec(n=100, d=100, rank=5, seed=0))


def test_binary_header_is_checked_against_the_cap_before_reading(tmp_path, monkeypatch):
    # a header claiming 2^40 x 2^10 values, with no payload behind it
    path = tmp_path / "huge.bin"
    path.write_bytes(struct.pack("<4sIQQ", b"LVSK", 1, 2**40, 2**10))
    with pytest.raises(CapacityError):
        load_matrix(path)
    small = tmp_path / "a.bin"
    save_matrix(np.ones((100, 4)), small)
    monkeypatch.setenv("LVSK_MEM_CAP", str(8 * 100 * 4 - 1))
    with pytest.raises(CapacityError):
        load_matrix(small)
    monkeypatch.setenv("LVSK_MEM_CAP", str(8 * 100 * 4))
    assert load_matrix(small).shape == (100, 4)


def test_csv_rows_are_counted_against_the_cap_while_parsing(tmp_path, monkeypatch):
    path = tmp_path / "a.csv"
    save_matrix(np.ones((100, 4)), path, "csv")
    per_row = 40 * 4 + 64  # a Python float, list slot and array entry per value; a list per row
    monkeypatch.setenv("LVSK_MEM_CAP", str(100 * per_row - 1))
    with pytest.raises(CapacityError):
        load_matrix(path)
    monkeypatch.setenv("LVSK_MEM_CAP", str(100 * per_row))
    assert load_matrix(path).shape == (100, 4)
