"""Loader fuzzing: a damaged dataset file loads or raises FormatError.

Single bit flips and truncations of a saved 3-sample split, whose header
(magic, five u32 words, three dims) is the first 36 bytes. A flipped
size word must not turn into a huge allocation or an overflow. The
examples are derandomized so every run checks the same files.
"""

import pytest
from hypothesis import given, settings, strategies as st

from sarl.data import (FormatError, SyntheticConfig, generate, load_dataset,
                       save_dataset)

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=300)
HEADER_BYTES = 36


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """(bytes of a 3-sample split, path to write damaged copies to)."""
    folder = tmp_path_factory.mktemp("fuzz")
    train, _ = generate(SyntheticConfig(seed=4, n_train=3, n_test=1))
    save_dataset(folder / "train.bin", train)
    return (folder / "train.bin").read_bytes(), folder / "damaged.bin"


def loads_or_format_error(path, raw):
    path.write_bytes(raw)
    try:
        load_dataset(path)
    except FormatError:
        pass


def flipped(raw, bit):
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@FUZZ
@given(bit=st.integers(0, 8 * HEADER_BYTES - 1))
def test_bit_flip_in_header(saved, bit):
    raw, path = saved
    loads_or_format_error(path, flipped(raw, bit))


@FUZZ
@given(data=st.data())
def test_bit_flip_anywhere(saved, data):
    raw, path = saved
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    loads_or_format_error(path, flipped(raw, bit))


@FUZZ
@given(data=st.data())
def test_truncation(saved, data):
    raw, path = saved
    keep = data.draw(st.integers(0, len(raw) - 1))
    path.write_bytes(raw[:keep])
    with pytest.raises(FormatError):
        load_dataset(path)
