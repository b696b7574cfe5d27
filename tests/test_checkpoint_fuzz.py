"""Loader fuzzing: a damaged checkpoint loads or raises FormatError.

Single bit flips and truncations of a saved default checkpoint. The
examples are derandomized so every run checks the same files.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sarl.data import FormatError
from sarl.head import build_model, load_checkpoint, save_checkpoint
from sarl.training import TrainConfig, model_config

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=300)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """(bytes of a default checkpoint, path to write damaged copies to)."""
    folder = tmp_path_factory.mktemp("fuzz")
    model = build_model(model_config(TrainConfig()), seed=0, dtype=np.float32)
    save_checkpoint(folder / "model.ckpt", model)
    return (folder / "model.ckpt").read_bytes(), folder / "damaged.ckpt"


def loads_or_format_error(path, raw):
    path.write_bytes(raw)
    try:
        load_checkpoint(path)
    except FormatError:
        pass


def flipped(raw, bit):
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@FUZZ
@given(bit=st.integers(0, 8 * 400 - 1))
def test_bit_flip_in_header(saved, bit):
    # the first 400 bytes hold the header, the manifest and the first names
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
        load_checkpoint(path)
