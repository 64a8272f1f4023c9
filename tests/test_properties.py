"""Property tests of the decoder contract on the GF(9) presets.

For any received word, decode either returns a codeword within distance
t of it or raises DecodingFailure; a word with at most t errors always
decodes to the sent codeword.  Any other exception fails the test.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agcodes import codec
from agcodes.errors import DecodingFailure
from agcodes.galois import ZERO

SPECS = {name: codec.preset(name) for name in codec.PRESETS}


@st.composite
def channel_words(draw, spec):
    """(sent codeword, received word, error weight) with 0..t+2 errors."""
    f = spec.field
    info = draw(st.lists(st.integers(-1, f.q - 2), min_size=spec.k, max_size=spec.k))
    sent = codec.encode_matrix_oracle(spec, info)
    weight = draw(st.integers(0, spec.t_capability + 2))
    positions = draw(
        st.lists(
            st.integers(0, spec.n - 1), min_size=weight, max_size=weight, unique=True
        )
    )
    received = list(sent)
    for pos in positions:
        received[pos] = f.add(received[pos], draw(st.integers(0, f.q - 2)))
    return sent, received, weight


@pytest.mark.parametrize("name", codec.PRESETS)
def test_decoder_contract(name):
    spec = SPECS[name]

    @settings(max_examples=120, derandomize=True, deadline=None, database=None)
    @given(channel_words(spec))
    def check(case):
        sent, received, weight = case
        try:
            word, _ = codec.decode(spec, received)
        except DecodingFailure:
            assert weight > spec.t_capability
            return
        phi_vals = codec.syndromes(spec, word)
        assert all(v == ZERO for v in phi_vals)
        assert sum(a != b for a, b in zip(word, received)) <= spec.t_capability
        if weight <= spec.t_capability:
            assert word == sent

    check()
