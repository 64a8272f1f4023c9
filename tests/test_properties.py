"""Property tests of the decoder contract and the CLI exit codes on the
GF(9) presets.

For any received word, decode either returns a codeword within distance
t of it or raises DecodingFailure; a word with at most t errors always
decodes to the sent codeword.  Any other exception fails the test.

For any edit of a spec file or an array file, the CLI returns one of its
documented exit codes (0 ok, 2 bad input, 3 construction failure, 4
decoding failure) and raises nothing.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agcodes import codec
from agcodes.cli import main, word_to_rows, write_array_file
from agcodes.errors import DecodingFailure
from agcodes.galois import ZERO
from agcodes.transform import dft2

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


# -- CLI inputs ------------------------------------------------------------

# replacement and inserted tokens: small numbers, out-of-range numbers,
# pairs and triples of the spec keys, and text that is not a number
TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["5000", "x", "1.5", "0,1", "-1,-1", "0,3,0", "poly", "[basis_wp]"]),
    st.sampled_from(["@zero (-1, -1): 3", "@zero (0,0)", "# comment", "3 0"]),
)


@st.composite
def edited(draw, lines):
    """lines after 1..3 edits: replace, insert or delete a token, or
    delete a line."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        toks = lines[k].split()
        op = draw(st.sampled_from(["replace", "insert", "delete", "delete line"]))
        if op == "delete line":
            del lines[k]
            continue
        if op == "insert":
            toks.insert(draw(st.integers(0, len(toks))), draw(TOKENS))
        elif toks:
            pos = draw(st.integers(0, len(toks) - 1))
            if op == "replace":
                toks[pos] = draw(TOKENS)
            else:
                del toks[pos]
        lines[k] = " ".join(toks)
    return lines


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", codec.PRESETS)
def test_cli_edited_spec_file(tmp_path, capsys, name):
    spec_path = tmp_path / "s.spec"
    codec.save_spec(SPECS[name], str(spec_path))
    lines = spec_path.read_text().splitlines()

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(edited(lines))
    def check(text):
        _write(spec_path, text)
        assert main(["info", "--spec", str(spec_path)]) in (0, 2, 3)
        capsys.readouterr()

    check()


def test_cli_spec_with_far_leading_term(tmp_path, capsys):
    # a leading term at x^5000 once made the load scan a 5001 x 5001 box
    spec_path = tmp_path / "s.spec"
    codec.save_spec(SPECS["hermitian-q9"], str(spec_path))
    lines = spec_path.read_text().splitlines()
    k = lines.index("[basis_all]") + 3
    assert lines[k] == "0 3 0"
    lines[k] = "5000 3 0"
    _write(spec_path, lines)
    start = time.perf_counter()
    assert main(["info", "--spec", str(spec_path)]) == 2
    assert time.perf_counter() - start < 5
    assert "[basis_all] token '5000 3 0'" in capsys.readouterr().err


def _array_inputs(spec):
    """(command, rows) for the encode, decode and groebner input files: the
    information, a word with one error, and its full syndrome array."""
    info = [v % 9 - 1 for v in range(spec.k)]
    word = codec.encode_systematic(spec, info)
    received = list(word)
    received[0] = spec.field.add(received[0], 3)
    rx_rows = word_to_rows(spec, received)
    if spec.kind == "rs":
        return [("encode", [info]), ("decode", rx_rows), ("groebner", rx_rows)]
    info_rows = word_to_rows(spec, [ZERO] * spec.n)
    for p, v in zip(spec.wp_prime, info):
        info_rows[p.x][p.y] = v
    syn = dft2(spec.field, rx_rows)
    return [("encode", info_rows), ("decode", rx_rows), ("groebner", syn)]


@pytest.mark.parametrize("name", codec.PRESETS)
def test_cli_edited_array_file(tmp_path, capsys, name):
    spec = SPECS[name]
    q = spec.field.q
    path, out = tmp_path / "in.arr", str(tmp_path / "out.arr")
    argv = {
        "encode": ["encode", "--in", str(path), "--out", out],
        "decode": ["decode", "--in", str(path), "--out", out, "--info-out", out + ".i"],
        "groebner": ["groebner", "--ideal", "errors", "--syndromes", str(path)],
    }
    inputs = []
    for command, rows in _array_inputs(spec):
        write_array_file(str(path), q, rows)
        inputs.append((command, path.read_text().splitlines()))

    @st.composite
    def edited_input(draw):
        command, lines = draw(st.sampled_from(inputs))
        return command, draw(edited(lines))

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(edited_input())
    def check(case):
        command, text = case
        _write(path, text)
        assert main(argv[command] + ["--preset", name]) in (0, 2, 3, 4)
        capsys.readouterr()

    check()
