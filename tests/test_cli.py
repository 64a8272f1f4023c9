import hashlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from agcodes import codec
from agcodes.bms import vanishing_ideal_basis
from agcodes.cli import (
    Xorshift64Star,
    main,
    read_array_file,
    run_simulation,
    write_array_file,
)
from agcodes.galois import ZERO, gf9
from agcodes.geometry import eval_poly
from agcodes.transform import Array2D, dft2

F9 = gf9()


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_info_file(path, spec, values, trailer=()):
    grid = [[ZERO] * 8 for _ in range(8)]
    for p, v in zip(spec.wp_prime, values):
        grid[p.x][p.y] = v
    write_array_file(str(path), 9, grid, trailer)


def test_xorshift_reference_sequence():
    rng = Xorshift64Star(1)
    first = [rng.next_u64() for _ in range(3)]
    rng2 = Xorshift64Star(1)
    assert [rng2.next_u64() for _ in range(3)] == first
    assert Xorshift64Star(0).state == 0x9E3779B97F4A7C15
    assert all(0 <= Xorshift64Star(5).below(n) < n for n in (2, 8, 9, 24))


def test_info_command(capsys):
    code, out, _ = run(["info", "--preset", "hermitian-q9"], capsys)
    assert code == 0
    assert "n=24 k=15" in out
    code, out, _ = run(["info", "--preset", "hcrs-q9"], capsys)
    assert code == 0
    assert "n=64 k=44" in out


def test_info_m_too_small(capsys):
    code, _, err = run(["info", "--preset", "hermitian-q9", "--m", "3"], capsys)
    assert code == 2
    assert err.startswith("MTooSmall")


def test_info_needs_spec_or_preset(capsys):
    code, _, err = run(["info"], capsys)
    assert code == 2
    assert err.startswith("ValueError")


def test_info_raw_field_parameters(capsys):
    code, out, _ = run(
        [
            "info",
            "--field", "3,2,2,1,1",
            "--kind", "curve",
            "--curve", "3,4,0:3:0,0:1:0,4:0:4",
            "--m", "11",
        ],
        capsys,
    )
    assert code == 0
    assert "n=24 k=15" in out
    code, out, _ = run(
        ["info", "--field", "3,2,2,1,1", "--kind", "rs", "--r", "4"], capsys
    )
    assert code == 0
    assert "n=8 k=4" in out
    # non-primitive polynomial -> construction failure exit code
    code, _, err = run(
        ["info", "--field", "3,2,1,0,1", "--kind", "rs", "--r", "4"], capsys
    )
    assert code == 3
    assert err.startswith("NonPrimitivePolynomial")


def test_info_field_above_size_limit(capsys):
    # GF(2^12) would need 4096 x 4096 arithmetic tables: refused, exit 2
    field = "2,12,1,1,0,0,1,0,1,0,0,0,0,0,1"
    code, _, err = run(["info", "--field", field, "--kind", "rs", "--r", "4"], capsys)
    assert code == 2
    assert err.startswith("ValueError") and "256" in err


@pytest.mark.parametrize("field", ["3,0,1", "0,2,2,1,1"])
def test_info_degenerate_field(capsys, field):
    code, _, err = run(["info", "--field", field, "--kind", "rs", "--r", "4"], capsys)
    assert code == 2
    assert err.startswith("ValueError") and "p >= 2" in err


def test_info_composite_p(capsys):
    # bad input (exit 2), not a construction failure (exit 3)
    code, _, err = run(["info", "--field", "4,2,2,1,1", "--kind", "rs", "--r", "4"], capsys)
    assert code == 2
    assert err.startswith("ValueError") and "p=4 is not prime" in err


@pytest.mark.parametrize(
    "flag, value, token",
    [("--curve", "3", "'3'"), ("--curve", "3,4,0:3", "'0:3'"), ("--field", "3,2,x", "'x'")],
    ids=["curve-too-short", "curve-term-two-numbers", "field-not-a-number"],
)
def test_info_malformed_flag_names_flag_and_token(capsys, flag, value, token):
    # as a spec file does for its keys, the message names the flag and token
    argv = ["info", "--field", "3,2,2,1,1", "--kind", "curve", "--m", "11", flag, value]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("ValueError") and flag in err and token in err


FIELD9 = ["--field", "3,2,2,1,1"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["info", "--preset", "rs-q9", "--m", "5"], "m"),
        (["info", "--preset", "hermitian-q9", "--r", "3"], "r"),
        (["info", "--preset", "hcrs-q9", "--r", "3"], "r"),
        (["info", "--preset", "hcrs-q9", *FIELD9], "--field"),
        (["info", "--spec", "SPEC", "--m", "5"], "--m"),
        (["info", "--spec", "SPEC", "--preset", "rs-q9"], "--preset"),
        (["info", *FIELD9, "--kind", "hcrs", "--m", "9", "--curve", "3,4,0:3:0"], "--curve"),
        (["info", *FIELD9, "--kind", "hcrs", "--m", "9", "--r", "4"], "--r"),
        (["info", *FIELD9, "--kind", "rs", "--r", "4", "--m", "5"], "--m"),
        (["info", *FIELD9, "--kind", "curve", "--m", "11", "--r", "4",
          "--curve", "3,4,0:3:0,0:1:0,4:0:4"], "--r"),
        (["simulate", "--preset", "rs-q9", "--errors", "1", "--trials", "-3"], "--trials"),
    ],
    ids=[
        "rs-preset-m", "hermitian-preset-r", "hcrs-preset-r", "preset-field",
        "spec-m", "spec-preset", "hcrs-curve", "hcrs-r", "rs-m", "curve-r",
        "negative-trials",
    ],
)
def test_flag_the_code_source_does_not_read_is_rejected(tmp_path, capsys, argv, flag):
    # a flag that would be silently ignored is malformed input
    spec_path = tmp_path / "rs.spec"
    codec.save_spec(codec.preset("rs-q9"), str(spec_path))
    argv = [str(spec_path) if a == "SPEC" else a for a in argv]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("ValueError") and flag in err


@pytest.mark.parametrize(
    "terms, message",
    [("0:3:0,0:1:0,4:0:44", "element log"), ("0:3:0,0:1:0,4:0:4,-1:0:0", "negative")],
    ids=["coefficient-above-range", "negative-exponent"],
)
def test_info_curve_checked_against_field(capsys, terms, message):
    argv = ["info", "--field", "3,2,2,1,1", "--kind", "curve", "--m", "11"]
    code, _, err = run(argv + ["--curve", "3,4," + terms], capsys)
    assert code == 2
    assert err.startswith("ValueError") and message in err


def test_build_and_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "h.spec"
    code, _, _ = run(["build", "--preset", "hermitian-q9", "--out", str(spec_path)], capsys)
    assert code == 0
    code, out, _ = run(["info", "--spec", str(spec_path)], capsys)
    assert code == 0
    assert "n=24 k=15" in out


@pytest.mark.parametrize(
    "name, raw",
    [
        ("hermitian-q9", ["--kind", "curve", "--curve", "3,4,0:3:0,0:1:0,4:0:4", "--m", "11"]),
        ("hcrs-q9", ["--kind", "hcrs", "--m", "9"]),
        ("rs-q9", ["--kind", "rs", "--r", "4"]),
    ],
)
def test_raw_build_equals_preset_build(tmp_path, capsys, name, raw):
    # the raw flags and the preset reach the same constructor through
    # codec.make_code, so the spec files agree byte for byte
    raw_path, preset_path = tmp_path / "raw.spec", tmp_path / "preset.spec"
    argv = ["build", "--field", "3,2,2,1,1", *raw, "--out", str(raw_path)]
    assert run(argv, capsys)[0] == 0
    assert run(["build", "--preset", name, "--out", str(preset_path)], capsys)[0] == 0
    assert raw_path.read_bytes() == preset_path.read_bytes()


@pytest.mark.parametrize(
    "name, drop",
    [("hermitian-q9", key) for key in ("field", "kind", "m", "points", "wp", "curve")]
    + [("rs-q9", "r")]
    + [("hermitian-q9", sec) for sec in ("[basis_wp]", "[basis_all]")],
)
def test_spec_missing_key_or_section(tmp_path, capsys, name, drop):
    spec_path = tmp_path / "s.spec"
    codec.save_spec(codec.preset(name), str(spec_path))
    lines = spec_path.read_text().splitlines()
    if drop.startswith("["):
        start = lines.index(drop)
        end = next(
            (k for k in range(start + 1, len(lines)) if lines[k].startswith("[")),
            len(lines),
        )
        del lines[start:end]
    else:
        lines = [line for line in lines if line.split(" ", 1)[0] != drop]
    spec_path.write_text("\n".join(lines) + "\n")
    code, _, err = run(["info", "--spec", str(spec_path)], capsys)
    assert code == 2
    assert err.startswith("ValueError")
    assert drop.strip("[]") in err


@pytest.mark.parametrize(
    "key, edit, message",
    [
        ("wp", lambda v: v.rsplit(" ", 1)[0] + " 24", "wp token '24' at position 8"),
        ("wp", lambda v: v + " 0", "wp token '0' at position 9"),
        ("points", lambda v: "0,1,5" + v[3:], "points token '0,1,5' at position 0"),
        ("points", lambda v: "0,8" + v[3:], "points token '0,8' at position 0"),
        ("zero_points", lambda v: "-2,-1" + v[5:], "zero_points token '-2,-1' at position 0"),
        ("kind", lambda v: "foo", "unknown kind"),
        ("curve", lambda v: "2 4" + v[3:], "gcd"),
        ("curve", lambda v: v.replace("0,3,0 ", ""), "y^3"),
        ("curve", lambda v: v.replace("0,1,0", "0,1,9"), "element log"),
        ("curve", lambda v: v + " 0,1", "curve token '0,1'"),
        ("curve", lambda v: v + " 0,x,1", "curve token '0,x,1'"),
        ("curve", lambda v: "3", "curve needs"),
        ("field", lambda v: "3 z" + v[3:], "field token 'z'"),
        ("field", lambda v: "3", "field needs"),
        ("m", lambda v: "11.5", "m token '11.5'"),
        ("points", lambda v: "0,y" + v[3:], "points token '0,y'"),
        ("zero_points", lambda v: "a,-1" + v[5:], "zero_points token 'a,-1'"),
        ("wp", lambda v: v + " x", "wp token 'x'"),
        ("points", lambda v: "0,0" + v[3:], "points token '0,0' at position 0"),
        ("points", lambda v: "1,0 " + v, "points token '1,0' at position 0"),
        ("points", lambda v: "-1,-1" + v[3:], "points token '-1,-1' at position 0"),
        ("zero_points", lambda v: "0,4" + v[5:], "zero_points token '0,4' at position 0"),
        ("zero_points", lambda v: "-1,0" + v[5:], "zero_points token '-1,0' at position 0"),
        (
            "[basis_wp]",
            lambda v: _bump_tail_coefficient(v),
            "[basis_wp] token '3 0 7' at position 3",
        ),
        (
            "[basis_all]",
            lambda v: _bump_tail_coefficient(v),
            "[basis_all] token '4 0 5' at position 3",
        ),
        ("[basis_wp]", lambda v: _drop_last_poly(v), "[basis_wp] token None at position 23"),
        ("[basis_all]", lambda v: _drop_last_poly(v), "[basis_all] token None at position 5"),
        (
            "[basis_wp]",
            lambda v: v.replace("4 0 0", "4 0 0 7", 1),
            "[basis_wp] token '4 0 0 7' at position 2",
        ),
    ],
    ids=[
        "wp-past-end",
        "wp-duplicate",
        "point-three-coords",
        "point-above-range",
        "zero-point-below-range",
        "kind-unknown",
        "curve-not-coprime",
        "curve-no-leading-term",
        "curve-coefficient-above-range",
        "curve-term-two-numbers",
        "curve-term-not-a-number",
        "curve-no-terms",
        "field-not-a-number",
        "field-too-short",
        "m-not-a-number",
        "point-not-a-number",
        "zero-point-not-a-number",
        "wp-not-a-number",
        "point-off-curve",
        "point-repeated",
        "point-zero-coordinate",
        "zero-point-nonzero-coordinates",
        "zero-point-off-curve",
        "basis-wp-wrong-coefficient",
        "basis-all-wrong-coefficient",
        "basis-wp-staircase-too-large",
        "basis-all-staircase-too-large",
        "basis-wp-malformed-term",
    ],
)
def test_spec_malformed_value(tmp_path, capsys, key, edit, message):
    spec_path = tmp_path / "s.spec"
    codec.save_spec(codec.preset("hermitian-q9"), str(spec_path))
    lines = spec_path.read_text().splitlines()
    if key.startswith("["):
        start = lines.index(key) + 1
        end = next(
            (k for k in range(start, len(lines)) if lines[k].startswith("[")),
            len(lines),
        )
        lines[start:end] = edit("\n".join(lines[start:end])).splitlines()
    else:
        for k, line in enumerate(lines):
            head, _, rest = line.partition(" ")
            if head == key:
                lines[k] = f"{key} {edit(rest)}"
    spec_path.write_text("\n".join(lines) + "\n")
    code, _, err = run(["info", "--spec", str(spec_path)], capsys)
    assert code == 2
    assert err.startswith("ValueError")
    assert message in err
    assert str(spec_path) in err


def _bump_tail_coefficient(section):
    """Change the coefficient of the second term of the first polynomial."""
    lines = section.splitlines()
    k = lines.index("poly") + 2
    i, j, c = lines[k].split()
    lines[k] = f"{i} {j} {(int(c) + 1) % 8}"
    return "\n".join(lines)


def _drop_last_poly(section):
    lines = section.splitlines()
    return "\n".join(lines[: len(lines) - 1 - lines[::-1].index("poly")])


def test_spec_nongeneric_redundant_points(tmp_path, capsys):
    # points 0..8 lie on three x-lines; their point ideal's staircase is
    # not the defining set, so they cannot be the redundant points, and
    # the load rejects wp where it leaves the greedy choice of the rebuild
    spec = codec.preset("hermitian-q9")
    wp = spec.points[:9]
    basis = vanishing_ideal_basis(wp, spec.order, F9)
    assert set(basis.delta) != set(spec.phi)
    spec_path = tmp_path / "s.spec"
    codec.save_spec(spec, str(spec_path))
    lines = spec_path.read_text().splitlines()
    start, end = lines.index("[basis_wp]") + 1, lines.index("[basis_all]")
    lines[start:end] = basis.serialize().splitlines()
    lines[lines.index("wp 0 1 2 3 4 5 6 7 9")] = "wp 0 1 2 3 4 5 6 7 8"
    spec_path.write_text("\n".join(lines) + "\n")
    code, _, err = run(["info", "--spec", str(spec_path)], capsys)
    assert code == 2
    assert err.startswith("ValueError")
    assert "wp token '8' at position 8" in err and str(spec_path) in err


@pytest.mark.parametrize("field", ["3 0 1", "0 2 2 1 1"])
def test_spec_degenerate_field(tmp_path, capsys, field):
    spec_path = tmp_path / "s.spec"
    codec.save_spec(codec.preset("rs-q9"), str(spec_path))
    text = spec_path.read_text().replace("field 3 2 2 1 1", f"field {field}")
    spec_path.write_text(text)
    code, _, err = run(["info", "--spec", str(spec_path)], capsys)
    assert code == 2
    assert err.startswith("ValueError") and "p >= 2" in err and str(spec_path) in err


def test_rs_spec_malformed_r(tmp_path, capsys):
    spec_path = tmp_path / "s.spec"
    codec.save_spec(codec.preset("rs-q9"), str(spec_path))
    text = spec_path.read_text().replace("r 4", "r four")
    spec_path.write_text(text)
    code, _, err = run(["info", "--spec", str(spec_path)], capsys)
    assert code == 2
    assert err.startswith("ValueError")
    assert "r token 'four'" in err and str(spec_path) in err


def test_encode_decode_roundtrip(tmp_path, capsys):
    spec = codec.preset("hermitian-q9")
    rng = random.Random(1)
    info = [rng.randrange(-1, 8) for _ in range(spec.k)]
    infofile = tmp_path / "info.arr"
    write_info_file(infofile, spec, info)
    codefile = tmp_path / "code.arr"
    code, _, _ = run(
        ["encode", "--preset", "hermitian-q9", "--in", str(infofile), "--out", str(codefile)],
        capsys,
    )
    assert code == 0
    check = (tmp_path / "code.arr.check").read_text().split()
    assert check == ["-1"] * 9

    # systematic output carries the info at the information point cells
    rows, _ = read_array_file(str(codefile), 9)
    for p, v in zip(spec.wp_prime, info):
        assert rows[p.x][p.y] == v

    decfile, backfile = tmp_path / "dec.arr", tmp_path / "back.arr"
    code, _, _ = run(
        [
            "decode", "--preset", "hermitian-q9",
            "--in", str(codefile), "--out", str(decfile), "--info-out", str(backfile),
        ],
        capsys,
    )
    assert code == 0
    assert read_array_file(str(decfile), 9)[0] == rows
    back, _ = read_array_file(str(backfile), 9)
    got = [back[p.x][p.y] for p in spec.wp_prime]
    assert got == info


def test_decode_corrects_three_errors(tmp_path, capsys):
    spec = codec.preset("hermitian-q9")
    rng = random.Random(2)
    info = [rng.randrange(-1, 8) for _ in range(spec.k)]
    word = codec.encode_systematic(spec, info)
    rx = list(word)
    for pos in rng.sample(range(spec.n), 3):
        rx[pos] = F9.add(rx[pos], rng.randrange(0, 8))
    grid = [[ZERO] * 8 for _ in range(8)]
    for p, v in zip(spec.points, rx):
        grid[p.x][p.y] = v
    rxfile = tmp_path / "rx.arr"
    write_array_file(str(rxfile), 9, grid)
    decfile, backfile = tmp_path / "dec.arr", tmp_path / "back.arr"
    code, _, _ = run(
        [
            "decode", "--preset", "hermitian-q9",
            "--in", str(rxfile), "--out", str(decfile), "--info-out", str(backfile),
        ],
        capsys,
    )
    assert code == 0
    rows, _ = read_array_file(str(decfile), 9)
    assert [rows[p.x][p.y] for p in spec.points] == word


def test_decode_failure_exit_code(tmp_path, capsys):
    spec = codec.preset("hermitian-q9")
    rng = random.Random(3)
    # saturate with errors until decoding fails; outputs must never be
    # silently wrong, so the only allowed exits are 0-with-parity or 4
    seen4 = False
    for attempt in range(10):
        info = [rng.randrange(-1, 8) for _ in range(spec.k)]
        word = codec.encode_systematic(spec, info)
        rx = list(word)
        for pos in rng.sample(range(spec.n), 5):
            rx[pos] = F9.add(rx[pos], rng.randrange(0, 8))
        grid = [[ZERO] * 8 for _ in range(8)]
        for p, v in zip(spec.points, rx):
            grid[p.x][p.y] = v
        rxfile = tmp_path / f"rx{attempt}.arr"
        write_array_file(str(rxfile), 9, grid)
        code, _, err = run(
            [
                "decode", "--preset", "hermitian-q9",
                "--in", str(rxfile),
                "--out", str(tmp_path / "d.arr"), "--info-out", str(tmp_path / "b.arr"),
            ],
            capsys,
        )
        if code == 4:
            assert err.startswith("DecodingFailure")
            seen4 = True
        else:
            assert code == 0
            rows, _ = read_array_file(str(tmp_path / "d.arr"), 9)
            got = [rows[p.x][p.y] for p in spec.points]
            sv = codec.syndromes(spec, got)
            assert all(v == ZERO for v in sv)
    assert seen4


def test_encode_rejects_misplaced_symbols(tmp_path, capsys):
    grid = [[ZERO] * 8 for _ in range(8)]
    grid[0][0] = 3  # (0,0) is a redundant-point cell for the preset split
    bad = tmp_path / "bad.arr"
    write_array_file(str(bad), 9, grid)
    spec = codec.preset("hermitian-q9")
    assert (0, 0) not in {(p.x, p.y) for p in spec.wp_prime}
    code, _, err = run(
        ["encode", "--preset", "hermitian-q9", "--in", str(bad), "--out", str(tmp_path / "c.arr")],
        capsys,
    )
    assert code == 2
    assert err.startswith("ValueError")


def test_encode_extended_trailer(tmp_path, capsys):
    spec = codec.preset("hermitian-q9")
    rng = random.Random(4)
    info = [rng.randrange(-1, 8) for _ in range(spec.k)]
    trailer = [((-1, -1), 7), ((-1, 2), 5), ((-1, 6), 2)]
    infofile = tmp_path / "info.arr"
    write_info_file(infofile, spec, info, trailer)
    codefile = tmp_path / "code.arr"
    code, _, _ = run(
        ["encode", "--preset", "hermitian-q9", "--in", str(infofile), "--out", str(codefile)],
        capsys,
    )
    assert code == 0
    rows, tr = read_array_file(str(codefile), 9)
    assert tr == {(-1, -1): 7, (-1, 2): 5, (-1, 6): 2}
    check = (tmp_path / "code.arr.check").read_text().split()
    assert check == ["-1"] * 9
    # decoding an extended word is rejected up front
    code, _, err = run(
        [
            "decode", "--preset", "hermitian-q9",
            "--in", str(codefile), "--out", str(tmp_path / "d.arr"),
            "--info-out", str(tmp_path / "b.arr"),
        ],
        capsys,
    )
    assert code == 2
    assert err.startswith("ExtendedDecodeUnsupported")


@pytest.mark.parametrize(
    "name, trailer, cell",
    [
        ("rs-q9", [((0, 2), 3)], "(0, 2)"),
        ("hcrs-q9", [((-1, 3), 3)], "(-1, 3)"),
        ("hermitian-q9", [((-1, -1), 7), ((-1, 2), 5), ((-1, 6), 2), ((3, 4), 5)], "(3, 4)"),
    ],
    ids=["rs", "hcrs", "hermitian-extra-cell"],
)
def test_encode_rejects_trailer_cell_off_the_zero_points(tmp_path, capsys, name, trailer, cell):
    # a trailer line the code cannot use is an error, not silently dropped
    spec = codec.preset(name)
    infofile = tmp_path / "info.arr"
    if spec.kind == "rs":
        write_array_file(str(infofile), 9, [[ZERO] * spec.k], trailer)
    else:
        write_info_file(infofile, spec, [ZERO] * spec.k, trailer)
    argv = ["encode", "--preset", name, "--in", str(infofile), "--out", str(tmp_path / "c.arr")]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("ValueError") and f"@zero cell {cell}" in err
    assert not (tmp_path / "c.arr").exists()


@pytest.mark.parametrize(
    "lines, line, token",
    [
        (["x"], 3, "'x'"),
        (["@zero (1 2): 3"], 3, "'1 2'"),
        (["@zero (-1, 2): z"], 3, "'z'"),
        (["@zero (-1, 2): 3", "", "@zero (-1, 2): 4"], 5, "(-1, 2) appears twice"),
        (["0 9"], 3, "value 9 out of range"),
        (["@zero (-1, 2): 8"], 3, "value 8 out of range"),
    ],
    ids=[
        "row-token", "zero-cell", "zero-value", "zero-cell-repeated", "value-above-range",
        "zero-value-above-range",
    ],
)
def test_array_file_errors_name_file_line_and_token(tmp_path, capsys, lines, line, token):
    path = tmp_path / "info.arr"
    path.write_text("# header\n-1 -1\n" + "\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        read_array_file(str(path), 9)
    assert f"{path}: line {line}" in str(exc.value) and token in str(exc.value)
    # and through the command line, as malformed input
    argv = ["encode", "--preset", "hermitian-q9", "--in", str(path), "--out", str(path) + ".c"]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("ValueError") and f"{path}: line {line}" in err and token in err


@pytest.mark.parametrize(
    "name, command, rows, expected, found",
    [
        ("hermitian-q9", "encode", [[ZERO] * 8], "8x8", "1x8"),
        ("rs-q9", "encode", [[ZERO] * 8], "1x4", "1x8"),
        ("hermitian-q9", "decode", [[ZERO] * 8] * 7 + [[ZERO] * 7], "8x8", "8 rows of 7 to 8 values"),
        ("rs-q9", "decode", [[ZERO] * 4] * 2, "1x8", "2x4"),
        ("hermitian-q9", "groebner", [[ZERO] * 9] * 8, "8x8", "8x9"),
    ],
    ids=["encode", "encode-rs", "decode", "decode-rs", "groebner"],
)
def test_array_shape_errors_name_file_and_both_shapes(
    tmp_path, capsys, name, command, rows, expected, found
):
    # one check owns the shape of every array file a command reads
    path, out = tmp_path / "in.arr", str(tmp_path / "out.arr")
    write_array_file(str(path), 9, rows)
    argv = {
        "encode": ["encode", "--in", str(path), "--out", out],
        "decode": ["decode", "--in", str(path), "--out", out, "--info-out", out + ".i"],
        "groebner": ["groebner", "--ideal", "errors", "--syndromes", str(path)],
    }[command]
    code, _, err = run(argv + ["--preset", name], capsys)
    assert code == 2
    assert err == f"ValueError: {path}: expected a {expected} array, found {found}\n"


def test_decode_rejects_value_off_the_point_cells(tmp_path, capsys):
    # a value the decoder would not read is an error, not silently dropped
    spec = codec.preset("hermitian-q9")
    assert (0, 0) not in spec.point_cells()
    rows = codec.point_array(spec, codec.encode_systematic(spec, [ZERO] * spec.k)).data
    rows[0][0] = 5
    path = tmp_path / "rx.arr"
    write_array_file(str(path), 9, rows)
    out = str(tmp_path / "out.arr")
    argv = ["decode", "--preset", "hermitian-q9", "--in", str(path), "--out", out]
    code, _, err = run(argv + ["--info-out", out + ".i"], capsys)
    assert code == 2
    assert err == f"ValueError: {path}: cell (0,0) holds 5 but is not a code point\n"
    assert not (tmp_path / "out.arr").exists()


def test_groebner_rejects_zero_point_trailer(tmp_path, capsys):
    path = tmp_path / "syn.arr"
    write_array_file(str(path), 9, [[ZERO] * 8] * 8, [((-1, 2), 5)])
    argv = ["groebner", "--preset", "hermitian-q9", "--ideal", "errors", "--syndromes", str(path)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"ValueError: {path}: ") and "@zero trailer" in err


def test_groebner_rejects_syndromes_of_no_word_on_the_points(tmp_path, capsys):
    # A lone value at (7, 7) is the transform of an array that is nonzero
    # on every cell, and (0, 0) is not a point of the curve: the file must
    # be refused, not read at the defining-set cells only.
    rows = [[ZERO] * 8 for _ in range(8)]
    rows[7][7] = 5
    path = tmp_path / "syn.arr"
    write_array_file(str(path), 9, rows)
    argv = ["groebner", "--preset", "hermitian-q9", "--ideal", "errors", "--syndromes", str(path)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == (
        f"ValueError: {path}: inverse transform: cell (0,0) holds 5 but is not a code point\n"
    )


def test_simulate_zero_errors(capsys):
    code, out, _ = run(
        ["simulate", "--preset", "rs-q9", "--errors", "0", "--trials", "5", "--seed", "9"],
        capsys,
    )
    assert code == 0
    assert "success=5 failure=0 miscorrection=0" in out


def test_simulate_deterministic(capsys):
    argv = ["simulate", "--preset", "hermitian-q9", "--errors", "3", "--trials", "8", "--seed", "42"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "success=8 failure=0 miscorrection=0" in out1


def test_run_simulation_equals_cli_path():
    spec = codec.preset("hermitian-q9")
    s, f, m, rows = run_simulation(spec, 3, 8, 42)
    assert (s, f, m) == (8, 0, 0)
    assert rows[0] == (0, 3, "success")


def test_groebner_all(capsys):
    code, out, _ = run(["groebner", "--preset", "hermitian-q9", "--ideal", "all"], capsys)
    assert code == 0
    # x^8 - 1 and y^3 + y - x^4 as sparse triples
    assert "(8 0 0) (0 0 4)" in out
    assert "(0 3 0) (4 0 4) (0 1 0)" in out


def test_groebner_wp(capsys):
    code, out, _ = run(["groebner", "--preset", "hermitian-q9", "--ideal", "wp"], capsys)
    assert code == 0
    assert out.count("poly lt=") == 4


def test_groebner_errors(tmp_path, capsys):
    spec = codec.preset("hermitian-q9")
    rng = random.Random(5)
    word = codec.encode_systematic(spec, [ZERO] * spec.k)
    rx = list(word)
    err_points = [spec.points[i] for i in rng.sample(range(spec.n), 2)]
    for p in err_points:
        h = spec.points.index(p)
        rx[h] = F9.add(rx[h], 3)
    arr = Array2D.zeros(9)
    for p, v in zip(spec.points, rx):
        arr[(p.x, p.y)] = v
    full = dft2(F9, arr)
    synfile = tmp_path / "syn.arr"
    write_array_file(str(synfile), 9, [row[:] for row in full.data])
    code, out, _ = run(
        [
            "groebner", "--preset", "hermitian-q9",
            "--ideal", "errors", "--syndromes", str(synfile),
        ],
        capsys,
    )
    assert code == 0
    polys = [ln.split(": ", 1)[1] for ln in out.splitlines() if ln.startswith("poly lt=")]
    assert polys
    # every printed locator vanishes at the planted error points
    for poly in polys:
        coeffs = {}
        for triple in poly.strip("()").split(") ("):
            i, j, c = map(int, triple.split())
            coeffs[(i, j)] = c
        for p in err_points:
            assert eval_poly(F9, coeffs, p.x, p.y) == ZERO


def test_array_file_value_range(tmp_path):
    path = tmp_path / "bad.arr"
    path.write_text("9 0 0 0 0 0 0 0\n" + "\n".join(["-1 " * 7 + "-1"] * 7) + "\n")
    with pytest.raises(ValueError):
        read_array_file(str(path), 9)


# -- pinned outputs ------------------------------------------------------------


def _cli_pinned_lines(name, rng):
    """(exit code, text) of a fixed set of commands on one preset, the text
    being the command, its exit code, stdout and stderr (the wall_time_s
    line left out), run in the working directory so that the printed file
    names are relative: info, build, groebner on each ideal, simulate at
    0..t+1 errors, encode in both modes (and with a zero-point trailer
    where the code has zero points), and decode in both modes at 0, t and
    t+1 errors."""
    spec = codec.preset(name)
    f, n_side, t = spec.field, spec.field.q - 1, spec.t_capability
    lines = []

    def cli(*argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([argv[0], "--preset", name, *argv[1:]])
        out, err = out.getvalue(), err.getvalue()
        err = "".join(ln for ln in err.splitlines(True) if not ln.startswith("wall_time_s="))
        lines.append((code, f"$ {' '.join(argv)} -> {code}\n{out}{err}"))

    cli("info")
    cli("build", "--out", f"{name}.spec")
    for ideal in ("wp", "all"):
        cli("groebner", "--ideal", ideal)
    for errors in range(t + 2):
        cli("simulate", "--errors", str(errors), "--trials", "40", "--seed", "100")
    def rand_info(k):
        return [rng.randrange(-1, f.q - 1) for _ in range(k)]

    if spec.kind == "rs":
        cells = [(0, h) for h in range(spec.n)]
    else:
        cells = [(p.x, p.y) for p in spec.points]
    for mode in ("systematic", "nonsystematic"):
        if spec.kind == "rs":
            rows = [rand_info(spec.k)]
        else:
            rows = [[ZERO] * n_side for _ in range(n_side)]
            carriers = (
                [(p.x, p.y) for p in spec.wp_prime]
                if mode == "systematic"
                else spec.info_cells()
            )
            for (i, j), v in zip(carriers, rand_info(len(carriers))):
                rows[i][j] = v
        write_array_file(f"{mode}.info", f.q, rows)
        cli("encode", "--mode", mode, "--in", f"{mode}.info", "--out", f"{mode}.code")
        sent, _ = read_array_file(f"{mode}.code", f.q)
        for weight in (0, t, t + 1):
            rx = [row[:] for row in sent]
            for i, j in rng.sample(cells, weight):
                rx[i][j] = f.add(rx[i][j], rng.randrange(f.q - 1))
            stem = f"{mode}-{weight}"
            write_array_file(f"{stem}.rx", f.q, rx)
            cli(
                "decode", "--mode", mode, "--in", f"{stem}.rx",
                "--out", f"{stem}.dec", "--info-out", f"{stem}.back",
            )
            if weight == t and spec.kind != "rs":
                write_array_file(f"{stem}.syn", f.q, dft2(f, Array2D(f.q, rx)).data)
                cli("groebner", "--ideal", "errors", "--syndromes", f"{stem}.syn")
    if spec.zero_points:
        rows, _ = read_array_file("systematic.info", f.q)
        trailer = [((p.x, p.y), v) for p, v in zip(spec.zero_points, rand_info(9))]
        write_array_file("extended.info", f.q, rows, trailer)
        cli("encode", "--in", "extended.info", "--out", "extended.code")
    return lines


@pytest.fixture(scope="module")
def cli_pinned_digests(tmp_path_factory):
    """(successes, refusals): the digest of every command that did not exit
    4 and of the files written, and the digest of the commands that did."""
    successes, refusals = hashlib.sha256(), hashlib.sha256()
    with pytest.MonkeyPatch.context() as mp:
        for seed, name in enumerate(codec.PRESETS, start=8200):
            work = tmp_path_factory.mktemp(name)
            mp.chdir(work)
            for code, text in _cli_pinned_lines(name, random.Random(seed)):
                h = refusals if code == 4 else successes
                h.update(text.encode() + b"\n")
            for path in sorted(work.iterdir()):
                successes.update(f"{path.name}:\n".encode() + path.read_bytes())
    return successes.hexdigest(), refusals.hexdigest()


def test_cli_outputs_pinned(cli_pinned_digests):
    # A digest of the CLI's exit codes, stdout, stderr and written files
    # on the presets, the decoding failures left out.  A change that is
    # meant to keep every output byte-identical keeps this digest; a
    # change that moves it says why.
    assert cli_pinned_digests[0] == (
        "dd0805ced6c55404cf02dd023f1e31f1fd8a5fd02e191f2b56a1a8e77592565d"
    )


def test_cli_refusals_pinned(cli_pinned_digests):
    # The commands of the same set that exit 4, with their stderr.
    assert cli_pinned_digests[1] == (
        "9bdba6ef1f067ede0796e3adcfa995c49c3578cb7d6e5e6df4146d793300b0a9"
    )
