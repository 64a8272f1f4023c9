import random

import pytest

from agcodes import codec
from agcodes.cli import (
    Xorshift64Star,
    main,
    read_array_file,
    run_simulation,
    write_array_file,
)
from agcodes.galois import ZERO, gf9

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


def test_build_and_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "h.spec"
    code, _, _ = run(["build", "--preset", "hermitian-q9", "--out", str(spec_path)], capsys)
    assert code == 0
    code, out, _ = run(["info", "--spec", str(spec_path)], capsys)
    assert code == 0
    assert "n=24 k=15" in out


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
            sv, _ = codec.syndromes(spec, got)
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
    _, full = codec.syndromes(spec, rx)
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
    from agcodes.bms import parse_basis
    from agcodes.geometry import WeightedCurveOrder

    polys = [ln for ln in out.splitlines() if ln.startswith("poly lt=")]
    assert polys
    # every printed locator vanishes at the planted error points
    text = "\n".join(
        "poly\n" + "\n".join(
            f"{t.strip('()').split()[0]} {t.strip('()').split()[1]} {t.strip('()').split()[2]}"
            for t in ln.split(": ", 1)[1].split(") (")
        )
        for ln in polys
    )
    basis = parse_basis(text, WeightedCurveOrder(3, 4))
    for poly in basis.elements:
        for p in err_points:
            assert poly.evaluate(F9, p.x, p.y) == ZERO


def test_array_file_value_range(tmp_path):
    path = tmp_path / "bad.arr"
    path.write_text("9 0 0 0 0 0 0 0\n" + "\n".join(["-1 " * 7 + "-1"] * 7) + "\n")
    with pytest.raises(ValueError):
        read_array_file(str(path), 9)
