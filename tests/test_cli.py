import csv
import random

import pytest

from tftlib import DEFAULT_MODULUS
from tftlib.cli import (BenchRow, PolyFormatError, emit_csv, read_poly_file,
                        run_command, seeded_poly, write_poly_file)


def test_poly_file_round_trip(tmp_path):
    path = str(tmp_path / "a.poly")
    write_poly_file(path, 97, [1, 0, 96])
    assert read_poly_file(path) == (97, [1, 0, 96])
    assert open(path).read() == "p 97\nn 3\n1 0 96\n"


def test_poly_file_comments_and_wrapping(tmp_path):
    path = tmp_path / "b.poly"
    path.write_text("# header comment\np 97\nn 4\n1 2\n# inline comment\n3 4\n")
    assert read_poly_file(str(path)) == (97, [1, 2, 3, 4])


@pytest.mark.parametrize("body,line", [
    ("q 97\nn 2\n1 2\n", 1),              # wrong marker
    ("p 97\nn two\n1 2\n", 2),            # length not an integer
    ("p 97\nn 2\n1\n", 3),                # missing coefficient
    ("p 97\nn 2\n1 99\n", 3),             # coefficient out of range
    ("p 97\nn 2\n1 2 3\n", 3),            # extra token
    ("p 97\nn 0\n", 2),                   # non-positive length
    ("p 97\nn 3\n1_0 5 0\n", 3),          # a token is ASCII digits alone:
    ("p 97\nn 3\n10 +5 0\n", 3),          # no underscore, no sign
    ("p 97\nn 3\n1 2\n\xff 0\n", 4),      # a byte outside ASCII
])
def test_poly_file_errors_name_the_line(tmp_path, body, line):
    path = tmp_path / "bad.poly"
    path.write_bytes(body.encode("latin-1"))
    with pytest.raises(PolyFormatError) as err:
        read_poly_file(str(path))
    assert err.value.line_no == line


def test_mul_command_example(tmp_path):
    a = str(tmp_path / "a.poly")
    out = str(tmp_path / "out.poly")
    write_poly_file(a, DEFAULT_MODULUS, [1, 1])
    assert run_command(["mul", a, a, out]) == 0
    assert read_poly_file(out) == (DEFAULT_MODULUS, [1, 2, 1])
    assert open(out).read() == f"p {DEFAULT_MODULUS}\nn 3\n1 2 1\n"


@pytest.mark.parametrize("fwd,inv", [("ctft-fwd", "ctft-inv"),
                                     ("brtft-fwd", "brtft-inv")])
def test_transform_files_round_trip_byte_exact(tmp_path, fwd, inv):
    rng = random.Random(1)
    coeffs = [rng.randrange(DEFAULT_MODULUS) for _ in range(86)]
    src = str(tmp_path / "in.poly")
    mid = str(tmp_path / "mid.poly")
    back = str(tmp_path / "back.poly")
    write_poly_file(src, DEFAULT_MODULUS, coeffs)
    assert run_command([fwd, src, mid]) == 0
    assert run_command([inv, mid, back]) == 0
    assert open(back, "rb").read() == open(src, "rb").read()


@pytest.mark.parametrize("engine", ["new", "sergeev", "mateer"])
def test_engine_flag(tmp_path, engine):
    src = str(tmp_path / "in.poly")
    out = str(tmp_path / f"out-{engine}.poly")
    write_poly_file(src, DEFAULT_MODULUS, list(range(1, 22)))
    assert run_command(["--engine", engine, "ctft-fwd", src, out]) == 0
    ref = str(tmp_path / "ref.poly")
    assert run_command(["ctft-fwd", src, ref]) == 0
    assert open(out).read() == open(ref).read()


def test_modulus_conflict_is_usage_error(tmp_path, capsys):
    src = str(tmp_path / "in.poly")
    write_poly_file(src, 97, [1, 2, 3])
    assert run_command(["--modulus", "13", "ctft-fwd", src, src + ".out"]) == 2
    assert capsys.readouterr().err == "error: --modulus 13 conflicts with file modulus 97\n"


def test_mul_of_files_over_different_moduli_is_usage_error(tmp_path, capsys):
    lhs = str(tmp_path / "lhs.poly")
    rhs = str(tmp_path / "rhs.poly")
    write_poly_file(lhs, 97, [1, 2])
    write_poly_file(rhs, DEFAULT_MODULUS, [3, 4])
    assert run_command(["mul", lhs, rhs, str(tmp_path / "out.poly")]) == 2
    assert "moduli differ" in capsys.readouterr().err
    assert not (tmp_path / "out.poly").exists()


@pytest.mark.parametrize("modulus", ["0", "15"])
@pytest.mark.parametrize("command", ["bench", "selftest"])
def test_modulus_that_is_not_an_odd_prime_is_usage_error(tmp_path, capsys, modulus,
                                                         command):
    # --modulus 0 must not fall back to the default field
    argv = ["--modulus", modulus, command]
    if command == "bench":
        argv += ["--min", "2", "--max", "3", "--csv", str(tmp_path / "x.csv")]
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not an odd prime" in err


def test_unsupported_length_is_usage_error(tmp_path, capsys):
    # 2-adicity of 17 - 1 is 4: a leading block of 16 needs order 32
    src = str(tmp_path / "in.poly")
    write_poly_file(src, 17, [1] * 16)
    assert run_command(["ctft-fwd", src, src + ".out"]) == 2
    assert "no root of order 32" in capsys.readouterr().err


def test_missing_file_and_bad_usage(tmp_path, capsys):
    assert run_command(["ctft-fwd", str(tmp_path / "nope.poly"), "x"]) == 2
    assert run_command(["frobnicate"]) == 2
    assert run_command(["bench", "--min", "5", "--max", "3",
                        "--csv", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "nope.poly" in err and "bad range" in err


def test_malformed_file_diagnostic(tmp_path, capsys):
    path = tmp_path / "bad.poly"
    for body, line in ((b"p 97\nn 2\n1 banana\n", 3), (b"p 97\nn 2\n1\n\xff 2\n", 4),
                       (b"p 97\nn 1\n" + b"1" * 5000 + b"\n", 3)):  # past int()'s digit limit
        path.write_bytes(body)
        assert run_command(["ctft-fwd", str(path), str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line diagnostic
        assert f"bad.poly:{line}" in err


def test_emit_csv_shapes(tmp_path):
    path = str(tmp_path / "empty.csv")
    emit_csv([], path)
    assert open(path, "rb").read() == b"n,algo,mul,pow2,add,wall_nanos\n"

    path = str(tmp_path / "one.csv")
    emit_csv([BenchRow(3, "new", 0, 2, 5, 1234)], path)
    text = open(path, "rb").read()
    assert text == b"n,algo,mul,pow2,add,wall_nanos\n3,new,0,2,5,1234\n"


def test_bench_csv_round_trips_and_counts(tmp_path):
    path = str(tmp_path / "bench.csv")
    assert run_command(["bench", "--min", "30", "--max", "33", "--csv", path]) == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "algo", "mul", "pow2", "add", "wall_nanos"]
    body = rows[1:]
    assert len(body) == 4 * 5  # four lengths, five algorithms
    ns = sorted({int(r[0]) for r in body})
    assert ns == [30, 31, 32, 33]
    for r in body:
        assert all(int(v) >= 0 for v in r[2:])
    # rows are losslessly re-emittable
    re_rows = [BenchRow(int(r[0]), r[1], int(r[2]), int(r[3]), int(r[4]), int(r[5]))
               for r in body]
    path2 = str(tmp_path / "again.csv")
    emit_csv(re_rows, path2)
    assert open(path2).read() == open(path).read()


def test_bench_rows_reproducible_independent_of_order(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert run_command(["--seed", "7", "bench", "--min", "20", "--max", "21",
                        "--csv", a]) == 0
    assert run_command(["--seed", "7", "bench", "--min", "21", "--max", "21",
                        "--csv", b]) == 0

    def drop_wall(path):
        with open(path, newline="") as fh:
            return [r[:5] for r in csv.reader(fh) if r and r[0] != "n"]

    rows_a = [r for r in drop_wall(a) if r[0] == "21"]
    assert rows_a == drop_wall(b)


def test_unwritable_csv_is_usage_error(tmp_path, capsys):
    assert run_command(["bench", "--min", "2", "--max", "2",
                        "--csv", str(tmp_path)]) == 2  # path is a directory
    assert "error:" in capsys.readouterr().err


def test_seeded_poly_determinism():
    one = seeded_poly(3, 10, "f", 10, 97)
    two = seeded_poly(3, 10, "f", 10, 97)
    other = seeded_poly(3, 11, "f", 10, 97)
    assert one == two
    assert one != other
    assert one[-1] != 0


def test_selftest_passes(capsys):
    assert run_command(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("ok") >= 5
