import re

import pytest

from gcdsum import ScanSpec, error_at, error_scan, write_csv, write_svg

HEADER = "N,S,A,E,E_over_sqrtN,alg,seconds"


@pytest.fixture(scope="module")
def scan_records():
    # 13 distinct points across four decades
    return error_scan(ScanSpec(10**2, 10**6, 13))


def test_csv_single_record(tmp_path):
    path = tmp_path / "one.csv"
    write_csv([error_at(10)], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == HEADER
    assert lines[1].startswith("10,31,")


def test_csv_refuses_empty(tmp_path):
    with pytest.raises(ValueError):
        write_csv([], tmp_path / "empty.csv")
    with pytest.raises(ValueError):
        write_svg([], tmp_path / "empty.svg")


def test_csv_shape_and_ordering(scan_records, tmp_path):
    path = tmp_path / "scan.csv"
    write_csv(scan_records, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 14
    ns = [int(line.split(",")[0]) for line in lines[1:]]
    assert ns == sorted(ns) and len(set(ns)) == len(ns)


def test_csv_round_trip(scan_records, tmp_path):
    path = tmp_path / "scan.csv"
    write_csv(scan_records, path)
    lines = path.read_text().splitlines()[1:]
    for line, rec in zip(lines, scan_records):
        n, s, a, e, norm, alg, seconds = line.split(",")
        assert int(n) == rec.n
        assert int(s) == rec.s_exact
        assert abs(float(a) - float(rec.a_main)) <= 1e-14 * abs(float(rec.a_main))
        assert abs(float(e) - float(rec.error)) <= 1e-14 * abs(float(rec.error))
        assert abs(float(norm) - float(rec.normalized)) <= 1e-14 * abs(float(rec.normalized))
        assert alg == "identity"
        assert float(seconds) >= 0.0


def test_svg_basic_shape(scan_records, tmp_path):
    path = tmp_path / "scan.svg"
    write_svg(scan_records, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<circle") == len(scan_records)
    assert "log10(N)" in text


def test_svg_two_points(tmp_path):
    recs = [error_at(10), error_at(1000)]
    path = tmp_path / "two.svg"
    write_svg(recs, path)
    assert path.read_text().count("<circle") == 2


def test_svg_points_within_plot_bounds(scan_records, tmp_path):
    path = tmp_path / "scan.svg"
    write_svg(scan_records, path)
    text = path.read_text()
    width = int(re.search(r'width="(\d+)"', text).group(1))
    height = int(re.search(r'height="(\d+)"', text).group(1))
    for cx, cy in re.findall(r'<circle cx="([\d.]+)" cy="([\d.]+)"', text):
        assert 0 <= float(cx) <= width
        assert 0 <= float(cy) <= height


def test_svg_zero_line_present(scan_records, tmp_path):
    path = tmp_path / "scan.svg"
    write_svg(scan_records, path)
    assert "stroke-dasharray" in path.read_text()


def test_svg_deterministic_bytes(scan_records, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    write_svg(scan_records, a)
    write_svg(scan_records, b)
    assert a.read_bytes() == b.read_bytes()


def test_svg_needs_two_distinct_n(tmp_path):
    rec = error_at(10)
    with pytest.raises(ValueError):
        write_svg([rec], tmp_path / "one.svg")
    with pytest.raises(ValueError):
        write_svg([rec, rec], tmp_path / "dup.svg")
