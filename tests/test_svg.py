"""SVG writer: determinism and input validation."""

import pytest

from metabcrb.svg import write_line_chart


def test_chart_is_deterministic(tmp_path):
    series = [("a", [1.0, 2.0, 3.0], [1e-3, 2e-3, 1.5e-3]),
              ("b", [1.0, 2.0, 3.0], [2e-3, 1e-3, 3e-3])]
    p1, p2 = tmp_path / "one.svg", tmp_path / "two.svg"
    write_line_chart(str(p1), series, title="t", xlabel="x", ylabel="y", ylog=True)
    write_line_chart(str(p2), series, title="t", xlabel="x", ylabel="y", ylog=True)
    body = p1.read_bytes()
    assert body == p2.read_bytes()
    text = body.decode()
    assert text.count("<polyline") == 2
    assert "a</text>" in text and "b</text>" in text


def test_chart_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        write_line_chart(str(tmp_path / "x.svg"), [("a", [], [])])
    with pytest.raises(ValueError):
        write_line_chart(str(tmp_path / "x.svg"), [("a", [0.0, 1.0], [1.0, 2.0])], xlog=True)
    with pytest.raises(ValueError):
        write_line_chart(str(tmp_path / "x.svg"), [("a", [1.0, 2.0], [-1.0, 2.0])], ylog=True)


def test_single_point_series_renders(tmp_path):
    path = tmp_path / "p.svg"
    write_line_chart(str(path), [("only", [1.0], [5.0])])
    assert path.read_text().startswith("<svg")
    # a lone value below 1 on a log axis, where +-1 around it would leave the log domain
    for axes in ({"xlog": True}, {"ylog": True}):
        write_line_chart(str(path), [("only", [5e-3], [5e-3])], **axes)
        assert path.read_text().startswith("<svg"), axes
