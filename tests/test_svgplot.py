import math
import re
import xml.etree.ElementTree as ET
from urllib.parse import unquote

import numpy as np
import pytest

from nimbus import svgplot

SVG = "{http://www.w3.org/2000/svg}"
NAMES = ["t<2&q", "a--b", "x,y\n-", 'say "hi"', "ctl\x01"]


def parse(path):
    text = path.read_text(encoding="utf-8")
    root = ET.fromstring(text)
    (comment,) = re.findall(r"<!--(.*?)-->", text, flags=re.S)
    assert "--" not in comment and not comment.endswith("-")
    rows = [line.split(",") for line in comment.strip().splitlines()[2:]]
    return root, rows


def numbers(text):
    return [float(v) for v in re.split(r"[ ,]+", text.strip()) if v]


def test_line_plot_escapes_text_and_round_trips_data(tmp_path):
    series = {
        name: (list(range(4)), list(np.random.default_rng(i).standard_normal(4)))
        for i, name in enumerate(NAMES)
    }
    path = tmp_path / "line.svg"
    svgplot.line_plot(series, path, title="<rmse> & co", xlabel="lead (h) <", ylabel="a&b")
    root, rows = parse(path)
    texts = [el.text for el in root.iter(SVG + "text")]
    assert {"<rmse> & co", "lead (h) <", "a&b", "t<2&q", "a--b", 'say "hi"'} <= set(texts)
    assert "ctl�" in texts
    lines = list(root.iter(SVG + "polyline"))
    assert len(lines) == len(NAMES)
    for line in lines:
        coords = numbers(line.get("points"))
        assert len(coords) == 8 and all(math.isfinite(c) for c in coords)
    expected = [(name, float(x), float(y)) for name, (xs, ys) in series.items() for x, y in zip(xs, ys)]
    assert [(unquote(n), float(x), float(y)) for n, x, y in rows] == expected


def test_bar_plot_escapes_labels_and_round_trips_data(tmp_path):
    heights = [3, 0, 7, 2, 1]
    path = tmp_path / "bar.svg"
    svgplot.bar_plot(NAMES, heights, path, title="rank <histogram>", ylabel="count")
    root, rows = parse(path)
    texts = [el.text for el in root.iter(SVG + "text")]
    assert {"rank <histogram>", "t<2&q", "a--b"} <= set(texts)
    bars = [el for el in root.iter(SVG + "rect") if el.get("fill") != "white"]
    assert len(bars) == len(heights)
    for bar in bars:
        assert all(math.isfinite(float(bar.get(k))) for k in ("x", "y", "width", "height"))
    assert [(unquote(n), float(v)) for n, v in rows] == list(zip(NAMES, map(float, heights)))


@pytest.mark.parametrize(
    "series",
    [{}, {"a": ([], [])}, {"a": ([0, 1, 2], [1.0, float("nan"), float("inf")])}],
    ids=["no-series", "empty-series", "non-finite"],
)
def test_line_plot_degenerate_series(tmp_path, series):
    path = tmp_path / "line.svg"
    svgplot.line_plot(series, path)
    root, rows = parse(path)
    for line in root.iter(SVG + "polyline"):
        assert all(math.isfinite(c) for c in numbers(line.get("points")))
    assert len(rows) == sum(len(xs) for xs, _ in series.values())


@pytest.mark.parametrize("heights", [[], [float("nan"), 2.0]], ids=["empty", "nan"])
def test_bar_plot_degenerate_heights(tmp_path, heights):
    path = tmp_path / "bar.svg"
    svgplot.bar_plot([str(i) for i in range(len(heights))], heights, path)
    root, _ = parse(path)
    bars = [el for el in root.iter(SVG + "rect") if el.get("fill") != "white"]
    assert len(bars) == len(heights)
    for bar in bars:
        assert all(math.isfinite(float(bar.get(k))) for k in ("x", "y", "width", "height"))
