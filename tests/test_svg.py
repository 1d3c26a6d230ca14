import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from meanforce.errors import ValidationError
from meanforce.svg import render_line_plot

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(doc):
    return ET.fromstring(doc)


def test_document_structure():
    x = np.linspace(0.0, 1.0, 5)
    doc = render_line_plot(
        [("one", x, x**2), ("two", x, 1.0 - x)],
        title="shapes", x_label="x", y_label="y",
    )
    root = parse(doc)
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("version") == "1.1"
    assert root.get("width") == "720"
    assert root.get("height") == "480"
    polys = root.findall(f"{SVG_NS}polyline")
    # one data polyline per series
    assert len(polys) == 2
    texts = [t.text for t in root.iter(f"{SVG_NS}text")]
    for label in ("shapes", "x", "y", "one", "two"):
        assert label in texts


def test_nan_breaks_polyline():
    x = np.arange(6.0)
    y = np.array([0.0, 1.0, np.nan, 2.0, 3.0, 4.0])
    doc = render_line_plot([("gap", x, y)])
    root = parse(doc)
    polys = root.findall(f"{SVG_NS}polyline")
    assert len(polys) == 2
    assert len(polys[0].get("points").split()) == 2
    assert len(polys[1].get("points").split()) == 3


def test_isolated_point_becomes_circle():
    x = np.arange(4.0)
    y = np.array([1.0, np.nan, 2.0, np.nan])
    doc = render_line_plot([("dots", x, y)])
    root = parse(doc)
    assert len(root.findall(f"{SVG_NS}circle")) == 2
    assert len(root.findall(f"{SVG_NS}polyline")) == 0


def test_log_axis_ticks_and_validation():
    x = np.array([0.1, 1.0, 10.0, 100.0])
    doc = render_line_plot([("s", x, np.ones(4))], log_x=True)
    texts = [t.text for t in parse(doc).iter(f"{SVG_NS}text")]
    for tick in ("0.1", "1", "10", "100"):
        assert tick in texts
    with pytest.raises(ValidationError):
        render_line_plot([("s", np.array([0.0, 1.0]), np.ones(2))], log_x=True)
    with pytest.raises(ValidationError):
        render_line_plot([("s", np.array([-1.0, 1.0]), np.ones(2))], log_x=True)


def test_labels_are_escaped():
    x = np.array([0.0, 1.0])
    doc = render_line_plot([("a<b&c", x, x)], title="t<5 & more")
    assert "a<b&c" not in doc
    assert "a&lt;b&amp;c" in doc
    root = parse(doc)  # well-formed despite the raw characters
    texts = [t.text for t in root.iter(f"{SVG_NS}text")]
    assert "a<b&c" in texts
    assert "t<5 & more" in texts


def test_input_validation():
    with pytest.raises(ValidationError):
        render_line_plot([])
    with pytest.raises(ValidationError):
        render_line_plot([("bad", np.arange(3.0), np.arange(4.0))])
    with pytest.raises(ValidationError):
        render_line_plot([("bad", np.ones((2, 2)), np.ones((2, 2)))])


def test_constant_data_still_renders():
    x = np.array([2.0, 2.0])
    y = np.array([3.0, 3.0])
    doc = render_line_plot([("flat", x, y)])
    parse(doc)


def test_markup_in_labels_escapes_to_frozen_bytes():
    # &, < and > become entities in every text node; quotes stay literal. The
    # digest was taken from xml.sax.saxutils.escape's output: the escaping
    # function may change, the bytes may not.
    x = np.linspace(0.0, 2.0, 7)
    doc = render_line_plot(
        [("a & b", x, x**2), ("<me>", x, np.where(x > 1.0, np.nan, 1.0 - x)),
         ('"q" \'s\'', x, x)],
        title='c_ss & c_eg <vs> "lambda" \'2Q\'', x_label="x < 1 & y > 0", y_label='"y"',
    )
    texts = [t.text for t in parse(doc).iter(f"{SVG_NS}text")]
    assert "a & b" in texts and "<me>" in texts and '"q" \'s\'' in texts
    assert "x &lt; 1 &amp; y &gt; 0" in doc
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "064e34fe17d47f42f55d2455de199fee087926a36712673d478bb326ba22fd1b"
    )
