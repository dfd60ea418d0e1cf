import html
import math
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_format as ref_fmt
from ouexec.svg import _escape, line_plot

# values that stress the formatting: signed zeros, subnormals, the edges of
# the range the writers see, and points that land on a .2f rounding boundary
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
            0.125, 0.375, 1.005, 2.675, 0.005, 1e-300, -1e-300]
_FLOATS = st.one_of(st.sampled_from(_SPECIAL), st.floats(-1e300, 1e300),
                    st.floats(-10.0, 10.0), st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def _series(draw):
    n = draw(st.integers(0, 12))
    x = np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)), dtype=float)
    y = np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)), dtype=float)
    return x, y


@settings(max_examples=200)
@given(series=st.lists(_series(), min_size=0, max_size=3),
       log_x=st.booleans(), log_y=st.booleans())
def test_matches_the_point_loop(series, log_x, log_y):
    labelled = [(f"s{i}", x, y) for i, (x, y) in enumerate(series)]
    try:
        expected = ref_fmt.line_plot(labelled, "T", "x", "y", log_x=log_x, log_y=log_y)
    except ZeroDivisionError:
        # one value beyond 2^52 on an axis: x +- 0.5 rounded back to x, a range of no width
        text = line_plot(labelled, "T", "x", "y", log_x=log_x, log_y=log_y)
        assert "nan" not in text and "inf" not in text
        return
    except OverflowError:
        # a log axis whose padded range runs past 1e308: the point loop's 10.0 ** tick
        # overflows, while the writer ends that axis at the float range
        text = line_plot(labelled, "T", "x", "y", log_x=log_x, log_y=log_y)
        assert "nan" not in text and "inf" not in text
        assert f">{sys.float_info.max:.6g}</text>" in text
        return
    assert line_plot(labelled, "T", "x", "y", log_x=log_x, log_y=log_y) == expected


@pytest.mark.parametrize("width", [546.0, 3.0, 0.7])
def test_rounding_boundaries_match_the_point_loop(width):
    # 4001 even steps over [0, width] put many coordinates on a .2f half, where the
    # order of the operations in px and py decides the last digit
    x = np.arange(4001) * (width / 4000)
    series = [("s", x, x[::-1]), ("t", x, x * 0.3)]
    assert line_plot(series, "T", "x", "y") == ref_fmt.line_plot(series, "T", "x", "y")


def test_log_axes_drop_non_positive_and_non_finite_points():
    x = np.array([-1.0, 0.0, -0.0, 1e-3, 1e-1, math.nan, 10.0, math.inf, 1e3, 5e-324])
    y = np.array([1.0, 2.0, 3.0, 4.0, -5.0, 6.0, 7.0, 8.0, 0.3, 2.5])
    series = [("a", x, y), ("b", y, x)]
    for log_x, log_y in [(True, False), (False, True), (True, True)]:
        text = line_plot(series, "T", "n", "err", log_x=log_x, log_y=log_y)
        assert text == ref_fmt.line_plot(series, "T", "n", "err", log_x=log_x, log_y=log_y)
    first = text.split('points="')[1].split('"')[0]
    assert len(first.split(" ")) == 4  # x = 1e-3, 10, 1e3 and 5e-324 are kept on log-log


def test_log_axis_takes_math_log10_per_value():
    # on [1, 10] px = 72 + 546 log10(x); at these x, numpy's log10 differs from
    # math.log10 in the last bit and the .2f coordinate flips (numpy 2.4, x86-64)
    x = [1.0, 10.0, 1.0191370743817405, 1.02094378921133, 1.0788875722646096]
    series = [("s", x, [1.0, 2.0, 3.0, 4.0, 5.0])]
    assert line_plot(series, "T", "x", "y", log_x=True) == \
        ref_fmt.line_plot(series, "T", "x", "y", log_x=True)


def test_one_point_series_and_empty_series():
    series = [("one", [1.0], [2.0]), ("empty", [], []), ("all_nan", [math.nan], [1.0])]
    text = line_plot(series, "T", "x", "y")
    assert text == ref_fmt.line_plot(series, "T", "x", "y")
    assert '<polyline points="345.00,207.00" fill="none" stroke="#1f77b4"' in text
    assert text.count("<polyline") == 1  # series without a drawable point are dropped
    assert ">empty<" not in text and ">all_nan<" not in text
    nothing = line_plot([("empty", [], [])], "T", "x", "y")
    assert nothing == ref_fmt.line_plot([("empty", [], [])], "T", "x", "y")
    assert "<polyline" not in nothing


@pytest.mark.parametrize("v, px", [(1e300, "345.00"), (-2.0 ** 53, "436.00"),
                                   (2.0 ** 60, "254.00")])
def test_a_single_large_value_gets_a_range(v, px):
    # half a unit each side rounds back to v beyond 2^52, so the range had no width
    # (ZeroDivisionError); one ulp each side is used there, and the ulps below and
    # above a power of two differ, so v sits off the middle of the axis
    text = line_plot([("s", [v, v], [v, 0.0])], "T", "x", "y")
    pts = text.split('points="')[1].split('"')[0]
    assert pts in (f"{px},57.93 {px},356.07", f"{px},356.07 {px},57.93")


def test_a_log_axis_ends_at_the_float_range():
    # 4% padding above log10(1e300) runs past 1e308, where 10.0 ** tick overflowed
    series = [("s", [1.0, 2.0], [5e-324, 1e300])]
    with pytest.raises(OverflowError):
        ref_fmt.line_plot(series, "T", "x", "y", log_y=True)
    lines = line_plot(series, "T", "x", "y", log_y=True).splitlines()
    y_ticks = [ln.split(">")[1].split("<")[0] for ln in lines if 'text-anchor="end">' in ln]
    assert y_ticks[-1] == "1.79769e+308"
    pts = lines[-3].split('points="')[1].split('"')[0]
    assert all(46.0 <= float(p.split(",")[1]) <= 368.0 for p in pts.split())  # inside the axes


def test_axes_legend_and_viewbox_of_a_small_plot():
    text = line_plot([("s", [0.0, 1.0, 2.0], [0.0, 1.0, 4.0]), ("t", [0.0, 2.0], [1.0, 1.0])],
                     "T", "x", "y")
    lines = text.splitlines()
    assert lines[0] == ('<svg xmlns="http://www.w3.org/2000/svg" width="640" height="420" '
                        'viewBox="0 0 640 420" font-family="monospace" font-size="12">')
    assert lines[-1] == "</svg>"
    x_ticks = [ln.split(">")[1].split("<")[0] for ln in lines
               if 'text-anchor="middle">' in ln and 'y="386"' in ln]
    y_ticks = [ln.split(">")[1].split("<")[0] for ln in lines if 'text-anchor="end">' in ln]
    assert x_ticks == ["0", "0.5", "1", "1.5", "2"]
    assert y_ticks == ["-0.16", "0.92", "2", "3.08", "4.16"]  # the y range is padded by 4%
    assert '<line x1="481.50" y1="368" x2="481.50" y2="373" stroke="black"/>' in lines
    assert '<text x="64" y="130.50" text-anchor="end">3.08</text>' in lines
    assert lines[-5:-1] == [
        '<polyline points="72.00,356.07 345.00,281.54 618.00,57.93" fill="none" '
        'stroke="#1f77b4" stroke-width="1.5"/>',
        '<text x="612" y="62" text-anchor="end" fill="#1f77b4">s</text>',
        '<polyline points="72.00,281.54 618.00,281.54" fill="none" '
        'stroke="#d62728" stroke-width="1.5"/>',
        '<text x="612" y="78" text-anchor="end" fill="#d62728">t</text>',
    ]


def test_text_is_escaped():
    # a "<" or "&" in a title, an axis label or a series label made the document invalid
    text = line_plot([("a < b", [0.0, 1.0], [0.0, 1.0])], "P & L", "x<1", "y & z")
    root = ET.fromstring(text)
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    for label in ("a < b", "P & L", "x<1", "y & z"):
        assert label in texts
    assert ">P &amp; L<" in text and ">a &lt; b<" in text
    plain = [("s", [0.0, 1.0], [0.0, 1.0])]
    assert line_plot(plain, "T", "x", "y") == ref_fmt.line_plot(plain, "T", "x", "y")


@given(text=st.text(alphabet=st.sampled_from("a&<>;\"' amp&lt;")))
def test_escape_is_html_escape_without_quotes(text):
    assert _escape(text) == html.escape(text, quote=False)
