"""Prometheus exposition escaping: hostile label values must round-trip."""

from __future__ import annotations

import re

from repro.obs import MetricsRegistry, to_prometheus

#: Label values exercising every escape the exposition format defines:
#: backslash, double quote and newline, alone and combined.
HOSTILE_VALUES = [
    'back\\slash',
    'quo"te',
    'new\nline',
    'all\\three"at\nonce',
    'trailing backslash\\',
]

SAMPLE_RE = re.compile(r'^(\w+)(?:\{(.*)\})? (\S+)$')
LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def unescape_label_value(text: str) -> str:
    """Inverse of the exporter's escaping (what a Prometheus parser does)."""
    out = []
    index = 0
    while index < len(text):
        char = text[index]
        if char == "\\" and index + 1 < len(text):
            nxt = text[index + 1]
            if nxt == "n":
                out.append("\n")
            else:  # \\ and \" unescape to the raw character
                out.append(nxt)
            index += 2
        else:
            out.append(char)
            index += 1
    return "".join(out)


def parse_samples(text: str):
    """``{metric_name: {frozenset(labels): value}}`` from exposition text."""
    samples = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        match = SAMPLE_RE.match(line)
        assert match is not None, f"unparseable sample line: {line!r}"
        name, raw_labels, value = match.groups()
        labels = {
            label: unescape_label_value(escaped)
            for label, escaped in LABEL_RE.findall(raw_labels or "")
        }
        samples.setdefault(name, {})[frozenset(labels.items())] = float(value)
    return samples


class TestLabelValueRoundTrip:
    def test_hostile_label_values_round_trip(self):
        registry = MetricsRegistry(component="test", node_id="node-0")
        counter = registry.counter("hostile_total", "Escaping probe.",
                                   labelnames=("path",))
        for index, value in enumerate(HOSTILE_VALUES):
            counter.labels(path=value).inc(index + 1)
        samples = parse_samples(to_prometheus(registry.snapshot()))
        parsed = samples["hostile_total"]
        for index, value in enumerate(HOSTILE_VALUES):
            key = frozenset({"path": value, "component": "test",
                             "node": "node-0"}.items())
            assert parsed[key] == float(index + 1), value

    def test_every_line_stays_single_line(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "h", labelnames=("v",)).labels(
            v="a\nb\nc").inc()
        text = to_prometheus(registry.snapshot())
        # A raw newline inside a label value would split a sample over two
        # unparseable lines; every line must parse or be a comment.
        for line in text.splitlines():
            assert line.startswith("#") or SAMPLE_RE.match(line), line

    def test_help_text_escapes_newline_and_backslash(self):
        registry = MetricsRegistry()
        registry.counter("doc_total", "line one\nline two \\ done").inc()
        text = to_prometheus(registry.snapshot())
        help_lines = [line for line in text.splitlines()
                      if line.startswith("# HELP doc_total")]
        assert help_lines == [
            "# HELP doc_total line one\\nline two \\\\ done"
        ]

    def test_quantile_and_le_labels_coexist_with_hostile_values(self):
        registry = MetricsRegistry()
        registry.histogram("lat_seconds", "h", labelnames=("op",),
                           window=True).labels(op='read"fast').observe(0.01)
        samples = parse_samples(to_prometheus(registry.snapshot()))
        quantiles = {
            dict(key).get("quantile")
            for key in samples["lat_seconds_window"]
        }
        assert {"0.5", "0.9", "0.99"} <= quantiles
        assert any(dict(key).get("op") == 'read"fast'
                   for key in samples["lat_seconds_bucket"])
