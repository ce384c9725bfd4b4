"""Deterministic CSV, SVG, and run-manifest writers for the command line.

CSV cells use shortest round-trip float formatting, so re-running with the
same resolved parameters reproduces identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from . import __version__


def write_csv(path, header: list[str], rows) -> str:
    """Write header and rows to path line by line, so that no more than one
    line's text is held at a time; rows is sized. Returns the path.

    A cell is written as its str, the shortest round-trip form of a float,
    numpy scalars included (their repr names the type under numpy 2)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)
    return str(path)


def write_manifest(out_dir, spec_path, resolved: dict, artifacts: list[str],
                   started: float) -> str:
    out = Path(out_dir) / "run_manifest.json"
    doc = {
        "spec_file": str(spec_path),
        "spec_digest": hashlib.sha256(Path(spec_path).read_bytes()).hexdigest(),
        "resolved": resolved,
        "artifacts": sorted(str(a) for a in artifacts),
        "wall_clock_s": round(time.monotonic() - started, 3),
        "version": __version__,
    }
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(out)


def write_svg_lines(path, series: dict[str, tuple], title: str = "",
                    scatter: bool = False) -> str:
    """Minimal 640 x 420 line or scatter plot; series maps label -> (x array, y array)."""
    path = Path(path)
    xs = [float(x) for _, (xv, _) in series.items() for x in xv]
    ys = [float(y) for _, (_, yv) in series.items() for y in yv]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    width, height, pad = 640, 420, 50

    def px(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height - pad + 16}" font-family="monospace" '
        f'font-size="10">{x0:.4g}</text>',
        f'<text x="{width - pad}" y="{height - pad + 16}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{x1:.4g}</text>',
        f'<text x="{pad - 4}" y="{height - pad}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{y0:.4g}</text>',
        f'<text x="{pad - 4}" y="{pad + 4}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{y1:.4g}</text>',
    ]
    for i, (label, (xv, yv)) in enumerate(series.items()):
        color = colors[i % len(colors)]
        pts = [(px(float(x)), py(float(y))) for x, y in zip(xv, yv)]
        if scatter:
            parts.extend(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="{color}"/>'
                for x, y in pts
            )
        else:
            poly = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
            parts.append(
                f'<polyline points="{poly}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{width - pad}" y="{pad + 14 * i + 4}" text-anchor="end" '
            f'fill="{color}" font-family="monospace" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return str(path)
