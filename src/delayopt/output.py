"""Deterministic CSV, SVG, and run-manifest writers for the command line.

CSV cells use shortest round-trip float formatting, so re-running with the
same resolved parameters reproduces identical bytes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

from . import __version__

# rows formatted per write_csv block: the text of one block is held at a time
CSV_BLOCK = 512


def write_csv(path, header: list[str], rows) -> str:
    """Write header and rows to path, CSV_BLOCK rows at a time, so that no
    more than one block's text is held at once; rows is sized. Returns the
    path.

    A block is formatted column by column. A cell is written as its str, the
    shortest round-trip form of a float, numpy scalars included (their repr
    names the type under numpy 2). A row whose length is not the header's
    raises ValueError."""
    path = Path(path)
    rows = iter(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        while block := list(itertools.islice(rows, CSV_BLOCK)):
            columns = [list(map(str, column)) for column in zip(*block, strict=True)]
            if len(columns) != len(header):
                raise ValueError(f"{path}: rows of {len(columns)} cells under "
                                 f"{len(header)} columns")
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")
    return str(path)


def write_manifest(out_dir, spec_path, resolved: dict, artifacts: list[str],
                   error: dict | None = None) -> str:
    """Write run_manifest.json; a run that failed records its error record."""
    out = Path(out_dir) / "run_manifest.json"
    doc = {
        "spec_file": str(spec_path),
        "spec_digest": hashlib.sha256(Path(spec_path).read_bytes()).hexdigest(),
        "resolved": resolved,
        "artifacts": sorted(str(a) for a in artifacts),
        "version": __version__,
    }
    if error is not None:
        doc["error"] = error
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(out)


def write_svg_lines(path, label: str, x, y, title: str = "",
                    scatter: bool = False) -> str:
    """Minimal 640 x 420 line or scatter plot of one nonempty series y(x)."""
    path = Path(path)
    x0, x1 = float(min(x)), float(max(x))
    y0, y1 = float(min(y)), float(max(y))
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    width, height, pad = 640, 420, 50

    def px(v):
        return pad + (v - x0) / (x1 - x0) * (width - 2 * pad)

    def py(v):
        return height - pad - (v - y0) / (y1 - y0) * (height - 2 * pad)

    color = "#1f77b4"
    pts = [(px(float(a)), py(float(b))) for a, b in zip(x, y)]
    if scatter:
        marks = [f'<circle cx="{a:.2f}" cy="{b:.2f}" r="2.5" fill="{color}"/>' for a, b in pts]
    else:
        poly = " ".join(f"{a:.2f},{b:.2f}" for a, b in pts)
        marks = [f'<polyline points="{poly}" fill="none" stroke="{color}" stroke-width="1.5"/>']
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
        *marks,
        f'<text x="{width - pad}" y="{pad + 4}" text-anchor="end" '
        f'fill="{color}" font-family="monospace" font-size="11">{label}</text>',
        "</svg>",
    ]
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return str(path)
