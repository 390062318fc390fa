"""Field file format, CSV reports, and standalone SVG plots.

Field files hold one bundle-valued form (kind 1) or one hermitian metric
(kind 2) and are little-endian binary: magic "HDBL", a fixed header, then
row-major complex data stored as float64 (re, im) pairs, so round-trips are
bit-exact.  CSV reports follow RFC 4180 (CRLF, header row, minimal quoting)
and use shortest-roundtrip float formatting, which together with seeded
randomness makes reports byte-identical across runs.
"""

from __future__ import annotations

import csv
import struct

import numpy as np

from .errors import ValidationError
from .exterior import EForm
from .grid import GridSpec
from .metric import MetricField

MAGIC = b"HDBL"
VERSION = 1
KIND_EFORM = 1
KIND_METRIC = 2

# magic, version, kind, n, N, L, rank, p, q
_HEADER2 = struct.Struct("<4sIIIIdIII")


def _header_bytes(kind: int, grid: GridSpec, rank: int, p: int, q: int) -> bytes:
    return _HEADER2.pack(MAGIC, VERSION, kind, grid.n, grid.N, grid.L, rank, p, q)


def _parse_header(blob: bytes):
    magic, version, kind, n, N, L, rank, p, q = _HEADER2.unpack(blob)
    if magic != MAGIC:
        raise ValidationError(f"not a field file: magic {magic!r}")
    if version != VERSION:
        raise ValidationError(f"unsupported field file version {version}")
    return kind, GridSpec(n, N, L), rank, p, q


def write_field(path, obj) -> None:
    """Serialize an EForm or a MetricField to the binary format."""
    if isinstance(obj, EForm):
        kind, rank, p, q = KIND_EFORM, obj.rank, obj.p, obj.q
        data = obj.coeffs
        grid = obj.grid
    elif isinstance(obj, MetricField):
        kind, rank, p, q = KIND_METRIC, obj.rank, 0, 0
        data = obj.mat
        grid = obj.grid
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__}")
    with open(path, "wb") as fh:
        fh.write(_header_bytes(kind, grid, rank, p, q))
        fh.write(np.ascontiguousarray(data, dtype="<c16").tobytes())


def read_field(path):
    """Inverse of write_field; returns the reconstructed object."""
    with open(path, "rb") as fh:
        kind, grid, rank, p, q = _parse_header(fh.read(_HEADER2.size))
        raw = np.frombuffer(fh.read(), dtype="<c16")
    if kind == KIND_EFORM:
        form = EForm.zeros(grid, rank, p, q)
        form.coeffs[...] = raw.reshape(form.coeffs.shape)
        return form
    if kind == KIND_METRIC:
        shape = grid.shape + (rank, rank)
        return MetricField(grid, rank, raw.reshape(shape).copy())
    raise ValidationError(f"unknown field kind {kind}")


def format_value(v) -> str:
    """Deterministic cell formatting: shortest-roundtrip floats, plain ints."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, complex):
        return f"{v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}j"
    return str(v)


def write_csv(path, header: list, rows: list) -> None:
    """RFC 4180 CSV: CRLF line endings, mandatory header row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def write_svg_plot(path, points: list, title: str, xlabel: str, ylabel: str) -> None:
    """Standalone log-log SVG plot with the data table embedded as a comment.

    No plotting dependency: a polyline over log-scaled points plus axis labels,
    archivable and diffable.
    """
    clean = [(float(x), float(y)) for x, y in points if x > 0 and y > 0]
    width, height, margin = 480, 360, 56
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<!-- data ({xlabel}, {ylabel}):",
    ]
    for x, y in points:
        lines.append(f"  {format_value(x)},{format_value(y)}")
    lines.append("-->")
    lines.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    lines.append(
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>'
    )
    if len(clean) >= 2:
        lx = [np.log10(x) for x, _ in clean]
        ly = [np.log10(y) for _, y in clean]
        x0, x1 = min(lx), max(lx)
        y0, y1 = min(ly), max(ly)
        x1 = x1 if x1 > x0 else x0 + 1.0
        y1 = y1 if y1 > y0 else y0 + 1.0

        def sx(v):
            return margin + (v - x0) / (x1 - x0) * (width - 2 * margin)

        def sy(v):
            return height - margin - (v - y0) / (y1 - y0) * (height - 2 * margin)

        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>'
        )
        for a, b in zip(lx, ly):
            lines.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="3" fill="black"/>')
        lines.append(
            f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
            f'y2="{height - margin}" stroke="black"/>'
        )
        lines.append(
            f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
            f'stroke="black"/>'
        )
        lines.append(
            f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
            f'font-size="12">log10 {xlabel}</text>'
        )
        lines.append(
            f'<text x="16" y="{height // 2}" font-size="12" '
            f'transform="rotate(-90 16 {height // 2})" text-anchor="middle">log10 {ylabel}</text>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
