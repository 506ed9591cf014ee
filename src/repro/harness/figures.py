"""Plain-text (ASCII) chart rendering for experiment results.

Bar charts render in a terminal, so the benches' archived outputs are
readable without a plotting stack.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConfigurationError


def bar_chart(
    title: str,
    labels: Sequence[str],
    values: Sequence[float],
    *,
    width: int = 50,
    baseline: float = 0.0,
) -> str:
    """One horizontal bar per (label, value).

    ``baseline`` shifts the bar origin (1.0 renders normalised overheads:
    a value of 1.14 draws 14% of the full-scale bar).
    """
    if len(labels) != len(values):
        raise ConfigurationError("labels and values must align")
    if not values:
        raise ConfigurationError("nothing to chart")
    span = max(abs(v - baseline) for v in values) or 1.0
    label_width = max(len(str(lab)) for lab in labels)
    lines = [title, "=" * len(title)]
    for label, value in zip(labels, values):
        magnitude = int(round(abs(value - baseline) / span * width))
        lines.append(
            f"{str(label):>{label_width}s} | "
            f"{'#' * magnitude}{' ' * (width - magnitude)} {value:.3f}"
        )
    return "\n".join(lines)
