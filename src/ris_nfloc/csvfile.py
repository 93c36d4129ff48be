"""The one CSV writer behind every result file.

The cell format lives here: float cells (numpy float64 included) are written
with 12 significant digits, every other cell as given.  ``csv.writer``'s
default dialect ends rows in CRLF.
"""

from __future__ import annotations

import csv


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each row of ``rows`` to ``path``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows
        )
