"""The text formats of every artifact, so that each reads back bit for bit.

JSON documents are written with sorted keys and a trailing newline.  CSV
tables are written by ``csv.writer``; a float cell holds ``repr(float(x))``,
the shortest text that parses back to the same double, and any other cell
(an int, a label such as "all") is written as is.
"""

from __future__ import annotations

import csv
import json

import numpy as np


def write_json(doc, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(x)) if isinstance(x, (float, np.floating)) else x
                          for x in row] for row in rows)
