"""Embedded fixtures and optional dataset download helper.

The triad and tribal-alliance fixtures ship in-package (already symmetrized,
so no --undirected flag is needed).  The large signed social networks are
fetched on demand into a data directory and the tests that need them skip
when they are absent.
"""

from __future__ import annotations

import gzip
import os
import shutil
from importlib import resources
from pathlib import Path

from .graph import SignedDigraph, parse_edge_list

__all__ = ["load_triad", "load_gahuku_gama", "fixture_text", "data_dir",
           "snap_path", "fetch_snap", "SNAP_URLS"]

SNAP_URLS = {
    "slashdot": "https://snap.stanford.edu/data/soc-sign-Slashdot090221.txt.gz",
    "epinions": "https://snap.stanford.edu/data/soc-sign-epinions.txt.gz",
}


def fixture_text(name: str) -> str:
    return (resources.files("cyclebalance.data") / name).read_text()


def load_triad() -> SignedDigraph:
    """Three mutually connected vertices, one antagonistic relation."""
    return parse_edge_list(fixture_text("triad.tsv"), undirected=True)


def load_gahuku_gama() -> SignedDigraph:
    """Sixteen-tribe signed alliance network (symmetrized edge list)."""
    return parse_edge_list(fixture_text("gahuku_gama.tsv"), undirected=True)


def data_dir() -> Path:
    return Path(os.environ.get("CYCLEBALANCE_DATA_DIR", "data"))


def snap_path(name: str) -> Path:
    return data_dir() / f"{name}.tsv"


def fetch_snap(name: str, dest: Path | None = None, timeout: float = 60.0
               ) -> Path:
    """Download and unpack one of the large signed networks.

    Requires network access; the decompressed edge list is written as
    'src dst sign' text compatible with load_edge_list.  ``timeout`` bounds
    each blocking step of the connection, in seconds.
    """
    import urllib.request  # only a download needs it; it is slow to import

    if name not in SNAP_URLS:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(SNAP_URLS)}")
    dest = dest or snap_path(name)
    dest.parent.mkdir(parents=True, exist_ok=True)
    # unpacked beside dest and renamed when complete, so an interrupted
    # download never leaves a truncated file that looks fetched
    part = dest.with_name(dest.name + ".part")
    with urllib.request.urlopen(SNAP_URLS[name],  # noqa: S310
                                timeout=timeout) as response, \
            gzip.open(response) as unpacked, part.open("wb") as out:
        shutil.copyfileobj(unpacked, out)
    part.replace(dest)
    return dest
