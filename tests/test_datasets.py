import gzip
import urllib.request

from cyclebalance import datasets
from cyclebalance.graph import load_edge_list

EDGES = "# signed test network\n0\t1\t1\n1\t2\t-1\n2\t0\t1\n"


def test_fetch_snap_unpacks_with_timeout(tmp_path, monkeypatch):
    packed = tmp_path / "net.txt.gz"
    with gzip.open(packed, "wt") as fh:
        fh.write(EDGES)
    monkeypatch.setattr(datasets, "SNAP_URLS", {"net": packed.as_uri()})
    timeouts = []
    real_urlopen = urllib.request.urlopen

    def urlopen(url, *args, **kwargs):
        timeouts.append(kwargs.get("timeout"))
        return real_urlopen(url, *args, **kwargs)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    dest = datasets.fetch_snap("net", tmp_path / "out" / "net.tsv",
                               timeout=7.5)
    assert timeouts == [7.5]
    assert dest.read_text() == EDGES
    assert load_edge_list(dest).edges == {(0, 1): 1, (1, 2): -1, (2, 0): 1}
    assert sorted(p.name for p in dest.parent.iterdir()) == ["net.tsv"]
