import hashlib
import json
from pathlib import Path

import pytest

from cyclebalance.cli import build_parser, cli_main
from cyclebalance.datasets import fixture_text

TRIAD_TSV = fixture_text("triad.tsv")


@pytest.fixture
def triad_file(tmp_path):
    p = tmp_path / "triad.tsv"
    p.write_text(TRIAD_TSV)
    return p


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_census_csv_values(triad_file, capsys):
    code, out, _ = run(capsys, "census", "--input", str(triad_file),
                       "--max-length", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("length,n_pos,n_neg,R,U,K")
    row2 = lines[2].split(",")
    row3 = lines[3].split(",")
    assert row2[3] == "0" and row3[3] == "1"


def test_census_json_structure(triad_file, capsys):
    code, out, _ = run(capsys, "census", "--input", str(triad_file),
                       "--max-length", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dataset"]["vertices"] == 3
    assert payload["rows"][2]["R"] == 1


def test_montecarlo_deterministic_bytes(triad_file, capsys):
    argv = ("montecarlo", "--input", str(triad_file), "--max-length", "3",
            "--samples", "5", "--batches", "3", "--sample-size", "3",
            "--seed", "42", "--format", "json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_montecarlo_workers_same_output(triad_file, capsys):
    base = ("montecarlo", "--input", str(triad_file), "--max-length", "3",
            "--samples", "4", "--batches", "2", "--sample-size", "3",
            "--seed", "7", "--format", "json")
    _, out1, _ = run(capsys, *base)
    _, out2, _ = run(capsys, *base, "--workers", "2")
    assert out1 == out2


def test_shufflenull_workers_same_output(triad_file, capsys):
    base = ("shufflenull", "--input", str(triad_file), "--max-length", "3",
            "--shuffles", "3", "--seed", "5", "--format", "json")
    _, out1, _ = run(capsys, *base)
    _, out2, _ = run(capsys, *base, "--workers", "2")
    assert out1 == out2


def test_orbits_walks_lowexact(triad_file, capsys):
    for cmd in ("orbits", "walks", "lowexact"):
        length = ("--max-length", "3") if cmd != "lowexact" else ()
        code, out, _ = run(capsys, cmd, "--input", str(triad_file),
                           *length, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] in ("orbits", "walks", "exact")


def test_lowexact_rejects_max_length(triad_file, capsys):
    # its lengths are fixed at 1..3, so a longer one is not silently dropped
    code, out, err = run(capsys, "lowexact", "--input", str(triad_file),
                         "--max-length", "9")
    assert code == 1
    assert out == ""
    assert "usage error" in err and "--max-length" in err


@pytest.mark.parametrize("cmd", ["census", "orbits", "walks"])
@pytest.mark.parametrize("length", ["0", "-1"])
def test_max_length_below_one_is_usage_error(cmd, length, triad_file, capsys):
    code, out, err = run(capsys, cmd, "--input", str(triad_file),
                         "--max-length", length)
    assert code == 1
    assert out == ""
    assert "usage error: max_length must be >= 1" in err


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_montecarlo_workers_below_one_is_usage_error(workers, triad_file,
                                                     capsys):
    code, out, err = run(capsys, "montecarlo", "--input", str(triad_file),
                         "--max-length", "3", "--samples", "2",
                         "--batches", "2", "--sample-size", "3",
                         "--workers", workers)
    assert code == 1
    assert out == ""
    assert "usage error: workers must be >= 1" in err


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_shufflenull_workers_below_one_is_usage_error(workers, triad_file,
                                                      capsys):
    code, out, err = run(capsys, "shufflenull", "--input", str(triad_file),
                         "--max-length", "3", "--shuffles", "2",
                         "--workers", workers)
    assert code == 1
    assert out == ""
    assert "usage error: workers must be >= 1" in err


@pytest.mark.parametrize("cmd, flags", [
    ("montecarlo", ["--samples", "2", "--batches", "2", "--sample-size", "3"]),
    ("shufflenull", ["--shuffles", "2"]),
])
def test_negative_seed_is_usage_error(cmd, flags, triad_file, capsys):
    code, out, err = run(capsys, cmd, "--input", str(triad_file),
                         "--max-length", "3", "--seed", "-1", *flags)
    assert code == 1
    assert out == ""
    assert "seed must be >= 0, got -1" in err


def test_null_and_shufflenull(triad_file, capsys):
    code, out, _ = run(capsys, "null", "--input", str(triad_file),
                       "--max-length", "3", "--format", "csv")
    assert code == 0
    assert "null_R" in out.splitlines()[0]
    code, out, _ = run(capsys, "shufflenull", "--input", str(triad_file),
                       "--max-length", "3", "--shuffles", "3", "--seed", "1")
    assert code == 0


def test_fit_command(tmp_path, capsys):
    # K4 with one negative edge defines ratios at lengths 2, 3 and 4
    lines = []
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for i, (u, v) in enumerate(pairs):
        lines.append(f"{u} {v} {'-1' if i == 0 else '1'}")
    p = tmp_path / "k4.tsv"
    p.write_text("\n".join(lines))
    code, out, _ = run(capsys, "fit", "--input", str(p), "--undirected",
                       "--max-length", "4", "--fit-range", "3:4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert "xi" in payload["extra"]


def test_report_command(triad_file, capsys):
    code, out, _ = run(capsys, "report", "--input", str(triad_file),
                       "--max-length", "3", "--format", "csv")
    assert code == 0
    header, *rows = out.splitlines()
    assert header.split(",")[-3:] == ["null_R", "null_lo", "null_hi"]
    assert len(rows) == 3


def test_exit_code_usage_error(triad_file, capsys):
    assert run(capsys, "census", "--no-such-flag")[0] == 1
    assert run(capsys, "montecarlo", "--input", str(triad_file),
               "--max-length", "9",
               "--sample-size", "4")[0] == 1  # sample_size < max_length


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "census", "--input", "/nonexistent/g.tsv")
    assert code == 2
    assert "data error" in err


def test_exit_code_data_error(tmp_path, capsys):
    p = tmp_path / "bad.tsv"
    p.write_text("0 1 1\n0 1 -1\n")
    code, _, err = run(capsys, "census", "--input", str(p))
    assert code == 2


def test_exit_code_non_convergence(triad_file, capsys):
    code, out, _ = run(capsys, "montecarlo", "--input", str(triad_file),
                       "--max-length", "3", "--samples", "1", "--batches", "2",
                       "--sample-size", "3", "--seed", "3",
                       "--target", "1e-12", "--sample-cap", "2")
    assert code in (0, 3)  # 3 unless the tiny graph converges exactly
    # force guaranteed non-convergence with a noisy graph
    noisy = triad_file.parent / "noisy.tsv"
    lines = []
    import random as _r
    r = _r.Random(5)
    for u in range(12):
        for v in range(u + 1, 12):
            if r.random() < 0.3:
                s = r.choice(("1", "-1"))
                lines += [f"{u} {v} {s}", f"{v} {u} {s}"]
    noisy.write_text("\n".join(lines))
    code, _, _ = run(capsys, "montecarlo", "--input", str(noisy),
                     "--max-length", "4", "--samples", "2", "--batches", "2",
                     "--sample-size", "5", "--seed", "5",
                     "--target", "1e-9", "--sample-cap", "4")
    assert code == 3


def test_output_file(triad_file, tmp_path, capsys):
    dest = tmp_path / "out.csv"
    code, out, _ = run(capsys, "census", "--input", str(triad_file),
                       "--max-length", "2", "--output", str(dest))
    assert code == 0
    assert out == ""
    assert dest.read_text().startswith("length,")


def test_fixture_gahuku_gama_loads():
    from cyclebalance.datasets import load_gahuku_gama
    g = load_gahuku_gama()
    assert g.vertex_count == 16
    assert g.from_undirected


def test_montecarlo_infinite_u_prints_inf(triad_file, capsys):
    # every sampled triangle of the triad is negative: R = 1, U = inf
    argv = ("montecarlo", "--input", str(triad_file), "--max-length", "3",
            "--samples", "3", "--batches", "2", "--sample-size", "3")
    _, out, _ = run(capsys, *argv, "--format", "csv")
    row3 = out.splitlines()[3].split(",")
    assert row3[3:6] == ["1", "inf", "-1"]
    _, out, _ = run(capsys, *argv, "--format", "json")
    row3 = json.loads(out)["rows"][2]
    assert (row3["R"], row3["U"], row3["K"]) == (1.0, "inf", -1.0)


# the arguments, beyond --input, that each subcommand reading an input
# needs to run quickly on the triad
TIMED_ARGS = {
    "census": ("--max-length", "3"),
    "montecarlo": ("--max-length", "3", "--samples", "3", "--batches", "2",
                   "--sample-size", "3"),
    "orbits": ("--max-length", "3"),
    "walks": ("--max-length", "3"),
    "lowexact": (),
    "null": ("--max-length", "3"),
    "shufflenull": ("--max-length", "3", "--shuffles", "2"),
    "fit": ("--max-length", "3", "--fit-range", "2:3"),
    "report": ("--max-length", "3"),
}


def test_timed_args_cover_every_input_subcommand():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(TIMED_ARGS) == set(sub.choices) - {"fetch"}


@pytest.mark.parametrize("cmd", sorted(TIMED_ARGS))
def test_timing_flag_on_every_subcommand(cmd, triad_file, capsys):
    argv = (cmd, "--input", str(triad_file), *TIMED_ARGS[cmd],
            "--format", "json")
    code, out, _ = run(capsys, *argv, "--timing")
    assert code == 0
    assert json.loads(out)["wall_time_s"] >= 0.0
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "wall_time_s" not in json.loads(out)


# sha256 of each subcommand's stdout on the sixteen-tribe fixture; any
# change to a count, a ratio or the formatting changes a digest
GOLDEN_CASES = {
    "census": ("census", "--max-length", "8"),
    "lowexact": ("lowexact",),
    "orbits": ("orbits", "--max-length", "8"),
    "orbits-short": ("orbits", "--max-length", "2"),
    # at length 20 the traces reach the int64 and object dtypes
    "orbits-20": ("orbits", "--max-length", "20"),
    "walks": ("walks", "--max-length", "8"),
    "walks-20": ("walks", "--max-length", "20"),
    "null": ("null", "--max-length", "8"),
    "report": ("report", "--max-length", "8"),
    "fit": ("fit", "--max-length", "8"),
    "shufflenull": ("shufflenull", "--max-length", "6", "--shuffles", "3",
                    "--seed", "5"),
    "montecarlo": ("montecarlo", "--max-length", "6", "--samples", "4",
                   "--batches", "3", "--sample-size", "8", "--seed", "11"),
    "montecarlo-mean": ("montecarlo", "--max-length", "5", "--samples", "3",
                        "--batches", "4", "--sample-size", "6", "--seed", "2",
                        "--aggregation", "mean"),
}
GOLDEN_SHA256 = {
    ("census", "csv"): "924909fcc870c5c648f2d6da7aee64bcc89eb34c1b697cdd1692f7942eee61ca",
    ("census", "json"): "1e185fe13dd7cddef70115a7e195d509a057a82a21760fc4d6bfd6ecb3c4b8b6",
    ("lowexact", "csv"): "44d4b97635588eaf097deee61f22866100da0ca5ea3634ebccb604ca9b3be184",
    ("lowexact", "json"): "08d4d3b257885d6cf91c4bb2e59c56dfec5138987f46fe4672565f06e878cfaf",
    ("orbits", "csv"): "cd13c90aa8d3a336ab763ab128e18f1194a5c23303fa28eb6cea8e1120bed12d",
    ("orbits", "json"): "76d7e3b62eafb375420e7568db37d3e7bd3fc034c5cbb13411f10471175d1db0",
    ("orbits-20", "csv"): "2312780e765304e5080a0f1ef6e82fe7a74f5901644c339549a3f4b9b3ae6c09",
    ("orbits-20", "json"): "5912111c4fe72407beea7664f418463fb1815131808fa036a3636194cca0b2dd",
    ("orbits-short", "csv"): "b2b560eb4b47ef1b08c1af0dc9961af6419997868d84ceeefa09bc95cb33a0a9",
    ("orbits-short", "json"): "075bd7209c252bd5d7509268465998ddef917a6be3baf2f1b08a71a426cb290d",
    ("walks", "csv"): "0ac7b61f06568ec695be31cb1a8209e52b685a37e6211545df7bebbc17588e66",
    ("walks", "json"): "e565449921cc0027c28d5b64ff80be2954fdb0f44474e1610dc8a4ea191e5ba2",
    ("walks-20", "csv"): "eb9a610063940d0f423506ff32aa7f673973efc78493fe53412357df2f36fa8d",
    ("walks-20", "json"): "55ec9d13875548b6e52b503a4809702c9c9e15f99fa9ae069631d35038abd143",
    ("null", "csv"): "b36d29a33943b1662cf91f8923119cb329846081e909f95a0868063b6d3e1014",
    ("null", "json"): "773a1c15350229946b4b67a0cf54d67485ec8a9206656a086d91862b51520bdd",
    ("report", "csv"): "b36d29a33943b1662cf91f8923119cb329846081e909f95a0868063b6d3e1014",
    ("report", "json"): "d09fdf3d4b0cc714cec8e216a17bcfac7aebbfa0b7745ce169d24b30e1787a35",
    ("fit", "csv"): "924909fcc870c5c648f2d6da7aee64bcc89eb34c1b697cdd1692f7942eee61ca",
    ("fit", "json"): "770c7c1148e77d1c12520bc8cc39e0023167a4803151816f844160bdc0356bfe",
    ("shufflenull", "csv"): "7571739716b2e1fb71e82adb034e7794629ed488d1f056a9754e8af93dc9892e",
    ("shufflenull", "json"): "a90a1bf9b24bdb07515db0d93f8b14d812518b920f0cec9823bf69acde7541b6",
    ("montecarlo", "csv"): "ebea39908249939f003a7d98942f8a5a335ba59adbc1459a6fa2d007d952000c",
    ("montecarlo", "json"): "66e9076ffb622e36e165706268561d2527bd9b1ac999e6bc4ba521c5ca80cdf7",
    ("montecarlo-mean", "csv"): "1bbb7f18af3948e55e67bc241fa17218272d3c115f4f7d2961d1d144ffcf1fca",
    ("montecarlo-mean", "json"): "4c501aa3b334e4b20d5d9c0754ec5d01cf97b11b96872b983742b6d69cdb371f",
}


@pytest.mark.parametrize("case,fmt", sorted(GOLDEN_SHA256))
def test_cli_golden_bytes(case, fmt, tmp_path, capsys):
    p = tmp_path / "gahuku_gama.tsv"
    p.write_text(fixture_text("gahuku_gama.tsv"))
    code, out, _ = run(capsys, *GOLDEN_CASES[case], "--input", str(p),
                       "--undirected", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN_SHA256[case, fmt], out
