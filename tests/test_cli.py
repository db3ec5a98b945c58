import io
import os
import sys
import threading

import numpy as np
import pytest
from conftest import cycle_graph, grid_graph, path_graph, random_connected_graph, triangle_graph

from graphshrink import UNBOUNDED, Graph, SolveParams, cli, parse_dimacs, solve, write_dimacs
from graphshrink.cli import build_parser, main
from graphshrink.matrices import (
    read_distance_matrix,
    read_precedence_matrix,
    write_distance_matrix,
    write_precedence_matrix,
)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.gr"
    path.write_text(write_dimacs(triangle_graph()))
    return path


@pytest.fixture
def random_file(tmp_path):
    path = tmp_path / "rand100.gr"
    path.write_text(write_dimacs(random_connected_graph(100, 42)))
    return path


def test_solve_writes_matrices(tmp_path, triangle_file, capsys):
    out = tmp_path / "dist.txt"
    pred = tmp_path / "pred.txt"
    rc = main(["solve", "--input", str(triangle_file),
               "--out", str(out), "--pred", str(pred)])
    assert rc == 0
    m = read_distance_matrix(out.read_text())
    assert m.get(1, 3) == 2
    p = read_precedence_matrix(pred.read_text())
    assert int(p.cells[1, 3]) == 2
    summary = capsys.readouterr().out
    assert "n=3" in summary and "removals=" in summary
    assert float(summary.split("write_seconds=")[1]) >= 0


def test_solve_reports_shortcuts(tmp_path, capsys):
    # the 5-cycle's first removal writes its one shortcut (see test_solver)
    path = tmp_path / "cycle5.gr"
    path.write_text(write_dimacs(cycle_graph(5)))
    assert main(["solve", "--input", str(path)]) == 0
    assert " shortcuts=1 " in capsys.readouterr().out


def _solve_files(tmp_path, src, tag, *knobs):
    """D and P bytes that `solve` writes for src under the given knob flags."""
    out, pred = tmp_path / f"dist_{tag}.txt", tmp_path / f"pred_{tag}.txt"
    assert main(["solve", "--input", str(src), *knobs, "--out", str(out),
                 "--pred", str(pred)]) == 0
    return out.read_bytes(), pred.read_bytes()


def test_solve_knob_flags_write_the_bounded_solve(tmp_path, capsys):
    g = grid_graph(8)
    src = tmp_path / "grid8.gr"
    src.write_text(write_dimacs(g))
    written = _solve_files(tmp_path, src, "bounded", "--dmax", "3", "--imax", "0")
    result = solve(g, SolveParams(d_max=3, i_max=0))
    d, p = io.StringIO(), io.StringIO()
    write_distance_matrix(result.distances, d)
    write_precedence_matrix(result.precedence, p)
    assert written == (d.getvalue().encode(), p.getvalue().encode())
    # full contraction leaves one vertex; the bounded knobs leave 39
    assert result.residual_order > 1
    assert f" residual_order={result.residual_order} " in capsys.readouterr().out


def test_dmax_spelled_inf_solves_as_the_default(tmp_path, random_file):
    default = _solve_files(tmp_path, random_file, "default")
    for spelling in ("inf", "INFINITY"):
        args = build_parser().parse_args(["solve", "--input", "g.gr", "--dmax", spelling])
        assert args.dmax == UNBOUNDED
        assert _solve_files(tmp_path, random_file, spelling, "--dmax", spelling) == default


@pytest.mark.parametrize("flag, message", [("--dmax", "d_max must be >= 1 or UNBOUNDED, got 0"),
                                           ("--nmin", "n_min must be >= 1, got 0")],
                         ids=["dmax", "nmin"])
def test_solve_refuses_a_knob_below_one(triangle_file, capsys, flag, message):
    assert main(["solve", "--input", str(triangle_file), flag, "0"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["solve", "verify", "bench"])
def test_knobs_are_refused_before_the_input_is_parsed(triangle_file, monkeypatch, capsys,
                                                      command):
    monkeypatch.setattr(cli, "parse_dimacs", lambda *a: pytest.fail("parsed before the knobs"))
    assert main([command, "--input", str(triangle_file), "--nmin", "0"]) == 1
    assert capsys.readouterr().err == "error: n_min must be >= 1, got 0\n"


def test_solve_without_outputs_reports_zero_write_time(triangle_file, capsys):
    assert main(["solve", "--input", str(triangle_file)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("write_seconds=0.000")


WRITERS = {"D": "write_distance_matrix", "P": "write_precedence_matrix"}


@pytest.fixture
def grid32_file(tmp_path):
    path = tmp_path / "grid32.gr"
    path.write_text(write_dimacs(grid_graph(32, 0.05, 1)))
    return path


@pytest.mark.parametrize("flag", ["--out", "--pred"])
def test_solve_one_output_writes_the_bytes_of_both_on_the_main_thread(tmp_path, grid32_file,
                                                                      monkeypatch, flag):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the two writers of `both` swap the lock often
    try:
        both = dict(zip(["--out", "--pred"], _solve_files(tmp_path, grid32_file, "both")))
    finally:
        sys.setswitchinterval(interval)
    writer = WRITERS["D" if flag == "--out" else "P"]
    original, threads = getattr(cli, writer), []

    def recording(m, fh):
        threads.append(threading.current_thread())
        original(m, fh)

    monkeypatch.setattr(cli, writer, recording)
    alone = tmp_path / "alone.txt"
    assert main(["solve", "--input", str(grid32_file), flag, str(alone)]) == 0
    assert alone.read_bytes() == both[flag]
    assert threads == [threading.main_thread()]


@pytest.mark.parametrize("failing", ["D", "P", "DP"])
def test_solve_reports_a_failed_write_once_and_closes_both_files(tmp_path, triangle_file,
                                                                 monkeypatch, capsys, failing):
    for name in failing:
        def writer(m, fh, name=name):
            raise OSError(f"{name} failed")
        monkeypatch.setattr(cli, WRITERS[name], writer)
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    before = threading.active_count()
    assert main(["solve", "--input", str(triangle_file), "--out", str(tmp_path / "d.txt"),
                 "--pred", str(tmp_path / "p.txt")]) == 1
    assert capsys.readouterr().err == f"error: {failing[0]} failed\n"  # D's first
    assert threading.active_count() == before
    assert len(opened) == 2 and all(fh.closed for fh in opened)


@pytest.mark.parametrize("command", ["solve", "verify", "bench", "subgraph --size 2"])
def test_solve_disconnected_names_vertices(tmp_path, capsys, command):
    path = tmp_path / "disc.gr"
    path.write_text("p sp 4 4\na 1 2 1\na 2 1 1\na 3 4 1\na 4 3 1\n")
    rc = main([*command.split(), "--input", str(path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: graph is disconnected: no path between vertices 1 and 3\n")


def test_solve_parse_failure(tmp_path, capsys):
    path = tmp_path / "bad.gr"
    path.write_text("p sp 2 1\na 1 9 3\n")
    assert main(["solve", "--input", str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out", "--pred"])
def test_solve_refuses_a_missing_output_directory_before_solving(tmp_path, triangle_file,
                                                                 monkeypatch, capsys, flag):
    monkeypatch.setattr(cli, "solve", lambda *a: pytest.fail("solved before checking outputs"))
    missing = tmp_path / "missing" / "d.txt"
    assert main(["solve", "--input", str(triangle_file), flag, str(missing)]) == 1
    assert capsys.readouterr().err == f"error: output directory not found: {missing.parent}\n"


@pytest.mark.parametrize("pred", ["d.txt", "./d.txt", "sub/../d.txt"])
def test_solve_refuses_one_file_for_both_matrices_before_parsing(tmp_path, triangle_file,
                                                                  monkeypatch, capsys, pred):
    # both would be written, and the file would hold only P
    monkeypatch.setattr(cli, "parse_dimacs", lambda *a: pytest.fail("parsed before checking"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert main(["solve", "--input", str(triangle_file), "--out", "d.txt", "--pred", pred]) == 1
    assert capsys.readouterr().err == "error: --out and --pred name the same file: d.txt\n"
    assert not (tmp_path / "d.txt").exists()


def test_solve_refuses_two_hard_links_to_one_file_before_parsing(tmp_path, triangle_file,
                                                               monkeypatch, capsys):
    monkeypatch.setattr(cli, "parse_dimacs", lambda *a: pytest.fail("parsed before checking"))
    d, p = tmp_path / "d.txt", tmp_path / "p.txt"
    d.write_text("kept\n")
    os.link(d, p)
    assert main(["solve", "--input", str(triangle_file), "--out", str(d), "--pred", str(p)]) == 1
    assert capsys.readouterr().err == f"error: --out and --pred name the same file: {d}\n"
    assert d.read_text() == "kept\n"


def test_bench_refuses_a_missing_report_directory_before_parsing(tmp_path, triangle_file,
                                                                 monkeypatch, capsys):
    monkeypatch.setattr(cli, "parse_dimacs", lambda *a: pytest.fail("parsed before checking"))
    monkeypatch.setattr(cli, "solve", lambda *a: pytest.fail("solved before checking"))
    missing = tmp_path / "missing" / "report.csv"
    assert main(["bench", "--input", str(triangle_file), "--report", str(missing)]) == 1
    assert capsys.readouterr().err == f"error: output directory not found: {missing.parent}\n"


@pytest.mark.parametrize("argv", [["solve", "--out"], ["solve", "--pred"], ["bench", "--report"]],
                         ids=["solve_out", "solve_pred", "bench_report"])
def test_refuses_a_directory_as_output_path_before_parsing(tmp_path, triangle_file,
                                                            monkeypatch, capsys, argv):
    monkeypatch.setattr(cli, "parse_dimacs", lambda *a: pytest.fail("parsed before checking"))
    assert main([argv[0], "--input", str(triangle_file), *argv[1:], str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: output path is a directory: {tmp_path}\n"


def test_subgraph_refuses_a_missing_output_directory_before_parsing(tmp_path, triangle_file,
                                                                   monkeypatch, capsys):
    monkeypatch.setattr(cli, "parse_dimacs", lambda *a: pytest.fail("parsed before checking"))
    missing = tmp_path / "missing" / "x.gr"
    argv = ["subgraph", "--input", str(triangle_file), "--size", "2", "--out", str(missing)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: output directory not found: {missing.parent}\n"


def test_verify_missing_expected_file_is_an_error_line(tmp_path, triangle_file, capsys):
    missing = tmp_path / "missing.txt"
    assert main(["verify", "--input", str(triangle_file), "--expected", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err and "Traceback" not in err


@pytest.mark.parametrize("kind, message", [("missing", "not found"),
                                           ("directory", "is a directory")])
def test_verify_refuses_an_unreadable_expected_before_parsing(tmp_path, triangle_file,
                                                              monkeypatch, capsys, kind, message):
    expected = tmp_path / kind
    if kind == "directory":
        expected.mkdir()
    monkeypatch.setattr(cli, "parse_dimacs", lambda *a: pytest.fail("parsed before checking"))
    monkeypatch.setattr(cli, "solve", lambda *a: pytest.fail("solved before checking"))
    assert main(["verify", "--input", str(triangle_file), "--expected", str(expected)]) == 1
    assert capsys.readouterr().err == f"error: --expected {message}: {expected}\n"


def test_solve_missing_input_file_is_an_error_line(tmp_path, capsys):
    missing = tmp_path / "missing.gr"
    assert main(["solve", "--input", str(missing)]) == 1
    assert capsys.readouterr().err == f"error: input file not found: {missing}\n"


def test_solve_input_directory_is_an_error_line(tmp_path, capsys):
    assert main(["solve", "--input", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_solve_non_ascii_input_names_the_line(tmp_path, capsys):
    path = tmp_path / "bad.gr"
    path.write_bytes(b"c \xff comment\np sp 2 1\na 1 2 \xd9\xa3\n")
    assert main(["solve", "--input", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 3: malformed line")


def test_solve_refuses_above_cap(tmp_path, capsys):
    path = tmp_path / "small.gr"
    path.write_text(write_dimacs(random_connected_graph(30, 1)))
    assert main(["solve", "--input", str(path), "--max-n", "10"]) == 1
    assert "cap" in capsys.readouterr().err


def test_solve_refuses_above_cap_before_building_the_graph(tmp_path, monkeypatch, capsys):
    def no_graph(n):
        raise AssertionError(f"Graph({n}) built for an input above the cap")

    monkeypatch.setattr("graphshrink.dimacs.Graph", no_graph)
    path = tmp_path / "huge.gr"
    path.write_text("c header only\np sp 20000 0\n")
    assert main(["solve", "--input", str(path), "--max-n", "15000"]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "cap" in err and "--max-n" in err


@pytest.mark.parametrize("command", [["stats"], ["subgraph", "--size", "2"]])
def test_graph_only_commands_refuse_a_huge_order_before_building_the_graph(
        tmp_path, monkeypatch, capsys, command):
    def no_graph(n):
        raise AssertionError(f"Graph({n}) built for an input above the cap")

    monkeypatch.setattr("graphshrink.dimacs.Graph", no_graph)
    path = tmp_path / "huge.gr"
    path.write_text("p sp 1000000000 0\n")
    assert main([command[0], "--input", str(path), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "cap 30000000" in err and "--max-n" in err


def test_graph_only_commands_admit_the_usa_road_graph():
    for command in (["stats"], ["subgraph", "--size", "2"]):
        args = build_parser().parse_args([command[0], "--input", "usa.gr", *command[1:]])
        assert args.max_n >= 23_947_347
    assert build_parser().parse_args(["solve", "--input", "usa.gr"]).max_n == 15000


def test_solve_deterministic_outputs(tmp_path, random_file):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"dist_{tag}.txt"
        pred = tmp_path / f"pred_{tag}.txt"
        assert main(["solve", "--input", str(random_file),
                     "--out", str(out), "--pred", str(pred)]) == 0
        outs.append((out.read_bytes(), pred.read_bytes()))
    assert outs[0] == outs[1]


def test_verify_triangle_passes(triangle_file, capsys):
    assert main(["verify", "--input", str(triangle_file)]) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_random_passes(random_file):
    assert main(["verify", "--input", str(random_file)]) == 0


def test_verify_one_vertex_passes(tmp_path, capsys):
    path = tmp_path / "one.gr"
    path.write_text("p sp 1 0\n")
    assert main(["verify", "--input", str(path)]) == 0
    assert capsys.readouterr().out == "OK: n=1, every distance and precedence cell certified\n"


def test_verify_corrupted_expected_matrix_names_cell(tmp_path, triangle_file, capsys):
    result = solve(triangle_graph())
    result.distances.cells[1, 3] = 99
    expected = tmp_path / "expected.txt"
    with open(expected, "w") as fh:
        write_distance_matrix(result.distances, fh)
    rc = main(["verify", "--input", str(triangle_file), "--expected", str(expected)])
    assert rc == 1
    assert "(1,3)" in capsys.readouterr().err


def test_verify_refuses_an_expected_matrix_of_another_order(tmp_path, triangle_file,
                                                            monkeypatch, capsys):
    expected = tmp_path / "expected.txt"
    with open(expected, "w") as fh:
        write_distance_matrix(solve(path_graph([1, 1, 1])).distances, fh)
    monkeypatch.setattr(cli, "solve", lambda *a: pytest.fail("solved before checking"))
    assert main(["verify", "--input", str(triangle_file), "--expected", str(expected)]) == 1
    assert capsys.readouterr().err == "error: expected matrix order 4 != n 3\n"


def test_verify_names_the_line_of_an_expected_byte_that_is_not_utf8(tmp_path, triangle_file,
                                                                    capsys):
    expected = tmp_path / "expected.txt"
    expected.write_bytes(b"# graphshrink distance matrix\r\n# n 3\r\n# ids 1 2 3\r\n"
                         b"0 1 \xff\r\n1 0 1\r\n2 1 0\r\n")
    assert main(["verify", "--input", str(triangle_file), "--expected", str(expected)]) == 1
    assert capsys.readouterr().err.startswith("error: line 4: expected 3 cells, ")


def test_verify_reads_an_expected_matrix_with_crlf_line_ends(tmp_path, triangle_file, capsys):
    expected = tmp_path / "expected.txt"
    out = io.StringIO()
    write_distance_matrix(solve(triangle_graph()).distances, out)
    expected.write_bytes(out.getvalue().replace("\n", "\r\n").encode())
    assert main(["verify", "--input", str(triangle_file), "--expected", str(expected)]) == 0
    assert capsys.readouterr().out.startswith("OK: ")


def test_verify_names_the_cell_the_expected_matrix_disagrees_on(tmp_path, triangle_file,
                                                               monkeypatch, capsys):
    expected = tmp_path / "expected.txt"
    with open(expected, "w") as fh:
        write_distance_matrix(solve(triangle_graph()).distances, fh)

    def corrupted_solve(g, params):
        result = solve(g, params)
        result.distances.cells[1, 3] = 99
        return result

    monkeypatch.setattr(cli, "solve", corrupted_solve)
    monkeypatch.setattr(cli, "first_bad_cell",
                        lambda g, d, p: pytest.fail("certified after the expected diff failed"))
    assert main(["verify", "--input", str(triangle_file), "--expected", str(expected)]) == 1
    assert capsys.readouterr().err == "FAIL: cell (1,3): pipeline=99 expected=2\n"


def test_verify_names_the_bad_distance_cell(triangle_file, monkeypatch, capsys):
    def corrupted_solve(g, params):
        result = solve(g, params)
        result.distances.cells[1, 3] = result.distances.cells[3, 1] = 99
        return result

    monkeypatch.setattr(cli, "solve", corrupted_solve)
    assert main(["verify", "--input", str(triangle_file)]) == 1
    assert capsys.readouterr().err == ("FAIL: distance cell (1,3): D[1][3] = 99 != min over q "
                                       "in N(3) of D[1][q] + w(q,3) = 2\n")


def test_verify_names_the_bad_precedence_cell(triangle_file, monkeypatch, capsys):
    def corrupted_solve(g, params):
        result = solve(g, params)
        result.precedence.cells[1, 3] = 0  # the direct edge (1, 3) weighs 5
        return result

    monkeypatch.setattr(cli, "solve", corrupted_solve)
    assert main(["verify", "--input", str(triangle_file)]) == 1
    assert ("FAIL: precedence cell (1,3): last hop from 1: D[1][1] + w(1,3) = 5 != D[1][3] = 2"
            in capsys.readouterr().err)


def test_verify_refuses_a_cycle_of_zero_weight_last_hops(tmp_path, monkeypatch, capsys):
    # 1 -(10)- 2 -(0)- 3: the last hops of (1,2) and (1,3) are tight, but
    # point at each other, so neither walk reaches 1
    g = Graph(3)
    g.set_edge(1, 2, 10)
    g.set_edge(2, 3, 0)
    path = tmp_path / "zero.gr"
    path.write_text(write_dimacs(g))

    def corrupted_solve(g, params):
        result = solve(g, params)
        result.precedence.cells[1, 2] = 3
        result.precedence.cells[1, 3] = 2
        return result

    monkeypatch.setattr(cli, "solve", corrupted_solve)
    assert main(["verify", "--input", str(path)]) == 1
    assert capsys.readouterr().err == ("FAIL: precedence cell (1,2): its last hops cycle at "
                                       "weight 0 short of 1\n")


@pytest.mark.parametrize("argv", [["stats", "--dmax", "3"], ["stats", "--seed", "2"],
                                  ["subgraph", "--size", "2", "--nmin", "3"],
                                  ["solve", "--seed", "2"], ["bench", "--seed", "2"],
                                  ["verify", "--sample", "3"], ["verify", "--seed", "2"]])
def test_commands_refuse_options_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([*argv, "--input", "g.gr"])
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bench_refuses_zero_repeats(triangle_file, capsys):
    assert main(["bench", "--input", str(triangle_file), "--repeats", "0"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: --repeats must be at least 1, got 0\n"


def test_subgraph_takes_a_seed():
    argv = ["subgraph", "--size", "2", "--input", "g.gr", "--seed", "5"]
    assert build_parser().parse_args(argv).seed == 5


def test_bench_writes_report(tmp_path, random_file, capsys):
    report = tmp_path / "report.csv"
    rc = main(["bench", "--input", str(random_file), "--repeats", "2",
               "--report", str(report)])
    assert rc == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0] == ("instance,n,m,pa_seconds,db_seconds,speedup,removals,"
                        "residual_order,max_removed_degree,matrices_equal")
    assert capsys.readouterr().out == lines[1] + "\n"
    row = lines[1].split(",")
    assert row[0] == "rand100"
    assert row[1] == "100"
    assert row[-1] == "True"


def test_bench_reports_a_solve_that_disagrees_with_dijkstra(triangle_file, monkeypatch, capsys):
    def corrupted_solve(g, params):
        result = solve(g, params)
        result.distances.cells[1, 3] = 99
        return result

    monkeypatch.setattr(cli, "solve", corrupted_solve)
    assert main(["bench", "--input", str(triangle_file), "--repeats", "1"]) == 1
    out = capsys.readouterr()
    assert out.out.startswith("triangle,3,3,") and out.out.endswith(",False\n")
    assert out.err == "FAIL: PA and DB matrices differ\n"


def test_bench_appends_rows(tmp_path, triangle_file):
    report = tmp_path / "report.csv"
    main(["bench", "--input", str(triangle_file), "--report", str(report)])
    main(["bench", "--input", str(triangle_file), "--report", str(report)])
    lines = report.read_text().strip().splitlines()
    assert len(lines) == 3  # one header, two rows


def test_subgraph_roundtrip(tmp_path):
    src = tmp_path / "grid.gr"
    src.write_text(write_dimacs(grid_graph(side=10)))
    out = tmp_path / "sub.gr"
    rc = main(["subgraph", "--input", str(src), "--size", "40",
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    sub = parse_dimacs(out.read_text())
    assert sub.n_original == 40
    assert sub.unreachable_pair() is None


def test_subgraph_without_out_prints_the_dimacs_text(tmp_path, capsys):
    src = tmp_path / "grid.gr"
    src.write_text(write_dimacs(grid_graph(side=10)))
    out = tmp_path / "sub.gr"
    argv = ["subgraph", "--input", str(src), "--size", "40", "--seed", "2"]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()


def test_subgraph_deterministic(tmp_path):
    src = tmp_path / "grid.gr"
    src.write_text(write_dimacs(grid_graph(side=8)))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sub_{tag}.gr"
        assert main(["subgraph", "--input", str(src), "--size", "20",
                     "--seed", "3", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_subgraph_size_too_large(tmp_path, triangle_file, capsys):
    assert main(["subgraph", "--input", str(triangle_file), "--size", "9"]) == 1
    assert "error" in capsys.readouterr().err


def test_stats_row(triangle_file, capsys):
    assert main(["stats", "--input", str(triangle_file)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "triangle,3,3,2.0000,2"


def test_stats_single_vertex(tmp_path, capsys):
    path = tmp_path / "one.gr"
    path.write_text("p sp 1 0\n")
    assert main(["stats", "--input", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "one,1,0,0.0000,0"
