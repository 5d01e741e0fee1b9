"""Tests for the command-line interface."""

import pytest

from repro.cli import _generate, main
from repro.graph.generators import erdos_renyi
from repro.graph.io import write_edge_list


class TestGenerateSpec:
    def test_rmat(self):
        assert _generate("rmat:6:4").num_vertices == 64

    def test_grid(self):
        assert _generate("grid:5:6").num_vertices == 30

    def test_webcrawl(self):
        assert _generate("webcrawl:40:20").num_vertices == 60

    def test_er(self):
        assert _generate("er:50:3").num_vertices == 50

    def test_unknown_kind(self):
        with pytest.raises(SystemExit):
            _generate("torus:3")


class TestMain:
    def test_generated_graph_runs(self, capsys):
        rc = main(["--generate", "rmat:6:4", "-a", "mrbc", "--sources", "4",
                   "--hosts", "2", "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "algorithm" in out
        assert "top 3 by betweenness" in out

    def test_file_input(self, tmp_path, capsys):
        g = erdos_renyi(30, 3.0, seed=9)
        p = tmp_path / "g.txt"
        write_edge_list(g, p)
        rc = main([str(p), "-a", "brandes", "--top", "2"])
        assert rc == 0
        assert "brandes" in capsys.readouterr().out

    def test_multiple_algorithms_agree(self, capsys):
        rc = main(["--generate", "er:40:3", "-a", "mrbc", "sbbc", "brandes",
                   "--sources", "5", "--hosts", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("\n") > 5

    def test_requires_exactly_one_input(self):
        with pytest.raises(SystemExit):
            main(["-a", "mrbc"])
        with pytest.raises(SystemExit):
            main(["file.txt", "--generate", "rmat:4:4"])

    def test_abbc_and_mfbc_paths(self, capsys):
        rc = main(["--generate", "er:30:3", "-a", "abbc", "mfbc",
                   "--sources", "4", "--hosts", "2", "--batch", "4"])
        assert rc == 0


#: One minimal invocation per command that builds a RunSpec from flags.
RUN_COMMANDS = {
    "repro": ["--generate", "er:10:2", "-k", "4"],
    "comm": ["comm", "mrbc", "--graph", "er:10:2"],
    "rounds": ["rounds", "sbbc", "--graph", "er:10:2"],
    "trace": ["trace", "mrbc", "--graph", "er:10:2"],
}


class TestRunFlags:
    @pytest.mark.parametrize("flag", ["--hosts", "--batch", "-k"])
    @pytest.mark.parametrize("command", sorted(RUN_COMMANDS))
    def test_zero_is_an_argparse_error(self, command, flag, tmp_path, capsys):
        argv = [*RUN_COMMANDS[command], flag, "0"]
        if command == "trace":
            argv += ["--out", str(tmp_path / "t")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        field = {"--hosts": "hosts", "--batch": "batch", "-k": "sources"}[flag]
        assert f"{field} must be >= 1" in capsys.readouterr().err

    def test_sources_capped_at_vertex_count(self, capsys):
        rc = main(["--generate", "er:10:2", "-a", "mrbc", "-k", "20"])
        assert rc == 0
        header, _, row = capsys.readouterr().out.splitlines()[:3]
        assert header.split()[:2] == ["algorithm", "sources"]
        assert row.split()[:2] == ["mrbc", "10"]

    def test_bad_graph_spec_exits_1(self):
        # SystemExit with a message exits 1 (argparse errors exit 2).
        with pytest.raises(SystemExit) as exc:
            main(["comm", "mrbc", "--graph", "torus:3"])
        assert "unknown generator kind" in exc.value.code
