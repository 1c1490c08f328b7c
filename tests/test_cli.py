"""The repro-wcbk command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.core.kernel import numpy_available
from repro.data.adult import ADULT_SCHEMA
from repro.data.hierarchies import adult_hierarchies
from repro.data.loader import load_csv
from repro.engine import DisclosureEngine
from repro.experiments.fig5 import FIG5_NODE
from repro.experiments.runner import default_adult_table
from repro.generalization.apply import bucketize_at
from repro.generalization.lattice import GeneralizationLattice


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_node_parsing(self):
        args = build_parser().parse_args(["fig5", "--node", "1,2,0,1"])
        assert args.node == (1, 2, 0, 1)

    def test_bad_node_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--node", "a,b"])


# Every command here runs against the synthetic Adult table (even the
# csv-input test generates its fixture file first).
@pytest.mark.skipif(
    not numpy_available(),
    reason="the synthetic Adult generator needs numpy (repro[fast])",
)
class TestCommands:
    def test_generate_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "synthetic.csv"
        code = main(["generate", "--out", str(out), "--rows", "200"])
        assert code == 0
        table = load_csv(out, ADULT_SCHEMA)
        assert len(table) == 200
        assert "wrote 200 rows" in capsys.readouterr().out

    def test_fig5_prints_13_rows(self, capsys):
        code = main(["fig5", "--rows", "800"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert " 12  " in out

    def test_fig6_runs(self, capsys):
        code = main(["fig6", "--rows", "400"])
        assert code == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_fig5_csv_export(self, tmp_path, capsys):
        out = tmp_path / "fig5.csv"
        code = main(["fig5", "--rows", "400", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,implication,negation"
        assert len(lines) == 1 + 13

    def test_fig6_csv_export(self, tmp_path, capsys):
        out = tmp_path / "fig6.csv"
        code = main(["fig6", "--rows", "400", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,min_entropy,least_max_disclosure"
        assert len(lines) > 6  # at least one envelope point per k

    def test_disclosure_command(self, capsys):
        code = main(
            ["disclosure", "--rows", "500", "--node", "3,2,1,1", "--k", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "implications" in out and "negations" in out

    def test_search_command(self, capsys):
        code = main(["search", "--rows", "500", "--c", "0.9", "--k", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "minimal safe" in out
        assert "best by precision" in out

    def test_search_with_impossible_threshold(self, capsys):
        # c close to 0 is unsatisfiable: even full suppression disclosures
        # more than a sliver.
        code = main(["search", "--rows", "300", "--c", "0.01", "--k", "1"])
        assert code == 1

    def test_search_rejects_non_finite_threshold(self, capsys):
        code = main(["search", "--rows", "300", "--c", "nan", "--k", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert "error: threshold c must be in (0, 1], got nan" in captured.err
        assert "no safe node" not in captured.out

    def test_witness_command(self, capsys):
        code = main(["witness", "--rows", "400", "--k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "->" in out and "disclosure" in out

    def test_csv_input_flows_through(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["generate", "--out", str(out), "--rows", "300"]) == 0
        code = main(["disclosure", "--csv", str(out), "--k", "1"])
        assert code == 0

    def test_search_incognito_matches_sweep(self, capsys):
        assert main(["search", "--rows", "500", "--c", "0.8", "--k", "1"]) == 0
        sweep_out = capsys.readouterr().out
        assert (
            main(
                ["search", "--rows", "500", "--c", "0.8", "--k", "1",
                 "--incognito"]
            )
            == 0
        )
        incognito_out = capsys.readouterr().out
        sweep_nodes = {ln for ln in sweep_out.splitlines() if "node (" in ln}
        incognito_nodes = {
            ln for ln in incognito_out.splitlines() if "node (" in ln
        }
        assert sweep_nodes == incognito_nodes

    def test_breach_command(self, capsys):
        code = main(["breach", "--rows", "500", "--level", "0.9"])
        assert code == 0
        assert "suffice to reach" in capsys.readouterr().out

    def test_estimate_command_unconditional(self, capsys):
        code = main(
            ["estimate", "--rows", "300", "--atom", "t[5] = Sales",
             "--samples", "500"]
        )
        assert code == 0
        assert "95% CI" in capsys.readouterr().out

    def test_disclosure_adversary_negation(self, capsys):
        code = main(
            ["disclosure", "--rows", "500", "--k", "2",
             "--adversary", "negation"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "negation adversary, k=2" in out
        assert "implications" not in out  # single-model output

    def test_disclosure_adversary_weighted_runs(self, capsys):
        code = main(
            ["disclosure", "--rows", "400", "--k", "1",
             "--adversary", "weighted"]
        )
        assert code == 0
        assert "weighted adversary" in capsys.readouterr().out

    def test_disclosure_rejects_unknown_adversary(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["disclosure", "--adversary", "telepathy"]
            )

    def test_backend_rejects_unknown(self):
        """There is no --backend flag: serve's --workers alone picks the
        path."""
        parser = build_parser()
        for command in ("fig5", "fig6", "disclosure", "search", "serve"):
            for value in ("pool", "persistent", "serial"):
                with pytest.raises(SystemExit):
                    parser.parse_args([command, "--backend", value])

    @pytest.mark.parametrize(
        "command", ["disclosure", "fig5", "fig6", "search"]
    )
    def test_only_serve_takes_workers(self, command, capsys):
        """Every command but serve runs in-process, so argparse rejects
        --workers as an unknown option."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["auto", "process", "inproc"])
    def test_serve_takes_no_shard_mode(self, mode, capsys):
        """Shards always run inside the router process, so argparse
        rejects --shard-mode as an unknown option."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["serve", "--shards", "2", "--shard-mode", mode]
            )
        assert excinfo.value.code == 2
        assert "--shard-mode" in capsys.readouterr().err

    def test_serve_parses_workers_with_default_2(self):
        parser = build_parser()
        assert parser.parse_args(["serve"]).workers == 2
        assert parser.parse_args(["serve", "--workers", "1"]).workers == 1
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--workers", "0"])

    @pytest.mark.parametrize("backend", ["serial", "persistent"])
    def test_disclosure_runs_on_every_backend(self, backend, capsys):
        """The command runs in-process; its figures match a batch over the
        node and its children on either backend, which two persistent
        workers evaluate."""
        code = main(
            ["disclosure", "--rows", "300", "--k", "2", "--cache-stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "max disclosure" in out
        assert "parallel hits" in out  # the honest-stats counter is printed
        table = default_adult_table(300, 20070419)
        lattice = GeneralizationLattice(
            adult_hierarchies(), ADULT_SCHEMA.quasi_identifiers
        )
        bucketizations = [
            bucketize_at(table, lattice, node)
            for node in [FIG5_NODE, *lattice.children(FIG5_NODE)]
        ]
        workers = {"serial": 1, "persistent": 2}[backend]
        with DisclosureEngine(workers=workers, backend=backend) as engine:
            for model, label in (
                ("implication", "2 implications :"),
                ("negation", "2 negations    :"),
            ):
                series = engine.evaluate_many(bucketizations, [2], model=model)
                line = f"max disclosure, {label} {float(series[0][2]):.6f}"
                assert line in out
            assert (engine.stats.parallel_tasks > 0) == (workers > 1)

    def test_search_adversary_negation(self, capsys):
        code = main(
            ["search", "--rows", "500", "--c", "0.9", "--k", "1",
             "--adversary", "negation"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[negation]" in out
        assert "minimal safe" in out and "best by precision" in out

    def test_breach_adversary_negation(self, capsys):
        code = main(
            ["breach", "--rows", "500", "--level", "0.9",
             "--adversary", "negation"]
        )
        assert code == 0
        assert "negated atom(s) suffice to reach" in capsys.readouterr().out

    def test_witness_adversary_negation(self, capsys):
        code = main(
            ["witness", "--rows", "400", "--k", "2",
             "--adversary", "negation"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "NOT t[" in out and "disclosure" in out

    def test_witness_unsupported_adversary_fails_cleanly(self, capsys):
        code = main(
            ["witness", "--rows", "300", "--k", "1",
             "--adversary", "sampling"]
        )
        assert code == 2
        assert "sampling" in capsys.readouterr().err

    def test_estimate_command_with_formula(self, capsys):
        code = main(
            [
                "estimate",
                "--rows", "300",
                "--atom", "t[5] = Sales",
                "--formula", "t[2] = Sales -> t[5] = Sales",
                "--samples", "500",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "worlds accepted" in out
