"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.graph import write_edge_list


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "Mti"])
        assert args.algo == "gmbe" and args.device == "A100" and args.gpus == 1

    def test_bench_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig99"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Mti" in out and "GH" in out and "BookCrossing" in out

    def test_stats_on_dataset(self, capsys):
        assert main(["stats", "YG"]) == 0
        out = capsys.readouterr().out
        assert "node_buf" in out

    def test_stats_on_file(self, tmp_path, paper_graph, capsys):
        path = tmp_path / "g.tsv"
        write_edge_list(paper_graph, path)
        assert main(["stats", str(path)]) == 0

    def test_run_gmbe_on_file(self, tmp_path, paper_graph, capsys):
        path = tmp_path / "g.tsv"
        write_edge_list(paper_graph, path)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "6 maximal bicliques" in out
        assert "simulated time" in out

    def test_run_cpu_algo_with_output(self, tmp_path, paper_graph, capsys):
        gpath = tmp_path / "g.tsv"
        opath = tmp_path / "out.txt"
        write_edge_list(paper_graph, gpath)
        rc = main(["run", str(gpath), "--algo", "oombea", "--output", str(opath)])
        assert rc == 0
        assert len(opath.read_text().strip().splitlines()) == 6

    def test_sharded_run_writes_and_pages_like_plain(self, tmp_path, capsys):
        plain, sharded = tmp_path / "plain.txt", tmp_path / "sharded.txt"
        assert main(["run", "Mti", "--output", str(plain)]) == 0
        assert main(["run", "Mti", "--shards", "2",
                     "--output", str(sharded)]) == 0
        lines = plain.read_text().splitlines()
        assert lines and sorted(sharded.read_text().splitlines()) == sorted(
            lines
        )
        capsys.readouterr()
        assert main(["run", "Mti", "--page-limit", "3"]) == 0
        page_plain = capsys.readouterr().out
        assert main(["run", "Mti", "--shards", "2", "--page-limit", "3"]) == 0
        page_sharded = capsys.readouterr().out
        page = page_plain.split("--- page", 1)[1]
        assert page.count(" | ") == 3
        assert page_sharded.split("--- page", 1)[1] == page

    #: sha256 of ``gmbe run Mti --output`` per algorithm: the file's
    #: bytes and record order, with or without ``--page-limit``
    _OUTPUT_SHA256 = {
        "gmbe": "ba81d8460cb4b93acbeb31bb32883884"
                "469ab9313666c4895f34e95b73a86b62",
        "gmbe --shards 2": "db3ec34a23cb21de48a277af6d386125"
                           "05109c68356ee0950c8836106eca4b53",
        "gmbe --nodes 2": "ba81d8460cb4b93acbeb31bb32883884"
                          "469ab9313666c4895f34e95b73a86b62",
        "gmbe --nodes 2 --shards 2": "db3ec34a23cb21de48a277af6d386125"
                                     "05109c68356ee0950c8836106eca4b53",
        "gmbe-host": "ba81d8460cb4b93acbeb31bb32883884"
                     "469ab9313666c4895f34e95b73a86b62",
        "oombea": "b08135bdd49c9ff0f4775964d93240567"
                  "a946f7a6bce11823ef9afed23197508",
    }

    @pytest.mark.parametrize("page", [False, True], ids=["all", "paged"])
    @pytest.mark.parametrize("algo", sorted(_OUTPUT_SHA256))
    def test_run_output_file_is_pinned(self, tmp_path, capsys, algo, page):
        import hashlib

        out = tmp_path / "out.txt"
        argv = ["run", "Mti", "--algo", *algo.split(), "--output", str(out)]
        assert main(argv + (["--page-limit", "3"] if page else [])) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self._OUTPUT_SHA256[algo]
        assert ("--- page" in capsys.readouterr().out) == page

    def test_faults_replay_output_file_is_pinned(self, tmp_path, capsys):
        import hashlib

        log, out = tmp_path / "faults.json", tmp_path / "out.txt"
        assert main(["run", "Mti", "--fault-seed", "3",
                     "--fault-sm-crash", "0.05",
                     "--fault-log", str(log)]) == 0
        assert main(["faults", "replay", "Mti", str(log),
                     "--output", str(out)]) == 0
        assert "replayed 39 logged faults; re-fired 39" in (
            capsys.readouterr().out
        )
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self._OUTPUT_SHA256["gmbe"]

    #: stdout of ``gmbe run Mti`` with each flag set, the host wall
    #: clock masked; a case of several runs shares one checkpoint path
    _RUN_TRANSCRIPTS = {
        "default": ([""], """\
1470 maximal bicliques (*s host wall clock)
simulated time: 1.0617e-06s on A100 x1
nodes=1797 non-maximal=1057 pruned=14164
"""),
        "shards": (["--shards 2"], """\
1470 maximal bicliques (*s host wall clock)
simulated time: 1.0617e-06s on A100 x1 x2 shards
nodes=1797 non-maximal=1057 pruned=14164
"""),
        "nodes": (["--nodes 2"], """\
1470 maximal bicliques (*s host wall clock)
simulated time: 2.48014e-06s on A100 x1 x2 machines
nodes=1797 non-maximal=1057 pruned=14164
"""),
        "nodes-shards": (["--nodes 2 --shards 2"], """\
1470 maximal bicliques (*s host wall clock)
simulated time: 2.33901e-06s on A100 x1 x2 machines x2 shards
nodes=1797 non-maximal=1057 pruned=14164
"""),
        "gmbe-host": (["--algo gmbe-host"], """\
1470 maximal bicliques (*s host wall clock)
nodes=1797 non-maximal=1057 pruned=14164
"""),
        "oombea": (["--algo oombea"], """\
1470 maximal bicliques (*s host wall clock)
nodes=2586 non-maximal=1116 pruned=13931
"""),
        "halt-resume": ([
            "--halt-after-tasks 5 --checkpoint {ck}",
            "--checkpoint {ck} --resume",
        ], """\
5 maximal bicliques (*s host wall clock)
simulated time: 1.07801e-07s on A100 x1
nodes=0 non-maximal=0 pruned=0
halted after 5 tasks (checkpoint written; use --resume to continue)
1470 maximal bicliques (*s host wall clock)
simulated time: 1.1695e-06s on A100 x1
nodes=1797 non-maximal=1057 pruned=14164
resumed from checkpoint
"""),
        "faults": (["--fault-seed 3 --fault-sm-crash 0.05"], """\
1470 maximal bicliques (*s host wall clock)
simulated time: 1.0617e-06s on A100 x1
nodes=1901 non-maximal=1122 pruned=15018
injected faults: sm_crash=39
tasks requeued: 39 (lost: 0)
"""),
    }

    @pytest.mark.parametrize("case", sorted(_RUN_TRANSCRIPTS))
    def test_run_transcript_is_pinned(self, tmp_path, capsys, case):
        import re

        runs, expected = self._RUN_TRANSCRIPTS[case]
        ck = tmp_path / "run.ckpt"
        for flags in runs:
            argv = ["run", "Mti", *flags.format(ck=ck).split()]
            assert main(argv) == 0
        out = capsys.readouterr().out
        assert re.sub(r"\(\d+\.\d+s host", "(*s host", out) == expected

    def test_run_variants(self, tmp_path, paper_graph, capsys):
        gpath = tmp_path / "g.tsv"
        write_edge_list(paper_graph, gpath)
        for extra in (
            ["--scheduling", "warp"],
            ["--no-prune"],
            ["--gpus", "2"],
            ["--nodes", "2"],
            ["--algo", "gmbe-host"],
            ["--algo", "parmbe"],
        ):
            assert main(["run", str(gpath), *extra]) == 0
            assert "6 maximal bicliques" in capsys.readouterr().out

    def test_tune_then_hit_then_run_tuned(self, tmp_path, paper_graph,
                                          capsys):
        gpath = tmp_path / "g.tsv"
        write_edge_list(paper_graph, gpath)
        store = tmp_path / "store"
        rc = main(["tune", str(gpath), "--budget", "4",
                   "--store", str(store)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "simulator runs" in out
        # Second invocation recalls the entry with zero simulator work.
        assert main(["tune", str(gpath), "--budget", "4",
                     "--store", str(store)]) == 0
        assert "store hit" in capsys.readouterr().out
        # And `run --tuned` serves from the same store.
        rc = main(["run", str(gpath), "--tuned",
                   "--tuning-store", str(store)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tuned config: store hit" in out
        assert "6 maximal bicliques" in out

    def test_tune_no_store_and_json_out(self, tmp_path, paper_graph,
                                        capsys):
        gpath = tmp_path / "g.tsv"
        write_edge_list(paper_graph, gpath)
        jpath = tmp_path / "tuned.json"
        rc = main(["tune", str(gpath), "--budget", "4", "--no-store",
                   "--json", str(jpath)])
        assert rc == 0
        assert "stored:" not in capsys.readouterr().out
        data = jpath.read_text()
        assert "gmbe-tuned-config" in data

    def test_run_tuned_miss_falls_back(self, tmp_path, paper_graph,
                                       capsys):
        gpath = tmp_path / "g.tsv"
        write_edge_list(paper_graph, gpath)
        rc = main(["run", str(gpath), "--tuned",
                   "--tuning-store", str(tmp_path / "empty")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "store miss" in out and "6 maximal bicliques" in out

    def test_run_tuned_requires_gmbe(self, tmp_path, paper_graph):
        gpath = tmp_path / "g.tsv"
        write_edge_list(paper_graph, gpath)
        with pytest.raises(SystemExit):
            main(["run", str(gpath), "--algo", "oombea", "--tuned"])

    def test_bench_tiny(self, capsys):
        rc = main(
            ["bench", "table2", "--scale", "0.1", "--codes", "Mti"]
        )
        assert rc == 0
        assert "Table 2" in capsys.readouterr().out


class TestServe:
    def test_demo_session_shows_cache_hit(self, tmp_path, paper_graph, capsys):
        from repro.graph import write_edge_list

        gpath = tmp_path / "g.tsv"
        write_edge_list(paper_graph, gpath)
        rc = main(["serve", "--graph", str(gpath), "--algo", "oombea",
                   "--workers", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cache=miss" in out and "cache=hit" in out
        assert "service metrics" in out

    def test_jobs_file_batch(self, tmp_path, paper_graph, capsys):
        import json

        from repro.graph import write_edge_list

        gpath = tmp_path / "g.tsv"
        write_edge_list(paper_graph, gpath)
        jobs_path = tmp_path / "jobs.jsonl"
        specs = [
            {"graph": str(gpath), "algorithm": "oombea"},
            {"graph": str(gpath), "algorithm": "oombea"},
            {"graph": str(gpath), "algorithm": "oombea",
             "min_left": 2, "min_right": 2},
        ]
        jobs_path.write_text("\n".join(json.dumps(s) for s in specs) + "\n")
        metrics_path = tmp_path / "metrics.json"
        rc = main(["serve", "--jobs", str(jobs_path), "--algo", "oombea",
                   "--metrics-out", str(metrics_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("ok") >= 3
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["service.jobs.submitted"] == 3
        # the duplicate either coalesced with its in-flight twin or hit
        assert (snapshot["service.jobs.coalesced"]
                + snapshot["service.cache.hits"]) >= 1

    def test_jobs_file_requires_graph_field(self, tmp_path):
        jobs_path = tmp_path / "jobs.jsonl"
        jobs_path.write_text('{"algorithm": "oombea"}\n')
        with pytest.raises(SystemExit):
            main(["serve", "--jobs", str(jobs_path)])

    @pytest.mark.parametrize(
        "bad_line,offending",
        [
            ('{"graph": "Mti", "algorithm": ', "invalid JSON"),
            ("[1, 2]", "[1, 2]"),
            ('{"graph": "Mti", "nope": 1}', "'nope'"),
        ],
    )
    def test_jobs_file_bad_line_names_file_line_and_value(
        self, tmp_path, bad_line, offending
    ):
        jobs_path = tmp_path / "jobs.jsonl"
        jobs_path.write_text(
            '{"graph": "Mti", "algorithm": "oombea"}\n\n' + bad_line + "\n"
        )
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--jobs", str(jobs_path)])
        message = str(exc.value.code)
        assert message.startswith(f"{jobs_path}:3: ")
        assert offending in message


class TestFlagValidation:
    @pytest.mark.parametrize(
        "argv,named",
        [
            (["run", "Mti", "--gpus", "0"], "--gpus 0"),
            (["run", "Mti", "--warps-per-sm", "0"], "--warps-per-sm 0"),
            (["run", "Mti", "--max-task-retries", "-1"],
             "--max-task-retries -1"),
            (["run", "Mti", "--fault-sm-crash", "2.0"],
             "--fault-sm-crash 2.0"),
            (["run", "Mti", "--checkpoint-every", "0", "--checkpoint", "{ck}"],
             "--checkpoint-every 0"),
            (["run", "Mti", "--shards", "0"], "--shards 0"),
            (["run", "Mti", "--halt-after-tasks", "-1"],
             "--halt-after-tasks -1"),
            (["run", "Nope"], "'Nope'"),
            (["serve", "--workers", "0"], "--workers 0"),
            (["serve", "--queue-depth", "0"], "--queue-depth 0"),
            (["serve", "--cache-mb", "-1"], "--cache-mb -1"),
            (["tune", "Mti", "--no-store", "--budget", "0"], "--budget 0"),
            (["tune", "Mti", "--no-store", "--gpus", "0"], "--gpus 0"),
            (["faults", "replay", "Mti", "{log}", "--gpus", "0"], "--gpus 0"),
            (["faults", "replay", "Mti", "{log}", "--warps-per-sm", "0"],
             "--warps-per-sm 0"),
            (["faults", "replay", "Mti", "{log}", "--max-task-retries", "-1"],
             "--max-task-retries -1"),
            (["bench", "table1", "--codes", "Nope"], "--codes Nope"),
            (["bench", "table1", "--codes", "TM", "Nope"], "'Nope'"),
            (["bench", "table1", "--scale", "-1"], "--scale -1.0"),
            (["bench", "table1", "--scale", "0"], "--scale 0.0"),
            (["run", "Mti", "--nodes", "0"], "--nodes 0"),
            (["run", "Mti", "--nodes", "2", "--gpus", "0"], "--gpus 0"),
            (["run", "Mti", "--nodes", "2", "--checkpoint", "{ck}"],
             "--nodes 2"),
            (["run", "Mti", "--nodes", "2", "--checkpoint", "{ck}",
              "--resume"], "--nodes 2"),
            (["run", "Mti", "--nodes", "2", "--halt-after-tasks", "5"],
             "--nodes 2"),
            (["run", "Mti", "--nodes", "2", "--fault-seed", "3"],
             "--nodes 2"),
            (["run", "Mti", "--nodes", "2", "--fault-mem-pressure", "0.1"],
             "--nodes 2"),
            (["run", "Mti", "--nodes", "2", "--checkpoint", "{ck}",
              "--halt-after-tasks", "5", "--fault-log", "{log}"],
             "--nodes 2"),
            (["run", "Mti", "--algo", "oombea", "--nodes", "3"],
             "--algo oombea"),
            (["run", "Mti", "--algo", "oombea", "--shards", "2"],
             "--algo oombea"),
            (["run", "Mti", "--algo", "oombea", "--telemetry-out", "{ck}"],
             "--algo oombea"),
            (["run", "Mti", "--algo", "gmbe-host", "--checkpoint", "{ck}"],
             "--algo gmbe-host"),
            (["run", "Mti", "--algo", "mbea", "--fault-sm-crash", "0.1"],
             "--algo mbea"),
            (["run", "Mti", "--shards", "2", "--halt-after-tasks", "3"],
             "--shards 2"),
            (["run", "Mti", "--shards", "2", "--fault-seed", "1"],
             "--shards 2"),
            (["run", "Mti", "--shards", "2", "--checkpoint", "{ck}",
              "--resume"], "--shards 2"),
            (["run", "Mti", "--shards", "2", "--gpus", "0"], "--gpus 0"),
            (["run", "Mti", "--resume"], "--resume"),
            (["run", "Mti", "--shards", "2", "--pool", "process",
              "--checkpoint-every", "0", "--checkpoint", "{ck}"],
             "--checkpoint-every 0"),
        ],
    )
    def test_bad_flag_exits_with_one_line_naming_it(
        self, tmp_path, argv, named
    ):
        from repro.gpusim.faults import FaultLog

        log = tmp_path / "faults.json"
        FaultLog().save(log)
        argv = [a.format(ck=tmp_path / "run.ckpt", log=log) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = exc.value.code
        assert isinstance(message, str)  # non-zero exit, printed to stderr
        assert "\n" not in message
        assert named in message

    def test_halt_without_checkpoint_prints_no_resume_hint(
        self, tmp_path, capsys
    ):
        assert main(["run", "Mti", "--halt-after-tasks", "5"]) == 0
        out = capsys.readouterr().out
        assert "halted after 5 tasks" in out
        assert "--resume" not in out
        ckpt = tmp_path / "run.ckpt"
        assert main(["run", "Mti", "--halt-after-tasks", "5",
                     "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint written; use --resume to continue" in out
        assert ckpt.exists()
